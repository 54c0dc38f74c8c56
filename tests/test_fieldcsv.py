"""The public field-CSV pair, ratered.read_field_csv and write_field_csv.

The writer's bytes and the reader's checks, messages and memory bounds are
tested cell by cell in tests/test_cli.py, against the per-row writer and the
per-cell reader of tests/conftest.py.
"""

import re

import pytest

import ratered
from ratered import fieldcsv


def test_public_pair_is_the_module_pair():
    """The names README documents are the functions the tests below and in
    tests/test_cli.py check."""
    assert ratered.read_field_csv is fieldcsv.read_field_csv
    assert ratered.write_field_csv is fieldcsv.write_field_csv


@pytest.mark.parametrize("text", [
    "i_1,i_2,p_1,p_2,rho_max,Rsum_max\n0,0,0,0,0,0\n",
    "i_1,i_2,i_3,p_1,p_2,p_3,rho_1,Rsum_1\n" + "0,0,0,0,0,0,0.5,-0.5\n" * 3,
], ids=["one-row", "repeated-row"])
def test_indices_that_span_no_grid_step(tmp_path, text, per_cell_read_field_csv):
    """Every i_j 0: the reader names the file and the cause, as the per-cell
    reference does, instead of GridSpec's n_steps message."""
    path = tmp_path / "field.csv"
    path.write_text(text)
    message = f"{path}: every i_j is 0, so the indices span no grid step"
    for read in (fieldcsv.read_field_csv, per_cell_read_field_csv):
        with pytest.raises(fieldcsv.ConfigError, match=re.escape(message) + "$"):
            read(path)

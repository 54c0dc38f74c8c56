"""The public field-CSV pair, ratered.read_field_csv and write_field_csv.

The writer's bytes and the reader's checks, messages and memory bounds are
tested cell by cell in tests/test_cli.py, against the per-row writer and the
per-cell reader of tests/conftest.py.
"""

import re

import numpy as np
import pytest

import ratered
from ratered import fieldcsv
from ratered.lattice import RateReductionField
from ratered.probability import GridSpec


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


def _field():
    grid = GridSpec.from_delta(2, 0.25)
    data = np.random.default_rng(3).uniform(-1.0, 2.0, grid.shape)
    data[0, 1] = -np.inf
    return RateReductionField(grid, data)


@pytest.mark.parametrize("label", ["", "a,b", "\n", "\r", "\x0c", "\x1c", "\x85", "\u2028"])
def test_writer_refuses_a_label_the_reader_cannot_read(tmp_path, label):
    """An empty label, a comma or a line break would make a header that
    read_field_csv refuses; the writer names the label before it opens the
    file."""
    path = tmp_path / "field.csv"
    message = f"field CSV label {label!r} must be non-empty and hold no ',' or line break"
    with pytest.raises(fieldcsv.ConfigError, match=re.escape(message) + "$"):
        fieldcsv.write_field_csv(path, _field(), label)
    assert not path.exists()


@pytest.mark.parametrize("label", [" sp", "a\tb", "é"])
def test_unusual_labels_round_trip(tmp_path, label):
    field = _field()
    fieldcsv.write_field_csv(tmp_path / "field.csv", field, label)
    loaded = fieldcsv.read_field_csv(tmp_path / "field.csv")
    assert loaded.grid == field.grid
    assert np.array_equal(loaded.data.view(np.uint64), field.data.view(np.uint64))
    fieldcsv.write_field_csv(tmp_path / "again.csv", loaded, label)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "field.csv").read_bytes()

"""The public field-CSV pair, ratered.read_field_csv and write_field_csv.

The writer's bytes and the reader's checks, messages and memory bounds are
tested cell by cell in tests/test_cli.py, against the per-row writer and the
per-cell reader of tests/conftest.py; there the writer and the reader run
on the compiled library wherever it loads.  Here the compiled and the numpy
row writers are compared with each other, every reader test of
tests/test_cli.py runs again on the block reader alone, the files that the
compiled row reader declines are read by the block reader with the same
bits or the same error, and every cell the compiled row writer writes is
read back by the compiled row reader with the bits float() reads from it,
while a cell the writer would not write is declined.
"""

import re

import numpy as np
import pytest

import ratered
import test_cli
from ratered import envelope, fieldcsv
from ratered.lattice import RateReductionField
from ratered.probability import GridSpec, entropy_grid
from test_cli import _read_both


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


def _awkward_cells(grid, seed):
    """Random values over 28 decades, fixed and exponent notation, with
    BOTTOM, +inf, 0.0, -0.0, NaN with and without its sign bit, subnormals
    and 17-digit ties spread over them and in the first cells."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.n_points) * 10.0 ** rng.integers(-8, 20, grid.n_points)
    awkward = np.array([-np.inf, np.inf, 0.0, -0.0, np.nan, -np.nan, 5e-324, -1e-310,
                        1e14 + 0.125, 1e-4, 1e15, 0.5])
    data[rng.integers(0, grid.n_points, grid.n_points // 4)] = \
        rng.choice(awkward, grid.n_points // 4)
    data[: awkward.size] = awkward
    return data.reshape(grid.shape)


@pytest.mark.parametrize("m,n_steps", [(2, 70), (3, 20), (4, 9)])
def test_compiled_and_numpy_row_writers_write_the_same_bytes(tmp_path, monkeypatch, compiler,
                                                             per_row_field_csv, m, n_steps):
    """Two fields written together, one of them a rotated view as
    FieldBank.field_for hands out, and a slice: the same bytes from either
    row writer, and the per-row reference's for the view.  Each grid takes
    two or more blocks, so blocks start inside axis lines."""
    assert envelope.kernel_name() == "compiled", f"{compiler} is on PATH"
    grid = GridSpec(m=m, n_steps=n_steps)
    data = _awkward_cells(grid, seed=m)
    rotated = np.moveaxis(_awkward_cells(grid, seed=10 + m), 0, -1)
    h = entropy_grid(grid)
    fixed = (slice(None),) * (m - 1) + (n_steps // 3,)

    def write(directory):
        directory.mkdir()
        fieldcsv._write_grid_csv([(directory / "field.csv", "1", data),
                                  (directory / "rotated.csv", "2", rotated)],
                                 list(range(1, m + 1)), h, grid)
        fieldcsv._write_grid_csv([(directory / "slice.csv", "max", data[fixed])],
                                 list(range(1, m)), h[fixed], grid)
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    assert grid.n_points > fieldcsv._CSV_BLOCK
    compiled = write(tmp_path / "compiled")
    monkeypatch.setattr(envelope, "_compiled_kernel", lambda: None)
    assert write(tmp_path / "numpy") == compiled
    per_row_field_csv(tmp_path / "ref.csv", RateReductionField(grid, rotated), "2")
    assert compiled["rotated.csv"] == (tmp_path / "ref.csv").read_bytes()
    assert b"nan" in compiled["field.csv"] and b"-nan" not in compiled["field.csv"]


@pytest.fixture
def block_reader(numpy_kernel):
    """read_field_csv on the block reader alone, as on a host where the
    compiled library cannot be built."""
    assert envelope.compiled_csv_read() is None


@pytest.mark.usefixtures("block_reader")
class TestFieldCsvReaderOnNumpy:
    """Every reader test of tests/test_cli.py again on the block reader
    alone, the one a host without a compiler runs: the same bits, the same
    errors and the same memory bound.  There the compiled row reader reads
    every file the writer wrote, wherever the compiled library loads."""

    test_certify_on_a_header_that_is_not_utf8 = \
        test_cli.TestTextInputsAreUtf8.test_certify_on_a_header_that_is_not_utf8
    test_a_bad_byte_past_the_first_block_names_its_line = \
        test_cli.TestTextInputsAreUtf8.test_a_bad_byte_past_the_first_block_names_its_line
    test_indices_that_span_no_grid_step = staticmethod(test_indices_that_span_no_grid_step)
    test_unusual_labels_round_trip = staticmethod(test_unusual_labels_round_trip)


for _name in dir(test_cli):
    if _name.startswith("test_read_field_csv_"):
        setattr(TestFieldCsvReaderOnNumpy, _name, staticmethod(getattr(test_cli, _name)))


@pytest.mark.usefixtures("block_reader")
class TestFieldCsvReaderMatchesPerCellReaderOnNumpy(
        test_cli.TestFieldCsvReaderMatchesPerCellReader):
    """The per-cell reference's bits and messages on the block reader alone."""


@pytest.mark.parametrize("chunk", [None, 256, 4099])
def test_a_written_file_takes_the_compiled_reader(tmp_path, monkeypatch, compiler, chunk):
    """A file the writer wrote is read by the compiled row reader, in chunks
    of any size that holds a row, and np.loadtxt is never called."""
    assert envelope.kernel_name() == "compiled"
    if chunk is not None:
        monkeypatch.setattr(fieldcsv, "_CSV_CHUNK", chunk)
    field = test_cli._special_field(GridSpec(m=3, n_steps=20))
    fieldcsv.write_field_csv(tmp_path / "field.csv", field, "max")

    def forbidden(*args, **kwargs):
        raise AssertionError("np.loadtxt read a file the writer wrote")

    monkeypatch.setattr(fieldcsv.np, "loadtxt", forbidden)
    loaded = fieldcsv.read_field_csv(tmp_path / "field.csv")
    assert loaded.grid == field.grid
    assert np.array_equal(loaded.data.view(np.uint64), field.data.view(np.uint64))


def _respell(value: str, spelling: str):
    """An edit that spells the first rho cell reading value another way."""
    def edit(lines):
        r = next(r for r, line in enumerate(lines) if line.split(",")[6] == value)
        cells = lines[r].split(",")
        cells[6] = spelling
        lines[r] = ",".join(cells)
        return lines
    return edit


def _last_i1(n_steps: int):
    """An edit whose last line claims the grid has n_steps steps."""
    def edit(lines):
        lines[-1] = ",".join([str(n_steps), *lines[-1].split(",")[1:]])
        return lines
    return edit


# Edits of a written m=3, N=20 file.  "0" is how the writer spells +0.0, so
# the compiled row reader reads the third edit, with +0.0 where -0.0 was
# written; it declines every other edit.  All but the last three leave a
# file that the block reader reads.  The respellings of 0.5, 5, 0.1, 0 and
# -0 read as the written value; none has the layout of the writer's fixed
# notation, so the compiled reader reads each by strtod, and takes only "0".
EDITS = {
    "5e-1": _respell("0.5", "5e-1"),
    "0.50": _respell("0.5", "0.50"),
    "-0.0-spelled-0": _respell("-0", "0"),
    "00.5": _respell("0.5", "00.5"),
    "+0.5": _respell("0.5", "+0.5"),
    ".5": _respell("0.5", ".5"),
    "5.": _respell("5", "5."),
    "18-digits": _respell("0.10000000000000001", "0.100000000000000006"),
    "0.0": _respell("0", "0.0"),
    "-0.0": _respell("-0", "-0.0"),
    "swapped-rows": lambda lines: lines[:100] + [lines[101], lines[100]] + lines[102:],
    "crlf": lambda lines: [line + "\r" for line in lines],
    "trailing-blank-line": lambda lines: lines + [""],
    "nul": lambda lines: lines[:50] + [lines[50] + "\x00"] + lines[51:],
    "huge-n-for-the-file": _last_i1(10**5),
    "huge-n-for-an-array": _last_i1(10**10),
}


@pytest.mark.parametrize("edit", EDITS)
def test_an_edited_file_reads_as_the_per_cell_reader_reads_it(tmp_path, compiler, edit,
                                                              per_cell_read_field_csv):
    """Each edit reads with the bits or the ConfigError of the per-cell
    reference, through the block reader wherever the compiled row reader
    declines it; where the edit keeps every value, with the written field's
    bits."""
    assert envelope.kernel_name() == "compiled"
    written = test_cli._special_field(GridSpec(m=3, n_steps=20))
    written.data.flat[[4000, 4001, 4002, 4003]] = [0.5, -0.0, 5.0, 0.1]   # from (9, 1, 10)
    fieldcsv.write_field_csv(tmp_path / "src.csv", written, "max")
    lines = (tmp_path / "src.csv").read_text().splitlines()
    path = tmp_path / "field.csv"
    path.write_text("\n".join(EDITS[edit](list(lines))) + "\n", newline="")
    compiled = fieldcsv._read_written(path)
    (new, new_error), (ref, ref_error) = _read_both(path, per_cell_read_field_csv)
    assert new_error == ref_error
    if edit.startswith(("huge", "nul")):
        assert compiled is None and new_error is not None
        return
    assert np.array_equal(new.data.view(np.uint64), ref.data.view(np.uint64))
    if edit == "-0.0-spelled-0":
        assert np.array_equal(compiled.data.view(np.uint64), new.data.view(np.uint64))
        assert np.array_equal(new.data, written.data)
        assert not np.array_equal(new.data.view(np.uint64), written.data.view(np.uint64))
    else:
        assert compiled is None
        assert np.array_equal(new.data.view(np.uint64), written.data.view(np.uint64))


def assert_reads_back(values):
    """values written by the compiled row writer as rho, and reversed as
    Rsum, are read back by the compiled row reader with the bits float()
    reads from every cell, by strtod exactly where the writer does not
    spell the value in fixed notation with a non-zero digit.  The field has
    one axis and empty index and grid-value cells, so that a row is
    rho,Rsum."""
    assert envelope.kernel_name() == "compiled"
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    cells, shape = [""] * (2 * values.size), (values.size,)
    rows = envelope.compiled_csv_rows()(cells, shape)
    read = envelope.compiled_csv_read()(cells, shape)
    text = next(rows(np.array([[values, values[::-1]]]), 0)).tobytes()
    rho, rsum = np.empty(values.size), np.empty(values.size)
    slow = 2 * np.count_nonzero(~((abs(values) >= 1e-4) & (abs(values) < 1e15)))
    assert read(text, 0, rho, rsum) == (values.size, len(text), slow)
    want = np.array([[float(cell) for cell in line.split(",")]
                     for line in text.decode().splitlines()])
    assert np.array_equal(np.stack([rho, rsum], axis=1).view(np.uint64), want.view(np.uint64))


def _fixed_notation(rng, n: int) -> np.ndarray:
    """n values with significands at random, exponents from 2**-15 to 2**50
    and both signs: the values around and inside 1e-4 <= |x| < 1e15, where
    the writer spells fixed notation."""
    bits = (rng.integers(0, 1 << 52, size=n, dtype=np.uint64)
            | (rng.integers(1023 - 15, 1023 + 51, size=n).astype(np.uint64) << np.uint64(52))
            | (rng.integers(0, 2, size=n).astype(np.uint64) << np.uint64(63)))
    return bits.view(np.float64)


def test_written_cells_read_back_over_random_bit_patterns(compiler):
    # every exponent, both signs, NaN payloads, subnormals
    bits = np.random.default_rng(31).integers(0, 2**64, size=1 << 17, dtype=np.uint64)
    assert_reads_back(bits.view(np.float64))


def test_written_cells_read_back_in_fixed_notation(compiler):
    # the digit path's cells
    assert_reads_back(_fixed_notation(np.random.default_rng(32), 1 << 17))


def _mutations(cell: str) -> list[str]:
    """cell with a trailing "0", a leading "0", ".0" or a leading "+", and
    with its last digit one up, one down or dropped."""
    sign, body = ("-", cell[1:]) if cell.startswith("-") else ("", cell)
    out = [cell + "0", sign + "0" + body, cell + ".0", "+" + cell]
    if cell[-1].isdigit() and len(body) > 1:
        last = int(cell[-1])
        out += [cell[:-1] + str((last + 1) % 10), cell[:-1] + str((last - 1) % 10), cell[:-1]]
    return out


def test_the_reader_takes_a_cell_exactly_when_the_writer_spells_it(compiler):
    """The doubles within 64 ulps of each power of ten from 1e-5 to 1e15
    read back, and so do -0, subnormals and 1e-5, by strtod.  Mutations
    of the spellings of random values and of those doubles, one row each,
    are taken exactly when "%.17g" spells the value float() reads from
    them, and with that value's bits."""
    powers = np.array([float(f"1e{j}") for j in range(-5, 16)]).view(np.int64)
    near = (powers[:, None] + np.arange(-64, 65)).reshape(-1).view(np.float64)
    assert_reads_back(near)
    assert_reads_back([-0.0, 5e-324, -np.nextafter(np.finfo(np.float64).tiny, 0.0), 1e-5])

    rng = np.random.default_rng(34)
    random = rng.integers(0, 2**64, size=1 << 10, dtype=np.uint64).view(np.float64)
    values = np.concatenate([random, _fixed_notation(rng, 1 << 10), near[::8]])
    mutants = sorted({m for x in values.tolist() for m in _mutations(fieldcsv._fmt(x))})
    read = envelope.compiled_csv_read()(["", ""], (1,))
    rho, rsum = np.empty(1), np.empty(1)
    taken = 0
    for m in mutants:
        try:
            spelled = fieldcsv._fmt(float(m)) == m
        except ValueError:
            spelled = False
        got = read(f"{m},{m}\n".encode(), 0, rho, rsum)
        assert (got is not None) == spelled, m
        if spelled:
            assert rho.view(np.uint64)[0] == np.float64(m).view(np.uint64), m
            taken += 1
    assert 0 < taken < len(mutants) // 4


def test_written_cells_read_back_over_hypothesis_floats(compiler):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(st.floats(), min_size=1, max_size=40))
    def check(values):
        assert_reads_back(values)

    check()

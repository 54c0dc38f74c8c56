"""The field-CSV format, ratered.fieldcsv: its writer, its reader and the
"%.17g" of both row writers.

Each test is written once, in a class, and its second path is a subclass
that only swaps a fixture:

- TestFieldCsvWriter: the writer's bytes against the per-row writer of
  tests/conftest.py, and its memory bound, on the compiled row writer
  wherever the library loads; TestFieldCsvWriterOnNumpy runs them on the
  Python row writer, fieldcsv._python_rows, the one a host without a
  compiler runs.
- TestPythonFormatter: the Python row writer's "%.17g" against Python's own
  "%.17g" % x, byte for byte, on a few thousand random values;
  TestCompiledFormatter runs them on the compiled row writer with every
  random value.
- TestFieldCsvReader: the reader's bits, messages and memory bound against
  the per-cell reader of tests/conftest.py, on the compiled row reader
  wherever the library loads; TestFieldCsvReaderOnNumpy runs them on the
  block reader alone.

The module-level tests hold the compiled path against the other: both row
writers write the same bytes, a file the compiled row reader declines reads
as the block reader reads it, and every cell the compiled row writer writes
is read back by the compiled row reader with the bits float() reads from
it, while a cell the writer would not write is declined.
"""

import functools
import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import ratered
from ratered import cli, envelope, fieldcsv
from ratered.envelope import BOTTOM
from ratered.lattice import RateReductionField, gap, run
from ratered.probability import GridSpec, entropy_grid
from ratered.target_functions import builtin_table
from test_lattice import PERIOD2

# Formatting corners: -inf, negatives, subnormals, signed zeros, values that
# need all 17 digits, and the extremes of the exponent range.
SPECIAL_VALUES = [BOTTOM, -1.5, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                  -0.0, 0.0, 0.1 + 0.2, 1 / 3, float(np.nextafter(1.0, 2.0)),
                  1.7976931348623157e308, -1e-300, 2.0**53 + 2, 123456789.12345678]


def _special_field(grid, seed=0):
    """A field of random values over 600 decades with SPECIAL_VALUES spread
    over it (first rows included)."""
    rng = np.random.default_rng(seed)
    n = grid.n_points
    data = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    data[rng.integers(0, n, n // 8)] = rng.choice(SPECIAL_VALUES, n // 8)
    data[: len(SPECIAL_VALUES)] = SPECIAL_VALUES
    return RateReductionField(grid, data.reshape(grid.shape))


def _field_csv_lines(tmp_path, m, n_steps, seed=0) -> list[str]:
    """The lines of a field CSV of _special_field on an m-axis grid."""
    path = tmp_path / "src.csv"
    fieldcsv.write_field_csv(path, _special_field(GridSpec(m=m, n_steps=n_steps), seed), "max")
    return path.read_text().splitlines()


def _read_both(path, reference):
    """(result, ConfigError message or None) of read_field_csv and of the
    per-cell reference."""
    outcomes = []
    for read in (fieldcsv.read_field_csv, reference):
        try:
            outcomes.append((read(path), None))
        except fieldcsv.ConfigError as exc:
            outcomes.append((None, str(exc)))
    return outcomes


def _every_exponent(rng, per_class: int) -> np.ndarray:
    """per_class values with random significands in each of the 4096 classes
    of sign and biased exponent: both signs, every exponent, subnormals, and
    NaN payloads in the infinities' class."""
    top = np.repeat(np.arange(1 << 12, dtype=np.uint64), per_class) << np.uint64(52)
    return (top | rng.integers(0, 1 << 52, size=top.size, dtype=np.uint64)).view(np.float64)


def _fixed_notation(rng, n: int) -> np.ndarray:
    """n values with significands at random, exponents from 2**-15 to 2**50
    and both signs: the values around and inside 1e-4 <= |x| < 1e15, where
    the writer spells fixed notation."""
    bits = (rng.integers(0, 1 << 52, size=n, dtype=np.uint64)
            | (rng.integers(1023 - 15, 1023 + 51, size=n).astype(np.uint64) << np.uint64(52))
            | (rng.integers(0, 2, size=n).astype(np.uint64) << np.uint64(63)))
    return bits.view(np.float64)


def test_public_pair_is_the_module_pair():
    """The names README documents are the functions the tests below check."""
    assert ratered.read_field_csv is fieldcsv.read_field_csv
    assert ratered.write_field_csv is fieldcsv.write_field_csv


# ---------------------------------------------------------------------------
# The writer


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


def _write_together(directory, fields):
    """Every (label, field) of one grid written by one call of the writer
    that cmd_run uses, to directory / f"new_{label}.csv"."""
    grid = fields[0][1].grid
    fieldcsv._write_grid_csv([(directory / f"new_{label}.csv", label, field.data)
                              for label, field in fields],
                             list(range(1, grid.m + 1)), entropy_grid(grid), grid)


class TestFieldCsvWriter:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_run_fields_match_per_row_writer(self, tmp_path, m, per_row_field_csv):
        grid = GridSpec.from_delta(m, 0.25 if m == 4 else 0.1)
        bank = run(grid, builtin_table("min", m), t_max=2, eps=1e-300).bank
        for label, field in [(str(k), bank.field_for(k)) for k in range(1, m + 1)] \
                + [("max", bank.max_field())]:
            fieldcsv.write_field_csv(tmp_path / "new.csv", field, label)
            per_row_field_csv(tmp_path / "ref.csv", field, label)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("f,delta", [
        (builtin_table("min", 2), 0.1),
        (builtin_table("min", 3), 0.1),
        (builtin_table("min", 4), 0.25),
        (PERIOD2, 0.1),                      # 14641 points: four blocks
    ], ids=["min-m2", "min-m3", "min-m4", "period2-m4"])
    def test_run_fields_written_together_match_per_row_writer(self, tmp_path, f, delta,
                                                               per_row_field_csv):
        bank = run(GridSpec.from_delta(f.m, delta), f, t_max=2, eps=1e-300).bank
        fields = [(str(k), bank.field_for(k)) for k in range(1, f.m + 1)] \
            + [("max", bank.max_field())]
        if f is PERIOD2:       # five files, two of them rotated views read in place
            assert [fl.data.flags.c_contiguous for _, fl in fields] == [True, True, False,
                                                                        False, True]
        _write_together(tmp_path, fields)
        for label, field in fields:
            per_row_field_csv(tmp_path / "ref.csv", field, label)
            assert (tmp_path / f"new_{label}.csv").read_bytes() == \
                (tmp_path / "ref.csv").read_bytes()

    def test_special_values_written_together_match_per_row_writer(self, tmp_path,
                                                                  per_row_field_csv):
        # 9261 points: two blocks and a partial third.  Items 1 and 3 share
        # their data, and -0.0 sits next to 0.0 in the first rows of each.
        grid = GridSpec(m=3, n_steps=20)
        a, b = _special_field(grid, seed=0), _special_field(grid, seed=1)
        fields = [("1", a), ("2", b), ("3", a),
                  ("max", RateReductionField(grid, np.maximum(a.data, b.data)))]
        _write_together(tmp_path, fields)
        for label, field in fields:
            per_row_field_csv(tmp_path / "ref.csv", field, label)
            assert (tmp_path / f"new_{label}.csv").read_bytes() == \
                (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("m,n_steps", [
        (2, 10),     # 121 points: less than one block
        (2, 63),     # 4096: exactly one block
        (3, 15),     # 4096
        (4, 7),      # 4096
        (3, 20),     # 9261: two blocks and a partial third
        (4, 10),     # 14641: three blocks and a partial fourth
    ])
    def test_special_values_match_per_row_writer(self, tmp_path, m, n_steps,
                                                 per_row_field_csv):
        assert fieldcsv._CSV_BLOCK == 4096
        field = _special_field(GridSpec(m=m, n_steps=n_steps))
        fieldcsv.write_field_csv(tmp_path / "new.csv", field, "max")
        per_row_field_csv(tmp_path / "ref.csv", field, "max")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        loaded = fieldcsv.read_field_csv(tmp_path / "new.csv")
        assert np.array_equal(loaded.data.view(np.uint64), field.data.view(np.uint64))

    @pytest.mark.parametrize("axis", [1, 2])
    def test_a_2d_slice_of_a_3d_field_matches_per_row_writer(self, tmp_path, axis,
                                                              per_row_field_csv):
        # 71^2 = 5041 rows, two blocks, read in place from the 3-D field's data
        data = _special_field(GridSpec(m=3, n_steps=70)).data[(slice(None),) * axis + (21,)]
        assert data.base is not None and not data.flags.c_contiguous
        field = RateReductionField(GridSpec(m=2, n_steps=70), data)
        fieldcsv.write_field_csv(tmp_path / "new.csv", field, "max")
        per_row_field_csv(tmp_path / "ref.csv", field, "max")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_a_rho_numpy_does_not_hold_aligned_is_copied_once_per_write(
            self, tmp_path, monkeypatch, per_row_field_csv):
        # a float64 field of a record array steps 12 bytes; 71^2 = 5041 rows,
        # two blocks, each handed the same aligned copy
        grid = GridSpec(m=2, n_steps=70)
        records = np.zeros(grid.shape, dtype=[("rho", np.float64), ("tag", np.float32)])
        records["rho"] = _special_field(grid).data
        assert not records["rho"].flags.aligned
        writer, handed = envelope.compiled_csv_rows() or fieldcsv._python_rows, []

        def recording(cells, shape):
            rows = writer(cells, shape)

            def record(h, rhos, first, count):
                handed.append(rhos)
                return rows(h, rhos, first, count)
            return record
        monkeypatch.setattr(fieldcsv, "compiled_csv_rows", lambda: recording)
        fieldcsv._write_grid_csv([(tmp_path / "new.csv", "max", records["rho"])], [1, 2],
                                 entropy_grid(grid), grid)
        assert len(handed) == 2 and handed[0][0] is handed[1][0] and handed[0][0].flags.aligned
        field = RateReductionField(grid, np.ascontiguousarray(records["rho"]))
        per_row_field_csv(tmp_path / "ref.csv", field, "max")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("m,spec", [(3, "p3=0"), (3, "p1=0.47"), (2, "p2=0.5")])
    def test_slice_matches_per_row_loop(self, tmp_path, m, spec, per_row_slice_csv):
        assert cli.main(["run", "--function", "min", "--m", str(m), "--delta", "0.1",
                         "--t-max", "3", "--slice", spec, "-o", str(tmp_path)]) == 0
        md = json.loads((tmp_path / "metadata.json").read_text())
        (name,) = [a for a in md["artifacts"] if a.startswith("slice_")]
        field = fieldcsv.read_field_csv(tmp_path / "field_max.csv")
        assert (tmp_path / name).read_text() == per_row_slice_csv(
            field, md["slice"]["axis"], md["slice"]["snapped_index"], "max")

    def test_memory_stays_bounded_by_a_block(self, tmp_path, monkeypatch):
        # The special field at m=3, delta=0.04, 17,576 rows and about 1.7 MB
        # of CSV, in blocks of 256 rows: the writer peaks near 0.05 MB
        # compiled and 0.12 MB on the Python writer.  One that holds Rsum for
        # the whole field peaks near 0.34 MB on either, one that builds the
        # whole text far higher.  The library's probes and the joint entropy,
        # which a process's first write computes, run before tracing.
        monkeypatch.setattr(fieldcsv, "_CSV_BLOCK", 256)
        field = _special_field(GridSpec.from_delta(3, 0.04))
        envelope.kernel_name()
        entropy_grid(field.grid)
        tracemalloc.start()
        try:
            fieldcsv.write_field_csv(tmp_path / "field.csv", field, "max")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e5

    def test_memory_of_a_run_write_stays_bounded_by_a_block(self, tmp_path, monkeypatch):
        # The four field CSVs of a min run at m=3, delta=0.04, in one pass,
        # in blocks of 256 rows, so 69 blocks: the blocked writer peaks near
        # 0.16 MB on either row writer, the compiled one's four output
        # buffers included.  Rsum held for whole fields would add 0.6 MB,
        # whole-file text about 6 MB.  A block's text, and so the peak, does
        # not depend on how far the fields converged, so two sweeps are
        # enough.  The traced write takes about 0.02 s compiled and 0.8 s on
        # the Python writer, as tracemalloc follows each of its per-row
        # strings.
        monkeypatch.setattr(fieldcsv, "_CSV_BLOCK", 256)
        bank = run(GridSpec.from_delta(3, 0.04), builtin_table("min", 3),
                   t_max=2, eps=1e-300).bank
        fields = [(str(k), bank.field_for(k)) for k in range(1, 4)] \
            + [("max", bank.max_field())]
        tracemalloc.start()
        try:
            _write_together(tmp_path, fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e5


class TestFieldCsvWriterOnNumpy(TestFieldCsvWriter):
    """Every writer test again on the Python row writer,
    fieldcsv._python_rows, the one a host without a compiler runs: the same
    bytes and the same memory bounds."""

    @pytest.fixture(autouse=True)
    def _numpy_writer(self, numpy_kernel):
        assert envelope.compiled_csv_rows() is None


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


# ---------------------------------------------------------------------------
# "%.17g" of both row writers


def expected_text(values) -> bytes:
    return (("%.17g\n" * len(values)) % tuple(np.asarray(values).tolist())).encode()


def written_text(csv_rows, values) -> bytes:
    """The text of each value, ended by a newline, as csv_rows, a row writer
    on envelope.compiled_csv_rows' interface, writes it: the rows of a
    one-axis field whose index and grid-value cells are empty and whose
    entropy is 0, so that a row is the value and Rsum = 0 - value, after
    checking that the Rsum column is "%.17g" of lattice.gap(0, value)."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    rows = csv_rows([""] * (2 * values.size), (values.size,))
    h = np.zeros(values.size)
    [text] = rows(h, [values], 0, values.size)
    cells = [line.split(b",") for line in text.tobytes().split(b"\n")[:-1]]
    assert len(cells) == values.size
    assert b"".join(rsum + b"\n" for _, rsum in cells) == expected_text(gap(h, values))
    return b"".join(rho + b"\n" for rho, _ in cells)


def assert_matches_percent_g(g17, values, chunk=1 << 16):
    """Values taken in chunks, each written as one field."""
    values = np.asarray(values, dtype=np.float64)
    for at in range(0, values.size, chunk):
        part = values[at : at + chunk]
        got, want = g17(part), expected_text(part)
        if got != want:
            bad = [(x, g, w) for x, g, w in zip(part.tolist(), got.split(b"\n"),
                                                 want.split(b"\n")) if g != w]
            pytest.fail(f"{len(bad)} values differ from '%.17g', e.g. {bad[:5]}")


class TestPythonFormatter:
    """fieldcsv._python_rows, the writer of a host without the compiled
    library.  It spells each value by "%.17g" % itself, so these tests check
    its row layout, and the random ones take a few thousand values."""

    @pytest.fixture
    def g17(self):
        """The formatter under test, as a function from values to their
        texts, each ended by a newline."""
        return functools.partial(written_text, fieldcsv._python_rows)

    @pytest.fixture
    def draws(self):
        """How many of n random values a test takes."""
        return lambda n: min(n, 1 << 12)

    def test_random_bit_patterns(self, g17, draws):
        # Every sign and exponent, NaN payloads, subnormals: one value per
        # class here, 16 on the compiled formatter.
        values = _every_exponent(np.random.default_rng(17), draws(1 << 16) >> 12)
        assert_matches_percent_g(g17, values)

    def test_random_values_in_fixed_notation(self, g17, draws):
        assert_matches_percent_g(g17, _fixed_notation(np.random.default_rng(18), draws(1 << 19)))

    def test_powers_of_ten_and_their_neighbours(self, g17):
        powers = np.array([float(f"1e{j}") for j in range(-5, 17)])
        near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        assert_matches_percent_g(g17, np.concatenate([near, -near]))

    @pytest.mark.parametrize("x", [1e-4, 1e15])
    def test_ends_of_the_fixed_range(self, g17, x):
        assert_matches_percent_g(g17, [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf),
                                  -x, -np.nextafter(x, 0.0), -np.nextafter(x, np.inf)])

    @pytest.mark.parametrize("x, text", [
        (1e14 + 0.125, b"100000000000000.12"),   # a tie: rounds to the even digit
        (1e14 + 0.375, b"100000000000000.38"),
        (-(1e14 + 0.125), b"-100000000000000.12"),
        (5.0, b"5"),
        (0.1, b"0.10000000000000001"),
        (1e-4 * 1.5, b"0.00015000000000000001"),
    ])
    def test_known_texts(self, g17, x, text):
        assert g17([x]) == text + b"\n" == expected_text([x])

    def test_special_values(self, g17):
        tiny = np.nextafter(0.0, 1.0)
        nan_payloads = (np.array([0x7FF8000000000001, 0xFFF0000000000001,
                                  0x7FF4000000000000], np.uint64)).view(np.float64)
        assert_matches_percent_g(g17, [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny,
                                  2.2250738585072014e-308, 2.2250738585072014e-308 / 3,
                                  1.7976931348623157e308, -1.7976931348623157e308,
                                  *nan_payloads])

    def test_any_order_gives_the_same_text(self, g17):
        rng = np.random.default_rng(19)
        values = np.concatenate([rng.standard_normal(3000) * 10.0 ** rng.integers(-8, 18, 3000),
                                 [0.0, -0.0, np.inf, np.nan, 5e-324], rng.random(2000)])
        rng.shuffle(values)
        assert g17(values) == expected_text(values)

    @pytest.mark.parametrize("j", range(-3, 16))
    def test_no_double_rounds_up_to_the_next_decade(self, g17, j):
        """The 17 digits of x in [10**(j-1), 10**j) would carry to 10**17
        only if x * 10**(17-j) >= 10**17 - 1/2.  The largest double below
        10**j stays below that, so no double of the decade does."""
        power = Fraction(10) ** j
        x = float(power)
        while Fraction(x) >= power:
            x = float(np.nextafter(x, 0.0))
        assert Fraction(x) * Fraction(10) ** (17 - j) < 10**17 - Fraction(1, 2)
        assert g17([x]) == expected_text([x])

    def test_property_over_hypothesis_floats(self, g17):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.lists(st.floats(), min_size=1, max_size=40))
        def check(values):
            assert g17(values) == expected_text(values)

        check()


class TestCompiledFormatter(TestPythonFormatter):
    """Every formatter test again on the compiled library's formatter,
    through its field-CSV row writer, with every random value.  Wherever the
    C compiler the loader calls is on PATH, the library must load."""

    @pytest.fixture
    def g17(self, compiler):
        if envelope.kernel_name() != "compiled":
            pytest.fail(f"{compiler} is on PATH but the compiled library did not load")
        return functools.partial(written_text, envelope.compiled_csv_rows())

    @pytest.fixture
    def draws(self):
        return lambda n: n


# ---------------------------------------------------------------------------
# The reader


def _corrupt_field_csv(tmp_path, line, col, cell):
    """A valid m=2, N=2 field CSV with one cell replaced (line is 1-based)."""
    f = run(GridSpec.from_delta(2, 0.5), builtin_table("min", 2), t_max=1, eps=1e-6)
    path = tmp_path / "field.csv"
    fieldcsv.write_field_csv(path, f.bank.max_field(), "max")
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[col] = cell
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return path


# Blank lines at 1-based line numbers of the original file: after the
# header, around the first block boundary (lines 4096/4097), mid-file, at
# the end, and a run of them longer than a block.
BLANKS = {"none": [], "scattered": [2, 4096, 4097, 4098, 5000, -1],
          "whole-block": [3] * (fieldcsv._CSV_BLOCK + 10)}


def _python_reads_more(cell: str) -> bool:
    """Whether int() or float() may accept cell where numpy's parser does
    not: it has an underscore, or it is an integer outside int64."""
    try:
        return "_" in cell or abs(int(cell)) >= 2**63
    except ValueError:
        return False


class TestFieldCsvReader:
    def test_read_field_csv_rejects_incomplete(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "i_1,i_2,p_1,p_2,rho_1,Rsum_1\n"
            "0,0,0,0,0,0\n0,1,0,1,0,0\n1,0,1,0,0,0\n"
        )
        with pytest.raises(fieldcsv.ConfigError):
            fieldcsv.read_field_csv(path)

    @pytest.mark.parametrize("rho, rsum", [
        ("rho_max", "Rsum_7"), ("rho_1", "Rsum_max"), ("rho_", "Rsum_"), ("rho", "Rsum"),
        ("Rsum_max", "rho_max"),
    ])
    def test_read_field_csv_requires_one_label(self, tmp_path, rho, rsum):
        path = _corrupt_field_csv(tmp_path, 1, 4, rho)
        lines = path.read_text().splitlines(keepends=True)
        header = ["i_1", "i_2", "p_1", "p_2", rho, rsum]
        path.write_text(",".join(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(fieldcsv.ConfigError, match=re.escape(
                f"{path}: unexpected field CSV columns {header}")):
            fieldcsv.read_field_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_read_field_csv_rejects_non_finite_rho(self, tmp_path, cell):
        path = _corrupt_field_csv(tmp_path, 4, 4, cell)
        with pytest.raises(fieldcsv.ConfigError, match=r":4: rho .* neither finite nor -inf"):
            fieldcsv.read_field_csv(path)

    def test_read_field_csv_rejects_wrong_p_cell(self, tmp_path):
        path = _corrupt_field_csv(tmp_path, 6, 3, "0.6")   # row i = (1, 1): p_2 is 0.5
        with pytest.raises(fieldcsv.ConfigError,
                           match=r":6: p_2 = '0.6' is not the grid value 0.5"):
            fieldcsv.read_field_csv(path)

    def test_read_field_csv_rejects_wrong_rsum(self, tmp_path):
        path = _corrupt_field_csv(tmp_path, 2, 5, "0.25")  # i = (0, 0): Rsum is 0
        with pytest.raises(fieldcsv.ConfigError,
                           match=r":2: Rsum '0.25' is not the joint entropy"):
            fieldcsv.read_field_csv(path)

    @pytest.mark.parametrize("text", [
        "i_1,i_2,p_1,p_2,rho_max,Rsum_max\n0,0,0,0,0,0\n",
        "i_1,i_2,i_3,p_1,p_2,p_3,rho_1,Rsum_1\n" + "0,0,0,0,0,0,0.5,-0.5\n" * 3,
    ], ids=["one-row", "repeated-row"])
    def test_indices_that_span_no_grid_step(self, tmp_path, text, per_cell_read_field_csv):
        """Every i_j 0: the reader names the file and the cause, as the
        per-cell reference does, instead of GridSpec's n_steps message."""
        path = tmp_path / "field.csv"
        path.write_text(text)
        message = f"{path}: every i_j is 0, so the indices span no grid step"
        for read in (fieldcsv.read_field_csv, per_cell_read_field_csv):
            with pytest.raises(fieldcsv.ConfigError, match=re.escape(message) + "$"):
                read(path)

    @pytest.mark.parametrize("label", [" sp", "a\tb", "é"])
    def test_unusual_labels_round_trip(self, tmp_path, label):
        field = _field()
        fieldcsv.write_field_csv(tmp_path / "field.csv", field, label)
        loaded = fieldcsv.read_field_csv(tmp_path / "field.csv")
        assert loaded.grid == field.grid
        assert np.array_equal(loaded.data.view(np.uint64), field.data.view(np.uint64))
        fieldcsv.write_field_csv(tmp_path / "again.csv", loaded, label)
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "field.csv").read_bytes()

    def test_certify_on_a_header_that_is_not_utf8(self, tmp_path, capsys,
                                                   per_cell_read_field_csv):
        """A byte that does not decode is a ConfigError naming its file and
        line, so certify exits 2 with one error line."""
        path = tmp_path / "field_max.csv"
        path.write_bytes(b"i_1,i_2,i_3,p_1,p_2,p_3,rho_\xff,Rsum_\xff\n")
        message = f"{path}:1: not UTF-8 text: invalid start byte (byte 0xff)"
        code = cli.main(["certify", "--field", str(path), "--function", "min",
                         "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert _read_both(path, per_cell_read_field_csv) == [(None, message)] * 2

    def test_a_bad_byte_past_the_first_block_names_its_line(self, tmp_path,
                                                             per_cell_read_field_csv):
        lines = _field_csv_lines(tmp_path, 3, 20)
        lines[6999] += "\xe9"                    # Latin-1 "é" on line 7000
        path = tmp_path / "field.csv"
        path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        message = f"{path}:7000: not UTF-8 text: invalid continuation byte (byte 0xe9)"
        assert _read_both(path, per_cell_read_field_csv) == [(None, message)] * 2

    def test_read_field_csv_names_lines_past_the_first_block(self, tmp_path):
        """Errors found in a later block, with blank lines before them, still
        name their line of the file."""
        field = _special_field(GridSpec(m=3, n_steps=20))
        path = tmp_path / "field.csv"
        fieldcsv.write_field_csv(path, field, "max")
        lines = path.read_text().splitlines()
        lines[1:1] = ["", ""]                    # data rows now start at line 4
        for line_no, edit, message in [
            (9000, lambda c: c[:-1], r":9000: expected 8 cells, got 7"),
            (5000, lambda c: c[:6] + ["nan"] + c[7:], r":5000: rho 'nan' is neither"),
            (7000, lambda c: c[:3] + ["0.123"] + c[4:], r":7000: p_1 = '0.123' is not the grid"),
            (8191, lambda c: c[:7] + ["1"], r":8191: Rsum '1' is not the joint entropy"),
            (6000, lambda c: c[:1] + ["x"] + c[2:], r":6000: i_2 'x' is not an integer"),
            (6500, lambda c: c[:6] + ["abc"] + c[7:], r":6500: rho_max 'abc' is not a number"),
            (7500, lambda c: c[:7] + ["1.5x"], r":7500: Rsum_max '1.5x' is not a number"),
        ]:
            text = list(lines)
            text[line_no - 1] = ",".join(edit(text[line_no - 1].split(",")))
            path.write_text("\n".join(text) + "\n")
            with pytest.raises(fieldcsv.ConfigError, match=message):
                fieldcsv.read_field_csv(path)

    @pytest.mark.parametrize("first, last", [(3969, 4094), (4095, 4409)])
    def test_read_field_csv_rejects_p_cells_that_differ_across_blocks(self, tmp_path,
                                                                      first, last):
        """Data rows 3969-4409 have i_1 = 9.  The reader's first block is the
        file's first 4096 lines, header included, so they straddle its end.
        Rows first..last, all on one side of it, carry the same wrong p_1
        cell, so each block agrees with itself; the first of them is named."""
        path = tmp_path / "field.csv"
        fieldcsv.write_field_csv(path, _special_field(GridSpec(m=3, n_steps=20)), "max")
        lines = path.read_text().splitlines()
        for line_no in range(first + 2, last + 3):
            cells = lines[line_no - 1].split(",")
            assert cells[0] == "9"
            cells[3] = "0.45"
            lines[line_no - 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(fieldcsv.ConfigError, match=rf":{first + 2}: p_1 = '0.45' is not "
                                                  r"the grid value 0\.45000000000000001 of i_1 = 9"):
            fieldcsv.read_field_csv(path)

    @pytest.mark.parametrize("blanks", BLANKS)
    @pytest.mark.parametrize("m,n_steps", [(2, 10), (2, 63), (3, 20), (4, 10)])
    def test_valid_files_read_the_same_bits(self, tmp_path, m, n_steps, blanks,
                                            per_cell_read_field_csv):
        lines = _field_csv_lines(tmp_path, m, n_steps)
        for at in BLANKS[blanks]:
            lines.insert(len(lines) if at == -1 else min(at - 1, len(lines)), "")
        path = tmp_path / "field.csv"
        path.write_text("\n".join(lines) + "\n")
        (new, _), (ref, _) = _read_both(path, per_cell_read_field_csv)
        assert new.grid == ref.grid
        assert np.array_equal(new.data.view(np.uint64), ref.data.view(np.uint64))

    @pytest.mark.parametrize("line_no, edit", [
        (9000, lambda c: c[:-1]),                          # a cell short
        (5000, lambda c: c[:6] + ["nan"] + c[7:]),
        (7000, lambda c: c[:3] + ["0.123"] + c[4:]),
        (8191, lambda c: c[:7] + ["1"]),
        (6000, lambda c: c[:1] + ["x"] + c[2:]),
        (6500, lambda c: c[:6] + ["abc"] + c[7:]),
        (7500, lambda c: c[:7] + ["1.5x"]),
        (4097, lambda c: c + [""]),                        # trailing comma
        (4098, lambda c: c[:2] + [""] + c[3:]),            # empty i_3
        (20, lambda c: c[:6] + [""] + c[7:]),              # empty rho
        (21, lambda c: c[:7] + [""]),                      # empty Rsum
        (8000, lambda c: c[:1] + [f'"{c[1]}"'] + c[2:]),   # quoted i_2
        (30, lambda c: c[:4] + [f'"{c[4]}"'] + c[5:]),     # quoted p_2
        (31, lambda c: c[:6] + [f'"{c[6]}"'] + c[7:]),     # quoted rho
        (4200, lambda c: ["  \t "]),                       # whitespace-only line
        (9262, lambda c: c[:5] + [c[5] + "\x00"] + c[6:]),  # p_3 ending in NUL
        (40, lambda c: c[:3] + [c[3] + "€"] + c[4:]),      # p_1 outside Latin-1
        (41, lambda c: c[:3] + ["€"] + c[4:]),
        (42, lambda c: c[:2] + [c[2] + "\x00"] + c[3:]),   # i_3 ending in NUL
        (43, lambda c: c[:1] + [c[1] + "\x1f"] + c[2:]),   # numpy's whitespace, not int()'s
        (44, lambda c: c[:7] + ["\x1f" + c[7]]),
    ])
    def test_corrupt_files_raise_the_same_error(self, tmp_path, line_no, edit,
                                                per_cell_read_field_csv):
        lines = _field_csv_lines(tmp_path, 3, 20)
        lines[1:1] = ["", ""]                    # data rows now start at line 4
        lines[line_no - 1] = ",".join(edit(lines[line_no - 1].split(",")))
        path = tmp_path / "field.csv"
        path.write_text("\n".join(lines) + "\n")
        (_, new), (_, ref) = _read_both(path, per_cell_read_field_csv)
        assert ref is not None and ref.startswith(f"{path}:{line_no}: ")
        assert new == ref

    def test_read_field_csv_with_an_index_too_large_for_one_array(self, tmp_path,
                                                                  per_cell_read_field_csv):
        """The grid is inferred from the largest i_j, so an absurd one stops
        both readers at GridSpec's size guard, named with the file, before
        any row count or allocation."""
        lines = _field_csv_lines(tmp_path, 2, 10)
        cells = lines[5].split(",")
        cells[0] = str(10**10)
        lines[5] = ",".join(cells)
        path = tmp_path / "field.csv"
        path.write_text("\n".join(lines) + "\n")
        (_, new), (_, ref) = _read_both(path, per_cell_read_field_csv)
        assert new == ref
        assert new.startswith(f"{path}: m=2, n_steps=10000000000: "
                              "100,000,000,020,000,000,001 grid points")

    @pytest.mark.parametrize("col, cell, message", [
        (0, "1_0", "i_1 '1_0' is not an integer"),
        (3, "1_0", "i_4 '1_0' is not an integer"),
        (8, "1_5", "rho_max '1_5' is not a number"),
        (9, "1_5", "Rsum_max '1_5' is not a number"),
        (1, "1.0", "i_2 '1.0' is not an integer"),
    ])
    def test_read_field_csv_rejects_what_int_and_float_accept(self, tmp_path, col, cell,
                                                              message):
        """Underscores in numbers and an i_j spelled as a float: numpy's
        parser rejects them, so the reader does, at the cell's line."""
        lines = _field_csv_lines(tmp_path, 4, 10)
        cells = lines[5000].split(",")
        cells[col] = cell
        lines[5000] = ",".join(cells)
        path = tmp_path / "field.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(fieldcsv.ConfigError, match=re.escape(f"{path}:5001: {message}")):
            fieldcsv.read_field_csv(path)

    @pytest.mark.parametrize("tail", ["1", "0" * 6, "0" * 7, "x" * 40])
    def test_read_field_csv_rejects_a_p_cell_longer_than_any_grid_value(self, tmp_path, tail):
        """A p_j cell is read at a fixed width, _P_WIDTH characters; loadtxt
        cuts a longer one.  A cell that starts with the right grid value is
        named whether it fits (tails of 1 and 6) or is cut (7 and 40): the
        width is one more than the longest "%.17g" spelling of a float."""
        assert fieldcsv._P_WIDTH == len("%.17g" % -2.2250738585072014e-308) + 1
        lines = _field_csv_lines(tmp_path, 3, 20)
        cells = lines[4000].split(",")
        assert cells[3] == "0.45000000000000001"          # i_1 = 9
        cells[3] += tail
        lines[4000] = ",".join(cells)
        path = tmp_path / "field.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(fieldcsv.ConfigError, match=re.escape(
                f"{path}:4001: p_1 = {cells[3]!r} is not the grid value "
                "0.45000000000000001 of i_1 = 9")):
            fieldcsv.read_field_csv(path)

    @pytest.mark.parametrize("blank_lines", [0, 1, 3, fieldcsv._CSV_BLOCK + 5])
    def test_read_field_csv_without_data_lines(self, tmp_path, blank_lines):
        path = tmp_path / "field.csv"
        path.write_text("i_1,i_2,p_1,p_2,rho_max,Rsum_max\n" + "\n" * blank_lines)
        with pytest.raises(fieldcsv.ConfigError,
                           match=re.escape(f"{path}: field CSV has no data rows")):
            fieldcsv.read_field_csv(path)

    def test_read_field_csv_names_a_line_that_loadtxt_skips(self, tmp_path, monkeypatch):
        """Were loadtxt to skip a whitespace-only line as blank, the reader
        would still name it: every line that is not empty must become a
        row."""
        lines = _field_csv_lines(tmp_path, 2, 10)
        lines[50] = " \t "
        path = tmp_path / "field.csv"
        path.write_text("\n".join(lines) + "\n")
        loadtxt = np.loadtxt

        def skips_whitespace(text, *args, **kwargs):
            return loadtxt([line for line in text if line.strip()], *args, **kwargs)

        monkeypatch.setattr(fieldcsv.np, "loadtxt", skips_whitespace)
        with pytest.raises(fieldcsv.ConfigError,
                           match=re.escape(f"{path}:51: expected 6 cells, got 1")):
            fieldcsv.read_field_csv(path)

    def test_read_field_csv_memory_stays_bounded_by_a_block(self, tmp_path):
        # 51^3 points: per block the reader keeps only the i_j, rho and Rsum
        # columns, so it peaks near 17 MB, mostly the result and its checks.
        # Whole-file loadtxt records, p_j text included, would pass 30 MB.
        field = run(GridSpec.from_delta(3, 0.02), builtin_table("min", 3),
                    t_max=2, eps=1e-300).bank.max_field()
        fieldcsv.write_field_csv(tmp_path / "field.csv", field, "max")
        tracemalloc.start()
        try:
            loaded = fieldcsv.read_field_csv(tmp_path / "field.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.data.view(np.uint64), field.data.view(np.uint64))
        assert peak < 20e6

    def test_read_field_csv_passes_on_a_rejection_it_cannot_place(self, tmp_path, monkeypatch):
        """Were loadtxt to reject a block for a reason that no single line or
        cell shows, the error names the block's lines and keeps numpy's
        text."""
        lines = _field_csv_lines(tmp_path, 2, 10)
        path = tmp_path / "field.csv"
        path.write_text("\n".join(lines[:1] + ["", ""] + lines[1:]) + "\n")
        loadtxt = np.loadtxt

        def rejects_blocks(text, *args, **kwargs):
            if len(text) > 1:
                raise ValueError("a whole-block complaint")
            return loadtxt(text, *args, **kwargs)

        monkeypatch.setattr(fieldcsv.np, "loadtxt", rejects_blocks)
        with pytest.raises(fieldcsv.ConfigError, match=re.escape(
                f"{path}:2-124: a whole-block complaint")):
            fieldcsv.read_field_csv(path)

    def test_read_field_csv_matches_per_cell_reader_on_any_one_edit(self, tmp_path,
                                                                    per_cell_read_field_csv):
        """One cell or line replaced by arbitrary text: the reader returns
        the same bits or raises the same ConfigError as the per-cell
        reference, unless int() or float() reads the text more leniently;
        then the reader rejects it.  No error falls back to naming a whole
        block."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        lines = _field_csv_lines(tmp_path, 2, 10)
        path = tmp_path / "field.csv"
        junk = st.text(alphabet=' \t,"\x00\x1f_.+-eE0159ainfx\xe9\u20ac\u2003', max_size=8) | \
            st.sampled_from(["", " ", "1.0", "1_0", "nan", "inf", "-inf", "0x1", "1e5",
                             " 1 ", "+1", "-0", "9" * 30, "0.5", "0.5\x00", "1\x1f"])

        @hypothesis.settings(max_examples=300, deadline=None,
                             suppress_health_check=list(hypothesis.HealthCheck))
        @hypothesis.given(st.integers(1, len(lines) - 1), st.integers(-1, 5), junk)
        def check(row, col, cell):
            text = list(lines)
            cells = text[row].split(",")
            if col < 0:
                cells = [cell]
            else:
                cells[col] = cell
            text[row] = ",".join(cells)
            path.write_text("\n".join(text) + "\n")
            (new, new_error), (ref, ref_error) = _read_both(path, per_cell_read_field_csv)
            if _python_reads_more(cell):
                assert new_error is not None
            else:
                assert new_error == ref_error
                if new_error is None:
                    assert np.array_equal(new.data.view(np.uint64), ref.data.view(np.uint64))
            assert not re.search(r":\d+-\d+: ", new_error or "")

        check()


@pytest.fixture
def block_reader(numpy_kernel):
    """read_field_csv on the block reader alone, as on a host where the
    compiled library cannot be built."""
    assert envelope.compiled_csv_read() is None


@pytest.mark.usefixtures("block_reader")
class TestFieldCsvReaderOnNumpy(TestFieldCsvReader):
    """Every reader test again on the block reader alone, the one a host
    without a compiler runs: the same bits, the same errors and the same
    memory bound."""


@pytest.mark.parametrize("chunk", [None, 256, 4099])
def test_a_written_file_takes_the_compiled_reader(tmp_path, monkeypatch, compiler, chunk):
    """A file the writer wrote is read by the compiled row reader, in chunks
    of any size that holds a row, and np.loadtxt is never called."""
    assert envelope.kernel_name() == "compiled"
    if chunk is not None:
        monkeypatch.setattr(fieldcsv, "_CSV_CHUNK", chunk)
    field = _special_field(GridSpec(m=3, n_steps=20))
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
    written = _special_field(GridSpec(m=3, n_steps=20))
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
    """values spelled by "%.17g" % as rho, and reversed as Rsum, are read
    back by the compiled row reader with the bits float() reads from every
    cell, by strtod exactly where the writer does not spell the value in
    fixed notation with a non-zero digit.  The field has one axis and empty
    index and grid-value cells, so that a row is rho,Rsum."""
    assert envelope.kernel_name() == "compiled"
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    read = envelope.compiled_csv_read()([""] * (2 * values.size), (values.size,))
    text = "".join(map("%.17g,%.17g\n".__mod__, zip(values.tolist(), values[::-1].tolist())))
    text = text.encode()
    rho, rsum = np.empty(values.size), np.empty(values.size)
    slow = 2 * np.count_nonzero(~((abs(values) >= 1e-4) & (abs(values) < 1e15)))
    assert read(text, 0, rho, rsum) == (values.size, len(text), slow)
    want = np.array([[float(cell) for cell in line.split(",")]
                     for line in text.decode().splitlines()])
    assert np.array_equal(np.stack([rho, rsum], axis=1).view(np.uint64), want.view(np.uint64))


def test_written_cells_read_back_over_random_bit_patterns(compiler):
    # every sign and exponent, NaN payloads, subnormals
    assert_reads_back(_every_exponent(np.random.default_rng(31), 16))


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

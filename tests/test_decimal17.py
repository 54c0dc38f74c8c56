"""Both field-CSV row writers' "%.17g" against Python's own "%.17g" % x,
byte for byte: fieldcsv._python_rows, the writer of a host without the
compiled library, in the module-level tests, and the compiled row writer in
TestCompiledFormatter, which runs every one of them again.  _python_rows
spells each value by "%.17g" % itself, so there the tests check the row
layout, and the random ones take a few thousand values; the compiled
formatter takes all of them (the draws fixture)."""

import functools
from fractions import Fraction

import numpy as np
import pytest

from ratered import envelope, fieldcsv
from ratered.lattice import gap


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


@pytest.fixture
def g17():
    """The formatter under test, as a function from values to their texts,
    each ended by a newline; TestCompiledFormatter overrides it."""
    return functools.partial(written_text, fieldcsv._python_rows)


@pytest.fixture
def draws():
    """How many of n random values a test takes: at most 4096 on the Python
    writer; TestCompiledFormatter takes all n."""
    return lambda n: min(n, 1 << 12)


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


def test_random_bit_patterns(g17, draws):
    # Every exponent, both signs, NaN payloads, subnormals.
    bits = np.random.default_rng(17).integers(0, 2**64, size=draws(1 << 20), dtype=np.uint64)
    assert_matches_percent_g(g17, bits.view(np.float64))


def test_random_values_in_fixed_notation(g17, draws):
    # Significands at random, exponents from 2**-15 to 2**50, both signs:
    # the values around and inside 1e-4 <= |x| < 1e15.
    rng = np.random.default_rng(18)
    n = draws(1 << 19)
    bits = (rng.integers(0, 1 << 52, size=n, dtype=np.uint64)
            | (rng.integers(1023 - 15, 1023 + 51, size=n).astype(np.uint64) << np.uint64(52))
            | (rng.integers(0, 2, size=n).astype(np.uint64) << np.uint64(63)))
    assert_matches_percent_g(g17, bits.view(np.float64))


def test_powers_of_ten_and_their_neighbours(g17):
    powers = np.array([float(f"1e{j}") for j in range(-5, 17)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_matches_percent_g(g17, np.concatenate([near, -near]))


@pytest.mark.parametrize("x", [1e-4, 1e15])
def test_ends_of_the_fixed_range(g17, x):
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
def test_known_texts(g17, x, text):
    assert g17([x]) == text + b"\n" == expected_text([x])


def test_special_values(g17):
    tiny = np.nextafter(0.0, 1.0)
    nan_payloads = (np.array([0x7FF8000000000001, 0xFFF0000000000001,
                              0x7FF4000000000000], np.uint64)).view(np.float64)
    assert_matches_percent_g(g17, [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny,
                              2.2250738585072014e-308, 2.2250738585072014e-308 / 3,
                              1.7976931348623157e308, -1.7976931348623157e308,
                              *nan_payloads])


def test_any_order_gives_the_same_text(g17):
    rng = np.random.default_rng(19)
    values = np.concatenate([rng.standard_normal(3000) * 10.0 ** rng.integers(-8, 18, 3000),
                             [0.0, -0.0, np.inf, np.nan, 5e-324], rng.random(2000)])
    rng.shuffle(values)
    assert g17(values) == expected_text(values)


@pytest.mark.parametrize("j", range(-3, 16))
def test_no_double_rounds_up_to_the_next_decade(g17, j):
    """The 17 digits of x in [10**(j-1), 10**j) would carry to 10**17 only
    if x * 10**(17-j) >= 10**17 - 1/2.  The largest double below 10**j
    stays below that, so no double of the decade does."""
    power = Fraction(10) ** j
    x = float(power)
    while Fraction(x) >= power:
        x = float(np.nextafter(x, 0.0))
    assert Fraction(x) * Fraction(10) ** (17 - j) < 10**17 - Fraction(1, 2)
    assert g17([x]) == expected_text([x])


def test_property_over_hypothesis_floats(g17):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(st.floats(), min_size=1, max_size=40))
    def check(values):
        assert g17(values) == expected_text(values)

    check()


class TestCompiledFormatter:
    """Every test above on the compiled library's formatter, through its
    field-CSV row writer.  Wherever the C compiler the loader calls is on
    PATH, the library must load."""

    @pytest.fixture
    def g17(self, compiler):
        if envelope.kernel_name() != "compiled":
            pytest.fail(f"{compiler} is on PATH but the compiled library did not load")
        return functools.partial(written_text, envelope.compiled_csv_rows())

    @pytest.fixture
    def draws(self):
        return lambda n: n

    test_random_bit_patterns = staticmethod(test_random_bit_patterns)
    test_random_values_in_fixed_notation = staticmethod(test_random_values_in_fixed_notation)
    test_powers_of_ten_and_their_neighbours = staticmethod(test_powers_of_ten_and_their_neighbours)
    test_ends_of_the_fixed_range = staticmethod(test_ends_of_the_fixed_range)
    test_known_texts = staticmethod(test_known_texts)
    test_special_values = staticmethod(test_special_values)
    test_any_order_gives_the_same_text = staticmethod(test_any_order_gives_the_same_text)
    test_no_double_rounds_up_to_the_next_decade = staticmethod(
        test_no_double_rounds_up_to_the_next_decade)
    test_property_over_hypothesis_floats = staticmethod(test_property_over_hypothesis_floats)

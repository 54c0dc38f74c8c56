"""decimal17.format_g17 against Python's own "%.17g" % x, byte for byte."""

from fractions import Fraction

import numpy as np
import pytest

from ratered.decimal17 import WIDTH, format_g17


def expected_text(values) -> bytes:
    return (("%.17g\n" * len(values)) % tuple(np.asarray(values).tolist())).encode()


def formatted_text(values) -> bytes:
    """format_g17's rows, each cut at its length and ended by a newline,
    after checking that every row is its text followed by zero bytes only."""
    text, length = format_g17(values)
    assert text.shape == (len(values), WIDTH) and text.dtype == np.uint8
    assert np.array_equal(text != 0, np.arange(WIDTH) < length[:, None])
    rows = np.concatenate([text, np.full((len(values), 1), ord("\n"), np.uint8)], axis=1)
    return rows[rows != 0].tobytes()


def assert_matches_percent_g(values, chunk=1 << 16):
    """Values taken in chunks, each sorted and deduplicated by its bits as
    the field-CSV writer passes them."""
    values = np.asarray(values, dtype=np.float64)
    for at in range(0, values.size, chunk):
        part = np.unique(values[at : at + chunk].view(np.uint64)).view(np.float64)
        got, want = formatted_text(part), expected_text(part)
        if got != want:
            bad = [(x, g, w) for x, g, w in zip(part.tolist(), got.split(b"\n"),
                                                 want.split(b"\n")) if g != w]
            pytest.fail(f"{len(bad)} values differ from '%.17g', e.g. {bad[:5]}")


def test_random_bit_patterns():
    # Every exponent, both signs, NaN payloads, subnormals.
    bits = np.random.default_rng(17).integers(0, 2**64, size=1 << 20, dtype=np.uint64)
    assert_matches_percent_g(bits.view(np.float64))


def test_random_values_in_fixed_notation():
    # Significands at random, exponents from 2**-15 to 2**50, both signs:
    # the values around and inside 1e-4 <= |x| < 1e15.
    rng = np.random.default_rng(18)
    n = 1 << 19
    bits = (rng.integers(0, 1 << 52, size=n, dtype=np.uint64)
            | (rng.integers(1023 - 15, 1023 + 51, size=n).astype(np.uint64) << np.uint64(52))
            | (rng.integers(0, 2, size=n).astype(np.uint64) << np.uint64(63)))
    assert_matches_percent_g(bits.view(np.float64))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{j}") for j in range(-5, 17)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_matches_percent_g(np.concatenate([near, -near]))


@pytest.mark.parametrize("x", [1e-4, 1e15])
def test_ends_of_the_fixed_range(x):
    assert_matches_percent_g([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf),
                              -x, -np.nextafter(x, 0.0), -np.nextafter(x, np.inf)])


@pytest.mark.parametrize("x, text", [
    (1e14 + 0.125, b"100000000000000.12"),   # a tie: rounds to the even digit
    (1e14 + 0.375, b"100000000000000.38"),
    (-(1e14 + 0.125), b"-100000000000000.12"),
    (5.0, b"5"),
    (0.1, b"0.10000000000000001"),
    (1e-4 * 1.5, b"0.00015000000000000001"),
])
def test_known_texts(x, text):
    assert formatted_text([x]) == text + b"\n" == expected_text([x])


def test_special_values():
    tiny = np.nextafter(0.0, 1.0)
    nan_payloads = (np.array([0x7FF8000000000001, 0xFFF0000000000001,
                              0x7FF4000000000000], np.uint64)).view(np.float64)
    assert_matches_percent_g([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny,
                              2.2250738585072014e-308, 2.2250738585072014e-308 / 3,
                              1.7976931348623157e308, -1.7976931348623157e308,
                              *nan_payloads])


def test_any_order_gives_the_same_text():
    rng = np.random.default_rng(19)
    values = np.concatenate([rng.standard_normal(3000) * 10.0 ** rng.integers(-8, 18, 3000),
                             [0.0, -0.0, np.inf, np.nan, 5e-324], rng.random(2000)])
    rng.shuffle(values)
    assert formatted_text(values) == expected_text(values)


@pytest.mark.parametrize("j", range(-3, 16))
def test_no_double_rounds_up_to_the_next_decade(j):
    """The 17 digits of x in [10**(j-1), 10**j) would carry to 10**17 only
    if x * 10**(17-j) >= 10**17 - 1/2.  The largest double below 10**j
    stays below that, so no double of the decade does."""
    power = Fraction(10) ** j
    x = float(power)
    while Fraction(x) >= power:
        x = float(np.nextafter(x, 0.0))
    assert Fraction(x) * Fraction(10) ** (17 - j) < 10**17 - Fraction(1, 2)
    assert formatted_text([x]) == expected_text([x])


def test_property_over_hypothesis_floats():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(st.floats(), min_size=1, max_size=40))
    def check(values):
        assert formatted_text(values) == expected_text(values)

    check()

"""`"%.17g" % x` for a whole float64 array at once, byte for byte.

'%.17g' prints 1e-4 <= |x| < 1e15 in fixed notation.  For those values the
17 significant digits are computed exactly in uint64 arithmetic.  With
x = M * 2**e (M the 53-bit significand) and d = floor(log10|x|), they are

    D = round_half_even(M * 5**(16 - d) * 2**(e + 16 - d)),

and in this range e + 16 - d lies in -46..-1, so D is the 128-bit product
M * 5**(16 - d) shifted right by 1 to 46 bits.  The product is formed from
32-bit halves in two uint64 words.  Every operand is a uint64 array or an
np.uint64 constant, so no step is promoted to float64 on any numpy version.
d comes from np.log10 and is corrected where the truncated quotient shows it
off by one: floor(|x| * 10**(16 - d)) >= 10**16 holds exactly when
|x| >= 10**d.  Rounding never carries D up to 10**17 in this range.  That
would need a double less than a relative 5e-18 below a power of ten, and the
doubles next to 10**-3 .. 10**15 are further away (tests/test_decimal17.py
checks each one).

Every other value (zeros, infinities, NaN, subnormals, and the exponent
notation of |x| < 1e-4 and |x| >= 1e15) is formatted by Python's own '%'
operator, in one call per array.
"""

from __future__ import annotations

import numpy as np

# The widest '%.17g' text of a float64: "-2.2250738585072014e-308".
WIDTH = 24
# Fixed-notation values are formatted this many at a time, which bounds the
# uint64 temporaries (about 15 arrays of this length) whatever the input size.
_CHUNK = 8192

_U = np.uint64
_ONE = _U(1)
_MASK32 = _U(0xFFFFFFFF)
_SIGNIFICAND = _U((1 << 52) - 1)
_HIDDEN_BIT = _U(1 << 52)
_E8, _E16, _E17 = _U(10**8), _U(10**16), _U(10**17)
# 5**j for the scales 16 - d of d in -5..15 (d may be one off before it is
# corrected).
_POW5 = _U(5) ** np.arange(22, dtype=_U)
_LEADING_ZEROS = np.frombuffer(b"0.000", np.uint8)


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each n < 10**4 as one uint32 word (its bytes
    in writing order), and how many of them are trailing zeros (4 for 0)."""
    chars = np.empty((10, 10, 10, 10, 4), np.uint8)
    for j in range(4):
        chars[..., j] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape(
            [10 if k == j else 1 for k in range(4)])
    zero = chars.reshape(-1, 4) == ord("0")
    trailing = zero[:, 3] * (1 + zero[:, 2] * (1 + zero[:, 1] * (1 + zero[:, 0].astype(np.intp))))
    return chars.view(np.uint32).reshape(-1), trailing


_QUAD_TEXT, _QUAD_ZEROS = _quad_tables()


def format_g17(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The '%.17g' text of each value of a float64 array, as ASCII rows.

    Returns (text, length): row i of the uint8 matrix text, of shape
    (values.size, WIDTH), holds the length[i] bytes of "%.17g" % values[i]
    followed by zero bytes, which no text contains.  Any order of
    values gives the right text.  Values sorted by their bits (np.unique on a
    uint64 view) are laid out fastest: the fixed-notation ones then come in
    a few runs of equal sign and decade, each laid out by slice copies.
    """
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    text = np.zeros((values.size, WIDTH), np.uint8)
    length = np.zeros(values.size, np.intp)
    magnitude = np.abs(values)
    fixed = (magnitude >= 1e-4) & (magnitude < 1e15)
    rows = np.flatnonzero(fixed)
    for at in range(0, rows.size, _CHUNK):
        _format_fixed(values, rows[at : at + _CHUNK], text, length)
    _format_by_python(values, np.flatnonzero(~fixed), text, length)
    text *= np.arange(WIDTH) < length[:, None]
    return text, length


def _scaled(m: np.ndarray, e: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(floor(x * 10**(16 - d)), whether round-half-even rounds it up) for
    x = m * 2**e, where the product m * 5**(16 - d) is shifted right by
    d - 16 - e in 1..63 bits and its quotient fits 64 bits."""
    f = _POW5[16 - d]
    m_lo, m_hi = m & _MASK32, m >> _U(32)
    f_lo, f_hi = f & _MASK32, f >> _U(32)
    low = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo               # < 2**55: m < 2**53, f < 2**50
    lo = low + ((mid & _MASK32) << _U(32))        # the product mod 2**64
    hi = m_hi * f_hi + (mid >> _U(32)) + (lo < low).astype(_U)
    shift = (d - 16 - e).astype(_U)
    quotient = (hi << (_U(64) - shift)) | (lo >> shift)
    rest = lo & ((_ONE << shift) - _ONE)
    half = _ONE << (shift - _ONE)
    up = (rest > half) | ((rest == half) & ((quotient & _ONE) == _ONE))
    return quotient, up


def _format_fixed(values, rows, text, length) -> None:
    """Fill text and length at rows, whose values have 1e-4 <= |x| < 1e15."""
    x = values[rows]
    bits = x.view(_U)
    e = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64) - 1075   # all normal
    m = (bits & _SIGNIFICAND) | _HIDDEN_BIT
    d = np.floor(np.log10(np.abs(x))).astype(np.int64)
    quotient, up = _scaled(m, e, d)
    off = np.flatnonzero((quotient < _E16) | (quotient >= _E17))
    if off.size:
        d[off] += np.where(quotient[off] < _E16, -1, 1)
        quotient[off], up[off] = _scaled(m[off], e[off], d[off])
    digits = quotient + up
    del bits, e, m, quotient, up

    # The 17 digits as a first digit and four groups of four, one uint32 word
    # each; the first word holds "000" and the first digit.
    high = (digits // _E8).astype(np.uint32)
    low = (digits - high.astype(_U) * _E8).astype(np.uint32)
    first = high // np.uint32(10**8)
    groups = [first, *divmod(high - first * np.uint32(10**8), np.uint32(10**4)),
              *divmod(low, np.uint32(10**4))]
    words = np.empty((rows.size, 5), np.uint32)
    for j, group in enumerate(groups):
        words[:, j] = _QUAD_TEXT[group]
    chars = words.view(np.uint8)[:, 3:]
    # The last non-zero digit: trailing zeros counted group by group from the
    # right, while the groups seen so far are all zero.  The first digit is
    # never zero.
    zeros = np.zeros(rows.size, np.intp)
    all_zero = np.ones(rows.size, bool)
    for group in groups[:0:-1]:
        np.add(zeros, _QUAD_ZEROS[group], out=zeros, where=all_zero)
        all_zero &= group == 0
    last = 16 - zeros
    sign = np.signbit(x).astype(np.intp)
    length[rows] = sign + np.where(d >= 0, d + 1 + np.maximum(last - d, 0)
                                   + (last > d), 2 - d + last)

    # Runs of rows with one sign and decade; on sorted values a handful.
    key = d * 2 + sign
    starts = np.flatnonzero(np.diff(key) | (np.diff(rows) != 1)) + 1
    for a, b in zip([0, *starts.tolist()], [*starts.tolist(), rows.size]):
        s, dd = int(sign[a]), int(d[a])
        out, src = text[rows[a] : rows[a] + b - a], chars[a:b]
        if s:
            out[:, 0] = ord("-")
        if dd >= 0:
            out[:, s : s + dd + 1] = src[:, : dd + 1]
            out[:, s + dd + 1] = ord(".")
            out[:, s + dd + 2 : s + 18] = src[:, dd + 1 :]
        else:
            out[:, s : s + 1 - dd] = _LEADING_ZEROS[: 1 - dd]
            out[:, s + 1 - dd : s + 18 - dd] = src


def _format_by_python(values, rows, text, length) -> None:
    """Fill text and length at rows with Python's '%.17g', one '%' call for
    all of them."""
    if not rows.size:
        return
    joined = ("%.17g\n" * rows.size) % tuple(values[rows].tolist())
    buf = np.frombuffer(joined.encode("ascii"), np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    length[rows] = ends - starts
    for c in range(int(length[rows].max())):
        text[rows, c] = buf[np.minimum(starts + c, buf.size - 1)]

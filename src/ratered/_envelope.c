/* The compiled half of ratered: one stored node of one sweep, and the rows
   of a field CSV, written and read back.

   envelope_line is a port of the scalar reference _envelope_line in
   tests/conftest.py: Andrew's monotone chain over the non-BOTTOM cells
   (NaN counts as one), then a chord walk, with the same float operations
   in the same order.  ratered_sweep_node walks the axis lines of a strided
   source, copies the stored envelope of every line whose bits equal the
   same line of the previous source, envelopes the others with
   envelope_line, and returns the BOTTOM-aware sup-delta of the result
   against the stored envelope.

   ratered_csv_rows writes one block of one field CSV: it walks the
   row-major index of the block's rows, copies each row's index and
   grid-value cells from a table, and spells rho and Rsum by format_g17,
   byte for byte Python's "%.17g" % x.  ratered_csv_read reads such rows
   back: it walks the same index, compares each row's index and grid-value
   cells with the table, and reads rho and Rsum, taking a row only if
   format_g17 spells its values with its exact bytes.  Writer and reader
   share one 17-digit primitive, digits17: a cell in format_g17's fixed
   notation is read by comparing its digits, as one integer, with
   digits17 of a candidate double, so the reader spells nothing; strtod
   reads only the other cells, such as "0", "inf" and "1e-05", and one
   that no candidate matches.

   ratered.envelope compiles it with -ffp-contract=off, so no product is
   fused into a sum, and adopts it only after each of its three entry
   points passes its probe there. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* The envelope of the n cells v[0], v[vs], ... written to w[0], w[ws], ...;
   hx and hy hold at least n entries. */
static void envelope_line(const double *v, ptrdiff_t vs, double *w, ptrdiff_t ws,
                          ptrdiff_t n, ptrdiff_t *hx, double *hy)
{
    ptrdiff_t top = 0, a = -1, b = -1;
    for (ptrdiff_t j = 0; j < n; j++) {
        double y = v[j * vs];
        if (y == -INFINITY)
            continue;
        if (a < 0)
            a = j;
        b = j;
        while (top >= 2) {
            ptrdiff_t x1 = hx[top - 1], x0 = hx[top - 2];
            double y0 = hy[top - 2];
            if ((double)(x1 - x0) * (y - y0) - (hy[top - 1] - y0) * (double)(j - x0) >= 0.0)
                top--;
            else
                break;
        }
        hx[top] = j;
        hy[top] = y;
        top++;
    }
    if (top <= 1) {
        for (ptrdiff_t i = 0; i < n; i++)
            w[i * ws] = v[i * vs];
        return;
    }
    for (ptrdiff_t i = 0; i < a; i++)
        w[i * ws] = -INFINITY;
    for (ptrdiff_t i = b + 1; i < n; i++)
        w[i * ws] = -INFINITY;
    ptrdiff_t seg = 1, x0 = hx[0], x1 = hx[1];
    double y0 = hy[0], y1 = hy[1];
    for (ptrdiff_t i = a; i <= b; i++) {
        while (i > x1) {
            seg++;
            x0 = x1;
            y0 = y1;
            x1 = hx[seg];
            y1 = hy[seg];
        }
        if (i == x0)
            w[i * ws] = y0;
        else if (i == x1)
            w[i * ws] = y1;
        else
            w[i * ws] = y0 + (y1 - y0) * (double)(i - x0) / (double)(x1 - x0);
    }
}

static int same_bits(const double *x, ptrdiff_t xs, const double *y, ptrdiff_t ys, ptrdiff_t n)
{
    for (ptrdiff_t j = 0; j < n; j++) {
        uint64_t a, b;
        memcpy(&a, x + j * xs, sizeof a);
        memcpy(&b, y + j * ys, sizeof b);
        if (a != b)
            return 0;
    }
    return 1;
}

/* |a - b| with BOTTOM conventions, lattice.gap's: 0 where neither side is
   finite, +inf where exactly one is. */
static double distance(double a, double b)
{
    int fa = isfinite(a), fb = isfinite(b);
    if (fa && fb)
        return fabs(a - b);
    return fa != fb ? INFINITY : 0.0;
}

/* One stored node of one sweep.  src and prev (NULL for none) are m-axis
   arrays of the given shape with the given element strides (prev_strides
   is read even when prev is NULL); stored and out are C-contiguous arrays
   of that shape, stored being line by line the envelope of prev along
   axis.  Every axis line of src whose bits equal the same line of prev
   takes the same line of stored; every other line gets its envelope.
   *delta receives the largest distance of an out entry from the same
   stored entry over the enveloped lines (a copied line adds 0), and
   *enveloped how many lines were enveloped.  Returns 0, or -1 if the hull
   stack cannot be allocated. */
int ratered_sweep_node(const double *src, const double *prev, const double *stored, double *out,
                       const ptrdiff_t *shape, const ptrdiff_t *src_strides,
                       const ptrdiff_t *prev_strides, ptrdiff_t m, ptrdiff_t axis,
                       double *delta, ptrdiff_t *enveloped)
{
    ptrdiff_t n = shape[axis], lines = 1;
    *delta = 0.0;
    *enveloped = 0;
    for (ptrdiff_t j = 0; j < m; j++)
        lines *= shape[j];
    if (lines == 0)
        return 0;
    lines /= n;
    ptrdiff_t *hx = malloc((size_t)n * sizeof *hx);
    double *hy = malloc((size_t)n * sizeof *hy);
    ptrdiff_t *index = calloc((size_t)m, sizeof *index);
    ptrdiff_t *out_strides = malloc((size_t)m * sizeof *out_strides);
    if (hx == NULL || hy == NULL || index == NULL || out_strides == NULL) {
        free(hx);
        free(hy);
        free(index);
        free(out_strides);
        return -1;
    }
    for (ptrdiff_t j = m - 1, s = 1; j >= 0; j--) {
        out_strides[j] = s;
        s *= shape[j];
    }
    ptrdiff_t ss = src_strides[axis], ps = prev_strides[axis], os = out_strides[axis];
    ptrdiff_t at_src = 0, at_prev = 0, at_out = 0;
    double worst = 0.0;
    for (ptrdiff_t line = 0; line < lines; line++) {
        const double *old = stored + at_out;
        double *w = out + at_out;
        if (prev && same_bits(src + at_src, ss, prev + at_prev, ps, n)) {
            for (ptrdiff_t i = 0; i < n; i++)
                w[i * os] = old[i * os];
        } else {
            envelope_line(src + at_src, ss, w, os, n, hx, hy);
            ++*enveloped;
            for (ptrdiff_t i = 0; i < n; i++) {
                double d = distance(w[i * os], old[i * os]);
                if (d > worst)
                    worst = d;
            }
        }
        /* the next line: count up the other axes, the last one fastest */
        for (ptrdiff_t j = m - 1; j >= 0; j--) {
            if (j == axis)
                continue;
            if (++index[j] < shape[j]) {
                at_src += src_strides[j];
                at_prev += prev_strides[j];
                at_out += out_strides[j];
                break;
            }
            index[j] = 0;
            at_src -= (shape[j] - 1) * src_strides[j];
            at_prev -= (shape[j] - 1) * prev_strides[j];
            at_out -= (shape[j] - 1) * out_strides[j];
        }
    }
    *delta = worst;
    free(hx);
    free(hy);
    free(index);
    free(out_strides);
    return 0;
}

/* 5**j for j = 0..20 */
static const uint64_t POW5[21] = {
    UINT64_C(1), UINT64_C(5), UINT64_C(25), UINT64_C(125), UINT64_C(625),
    UINT64_C(3125), UINT64_C(15625), UINT64_C(78125), UINT64_C(390625),
    UINT64_C(1953125), UINT64_C(9765625), UINT64_C(48828125), UINT64_C(244140625),
    UINT64_C(1220703125), UINT64_C(6103515625), UINT64_C(30517578125),
    UINT64_C(152587890625), UINT64_C(762939453125), UINT64_C(3814697265625),
    UINT64_C(19073486328125), UINT64_C(95367431640625)};

/* 10**j for j = -4..20 at TEN[j + 4], each the double nearest to it: exact
   for j >= 0, and above 10**j for j < 0.  So no double lies in
   [10**j, TEN[j + 4]), and a double x is below 10**j exactly when
   x < TEN[j + 4]. */
static const double TEN[25] = {
    1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
    1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20};

/* The 17 digits of a double 10**d <= a < 10**(d + 1), -4 <= d <= 14:
   D = round_half_even(a * 10**(16 - d)), computed exactly in integers (Gay
   1990; Adams 2018, "Ryu").  For a = m * 2**e, m < 2**53, the product
   m * 5**(16 - d), 16 - d in 2..20, is formed exactly from 32-bit halves in
   two words and shifted right by d - 16 - e, which is in 1..46 here.
   Rounding never carries D to 10**17 (tests/test_decimal17.py checks the
   double below every power of ten), so 10**16 <= D < 10**17.  The writer
   spells a with D, and the reader compares D with a cell's digits.  The
   rounding takes no branch: whether the rest is above half is a coin toss
   on these values, which a branch would mispredict half the time. */
static uint64_t digits17(double a, int d)
{
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    uint64_t m = (bits & ((UINT64_C(1) << 52) - 1)) | (UINT64_C(1) << 52), f = POW5[16 - d];
    int shift = d - 16 - ((int)(bits >> 52) - 1075);
    uint64_t m_lo = m & 0xFFFFFFFFu, m_hi = m >> 32, f_lo = f & 0xFFFFFFFFu, f_hi = f >> 32;
    uint64_t low = m_lo * f_lo;
    uint64_t mid = m_lo * f_hi + m_hi * f_lo;          /* < 2**54 */
    uint64_t lo = low + (mid << 32);                   /* the product mod 2**64 */
    uint64_t hi = m_hi * f_hi + (mid >> 32) + (lo < low);
    uint64_t quotient = (hi << (64 - shift)) | (lo >> shift);
    uint64_t rest = lo & ((UINT64_C(1) << shift) - 1), half = UINT64_C(1) << (shift - 1);
    return quotient + ((rest > half) | ((rest == half) & quotient & 1));
}

static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The eight decimal digits of v < 10**8, two at a time from PAIRS, the
   digits of 00..99. */
static void eight_digits(uint32_t v, char *out)
{
    uint32_t a = v / 10000u, b = v % 10000u;
    memcpy(out, PAIRS + 2 * (a / 100u), 2);
    memcpy(out + 2, PAIRS + 2 * (a % 100u), 2);
    memcpy(out + 4, PAIRS + 2 * (b / 100u), 2);
    memcpy(out + 6, PAIRS + 2 * (b % 100u), 2);
}

/* "%.17g" % x as Python spells it, written to out; returns its length, at
   most 24.  For 1e-4 <= |x| < 1e15, which "%.17g" prints in fixed notation,
   the 17 correctly rounded digits are digits17(|x|, d) with
   d = floor(log10|x|).  The integer approximation 78913 / 2**18 of log10(2)
   gives floor(log10(2**k)) for the k with 2**(k-1) <= |x| < 2**k, which is
   d or d + 1, and one exact comparison with TEN tells which.  Zeros and
   infinities are spelled directly, NaN as "nan" whatever its sign bit
   (snprintf spells that one "-nan"), and everything else, the subnormals
   and the exponent notation, goes to snprintf. */
static ptrdiff_t format_g17(double x, char *out)
{
    double a = fabs(x);
    if (!(a >= 1e-4 && a < 1e15)) {
        if (isnan(x)) {
            memcpy(out, "nan", 3);
            return 3;
        }
        if (isinf(x) || a == 0.0) {
            const char *text = isinf(x) ? (x > 0 ? "inf" : "-inf") : (signbit(x) ? "-0" : "0");
            ptrdiff_t n = (ptrdiff_t)strlen(text);
            memcpy(out, text, (size_t)n);
            return n;
        }
        char text[32];
        int n = snprintf(text, sizeof text, "%.17g", x);
        memcpy(out, text, (size_t)n);
        return n;
    }
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int k = (int)((bits >> 52) & 0x7FF) - 1022;              /* 2**(k-1) <= |x| < 2**k */
    int d = (int)(((int64_t)k * 78913 + ((int64_t)1024 << 18)) >> 18) - 1024;
    if (a < TEN[d + 4])
        d--;
    uint64_t digits = digits17(a, d);

    /* the 17 digits of 10**16 <= digits < 10**17 */
    char text[17];
    uint32_t high = (uint32_t)(digits / 100000000u), low = (uint32_t)(digits % 100000000u);
    text[0] = (char)('0' + high / 100000000u);
    eight_digits(high % 100000000u, text + 1);
    eight_digits(low, text + 9);
    int last = 16;                                      /* the last non-zero digit */
    while (text[last] == '0')
        last--;
    char *p = out;
    if (signbit(x))
        *p++ = '-';
    if (d >= 0) {
        memcpy(p, text, (size_t)d + 1);
        p += d + 1;
        if (last > d) {
            *p++ = '.';
            memcpy(p, text + d + 1, (size_t)(last - d));
            p += last - d;
        }
    } else {
        *p++ = '0';
        *p++ = '.';
        for (int j = 1; j < -d; j++)
            *p++ = '0';
        memcpy(p, text, (size_t)last + 1);
        p += last + 1;
    }
    return p - out;
}

/* The field-CSV rows of flat indices first .. first + rows - 1 of an m-axis
   field with n points on every axis, in row-major order, written to out:
   per row the cells of the m indices, the cells of their m grid values,
   rho, ",", Rsum and "\n".  rho and rsum hold the rows' values.  Cell c
   of cells, the bytes starts[c] .. starts[c + 1] - 1, is the "i," cell of
   index c for c < n and the "p_i," cell of index c - n for c >= n.  out
   holds at least rows * (m * (longest "i," cell + longest "p_i," cell) +
   50) bytes, as rho and Rsum take at most 24 each.  Returns the number of
   bytes written, or -1 if the index cannot be allocated. */
ptrdiff_t ratered_csv_rows(const double *rho, const double *rsum, ptrdiff_t rows, ptrdiff_t first,
                           ptrdiff_t m, ptrdiff_t n, const char *cells, const ptrdiff_t *starts,
                           char *out)
{
    ptrdiff_t *index = malloc((size_t)(m > 0 ? m : 1) * sizeof *index);
    if (index == NULL)
        return -1;
    for (ptrdiff_t j = m - 1, at = first; j >= 0; j--) {
        index[j] = at % n;
        at /= n;
    }
    char *p = out;
    for (ptrdiff_t r = 0; r < rows; r++) {
        for (ptrdiff_t j = 0; j < 2 * m; j++) {             /* the "i," cells, then "p_i," */
            ptrdiff_t c = j < m ? index[j] : n + index[j - m];
            memcpy(p, cells + starts[c], (size_t)(starts[c + 1] - starts[c]));
            p += starts[c + 1] - starts[c];
        }
        p += format_g17(rho[r], p);
        *p++ = ',';
        p += format_g17(rsum[r], p);
        *p++ = '\n';
        for (ptrdiff_t j = m - 1; j >= 0 && ++index[j] == n; j--)
            index[j] = 0;
    }
    free(index);
    return p - out;
}

/* Whether format_g17 spells x with the len bytes at text. */
static int spells(double x, const char *text, ptrdiff_t len)
{
    char spelled[32];
    return format_g17(x, spelled) == len && memcmp(spelled, text, (size_t)len) == 0;
}

/* The eight bytes at p as one integer, p[0] in its lowest byte. */
static uint64_t eight_bytes(const char *p)
{
    const unsigned char *u = (const unsigned char *)p;
    return (uint64_t)u[0] | (uint64_t)u[1] << 8 | (uint64_t)u[2] << 16 | (uint64_t)u[3] << 24
           | (uint64_t)u[4] << 32 | (uint64_t)u[5] << 40 | (uint64_t)u[6] << 48
           | (uint64_t)u[7] << 56;
}

/* Whether the len bytes at text are exactly format_g17's spelling of a
   double; that double goes to *x.  format_g17 writes 17 significant
   digits, and 17 digits tell any two finite doubles apart, so at most one
   double is spelled by a cell, and it is the one strtod reads from it:
   whichever way it is found, the value and the verdict are strtod's.

   A cell with the layout of format_g17's fixed notation is read from its
   digits: -?, an integer part of at most 15 digits that is "0" or starts
   with a non-zero digit, and, after a point, digits that end in a non-zero
   one; "0." is followed by at most 3 zeros, and 1 to 17 digits are
   significant.  The digits after the point are read eight at a time while
   eight are left: the eight bytes, as one integer, are checked to be
   digits alone, and their digits are joined in pairs, then in fours, by
   three multiplications (Lemire 2021).  The cell's value has the decade
   d, 10**d <= |value| < 10**(d + 1), -4 <= d <= 14, and its significant
   digits, padded with zeros to 17, are a number D.  format_g17 spells a
   double x with the cell exactly when x has the cell's sign,
   TEN[d + 4] <= |x| < TEN[d + 5], and digits17(|x|, d) == D: digits are
   compared as integers, as Lemire 2021 does, and nothing is spelled.  The
   first candidate is the cell's digits as one integer over 10**k, k the
   digits after the point (Clinger 1990); the conversion and the division
   round once each, so it is a few ulps at most from x, and almost always
   x or next to it.  A candidate that is not x tells by its decade or its
   digits on which side x lies, and the next one is one ulp that way;
   three are tried.  Every other cell goes to strtod, and then to
   format_g17 and a byte comparison, and *slow counts it: exponent
   notation, inf, -inf, nan, 0 and -0, which format_g17 spells directly,
   and every cell that it does not spell.  The cell is copied and
   terminated first, so strtod reads nothing past it.  strtod's leniencies
   (leading spaces, hex floats, "5e-1", the locale's decimal point) only
   ever make a cell that is not the spelling, so they never decide a
   value. */
static int canonical_cell(const char *text, ptrdiff_t len, double *x, ptrdiff_t *slow)
{
    if (len < 1 || len > 24)
        return 0;
    const char *start = text + (text[0] == '-'), *end = text + len, *p = start, *point = NULL;
    uint64_t digits = 0;
    while (p < end && (unsigned char)(*p - '0') < 10)
        digits = 10 * digits + (uint64_t)(*p++ - '0');
    ptrdiff_t whole = p - start, k = 0;             /* the digits before and after the point */
    if (p < end && *p == '.') {
        point = p++;
        for (; end - p >= 8; p += 8) {
            uint64_t v = eight_bytes(p);
            if (((v + UINT64_C(0x4646464646464646)) | (v - UINT64_C(0x3030303030303030)))
                & UINT64_C(0x8080808080808080))
                break;
            v -= UINT64_C(0x3030303030303030);
            v = v * 10 + (v >> 8);                  /* the four pairs of digits */
            v = ((v & UINT64_C(0x000000FF000000FF)) * UINT64_C(0x000F424000000064)
                 + ((v >> 16) & UINT64_C(0x000000FF000000FF)) * UINT64_C(0x0000271000000001))
                >> 32;
            digits = 100000000u * digits + (uint32_t)v;
        }
        while (p < end && (unsigned char)(*p - '0') < 10)
            digits = 10 * digits + (uint64_t)(*p++ - '0');
        k = p - point - 1;
    }
    int lead = 0;                                   /* the zeros before a non-zero digit */
    if (whole == 1 && *start == '0')
        for (lead = 1; lead <= k && point[lead] == '0'; lead++)
            ;
    int significant = (int)(whole + k) - lead, d = (int)whole - 1 - lead;
    if (p == end && (whole == 1 || (whole > 1 && *start != '0'))   /* no superfluous 0 */
        && (point == NULL || end[-1] > '0')        /* a digit after the point, not 0 */
        && significant >= 1 && significant <= 17 && d >= -4 && d <= 14) {
        uint64_t want = digits * POW5[17 - significant] << (17 - significant);   /* D */
        double y = (double)digits / TEN[k + 4];
        uint64_t bits, sign = (uint64_t)(text[0] == '-') << 63;
        memcpy(&bits, &y, sizeof bits);
        for (int j = 0; j < 3; j++) {
            double c;
            memcpy(&c, &bits, sizeof c);
            /* the side of c on which x lies: above (1) or below (-1) */
            int side = c < TEN[d + 4] ? 1 : c >= TEN[d + 5] ? -1 : 0;
            if (side == 0) {
                uint64_t got = digits17(c, d);
                if (got == want) {
                    bits |= sign;
                    memcpy(x, &bits, sizeof bits);
                    return 1;
                }
                side = got < want ? 1 : -1;
            }
            bits += (uint64_t)(int64_t)side;
        }
    }
    char cell[32], *stop;
    memcpy(cell, text, (size_t)len);
    cell[len] = '\0';
    *x = strtod(cell, &stop);
    ++*slow;
    return stop == cell + len && spells(*x, text, len);
}

/* Reads back the rows ratered_csv_rows writes, from the size bytes at text:
   the rows of flat indices first, first + 1, ... of an m-axis field with n
   points on every axis, with cells and starts as ratered_csv_rows takes
   them.  It stops after rows rows or at the first line that text does not
   hold whole (its "\n" missing).  A row is read only if it is byte for
   byte what ratered_csv_rows writes for the values read: its 2m cells from
   the table and rho and Rsum in format_g17's spelling (canonical_cell);
   rho[r] and rsum[r] receive row r's values.  Returns the number of rows
   read, with *used the bytes they take and *slow how many of their cells
   went to strtod; -1 if a whole line is not such a row; -2 if the index
   cannot be allocated. */
ptrdiff_t ratered_csv_read(const char *text, ptrdiff_t size, ptrdiff_t first, ptrdiff_t rows,
                           ptrdiff_t m, ptrdiff_t n, const char *cells, const ptrdiff_t *starts,
                           double *rho, double *rsum, ptrdiff_t *used, ptrdiff_t *slow)
{
    ptrdiff_t *index = malloc((size_t)(m > 0 ? m : 1) * sizeof *index);
    if (index == NULL)
        return -2;
    for (ptrdiff_t j = m - 1, rest = first; j >= 0; j--) {
        index[j] = rest % n;
        rest /= n;
    }
    const char *p = text, *end = text + size;
    ptrdiff_t r = 0;
    *slow = 0;
    for (; r < rows; r++) {
        const char *nl = memchr(p, '\n', (size_t)(end - p));
        if (nl == NULL)
            break;
        for (ptrdiff_t j = 0; j < 2 * m; j++) {             /* the "i," cells, then "p_i," */
            ptrdiff_t c = j < m ? index[j] : n + index[j - m], len = starts[c + 1] - starts[c];
            if (nl - p < len || memcmp(p, cells + starts[c], (size_t)len) != 0)
                goto not_canonical;
            p += len;
        }
        const char *comma = memchr(p, ',', (size_t)(nl - p));
        if (comma == NULL || !canonical_cell(p, comma - p, rho + r, slow)
            || !canonical_cell(comma + 1, nl - comma - 1, rsum + r, slow))
            goto not_canonical;
        p = nl + 1;
        for (ptrdiff_t j = m - 1; j >= 0 && ++index[j] == n; j--)
            index[j] = 0;
    }
    free(index);
    *used = p - text;
    return r;
not_canonical:
    free(index);
    return -1;
}

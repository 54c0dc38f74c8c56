/* The compiled half of ratered: one stored node of one sweep, the rows of
   the field CSVs, written and read back, and certify's family check.

   envelope_line is a port of the scalar reference _envelope_line in
   tests/conftest.py: Andrew's monotone chain over the non-BOTTOM cells
   (NaN counts as one), then the envelope written segment by segment, each
   entry once with the reference's float operations, and the sup-delta
   from the stored envelope taken as each entry is written (put).  Every
   entry point walks its arrays by one odometer, next_index, and takes
   every BOTTOM-aware difference by gap, lattice.gap's rules.
   ratered_sweep_node walks the axis lines of a strided source, copies the
   stored envelope of every line whose bits equal the same line of the
   previous source, and envelopes the others with envelope_line.

   ratered_csv_write writes one block of every field CSV of a write in one
   pass: it walks the row-major index of the block's rows, reads the joint
   entropy h and each file's rho at their strides, so a rotated view or a
   slice is read in place, and computes Rsum = gap(h, rho).  Per row it
   spells the index and grid-value cells once (row_prefix) and copies them
   to every file, and spells rho and Rsum by format_g17, byte for byte
   Python's "%.17g" % x; a file whose rho has the bits of an earlier file's
   in the row copies that file's rho and Rsum bytes, as field_max does one
   k-file's at every point.
   ratered_csv_read reads such rows back: it walks the same index, compares
   each row's index and grid-value cells with row_prefix's spelling of
   them in one memcmp, and reads rho and Rsum, taking a row only if
   format_g17 spells its values with its exact bytes.  Writer and reader
   share one 17-digit primitive, digits17: a cell in format_g17's fixed
   notation is read by comparing its digits, as one integer, with
   digits17 of a candidate double, so the reader spells nothing; strtod
   reads only the other cells, such as "0", "inf" and "1e-05", and one
   that no candidate matches.
   ratered_family_check walks the axis lines of a field as
   ratered_sweep_node does and keeps, per axis, only the worst concavity
   defect and where it first occurs, and the worst floor gap on the
   zero-message set.

   ratered.envelope compiles it with -ffp-contract=off, so no product is
   fused into a sum, and adopts it only if all four entry points pass
   their probes there. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* a - b with lattice.gap's BOTTOM conventions: 0 where neither side is
   finite, +inf where only a is and -inf where only b is.  The sweep's
   distance of two entries is its absolute value. */
static double gap(double a, double b)
{
    int fa = isfinite(a), fb = isfinite(b);
    if (fa && fb)
        return a - b;
    return fa == fb ? 0.0 : fa ? INFINITY : -INFINITY;
}

/* Writes y to *w; returns the larger of worst and |gap(y, old)|, which is
   never NaN, so the largest over a line is the same in any order. */
static inline double put(double *w, double y, double old, double worst)
{
    *w = y;
    double d = fabs(gap(y, old));
    return d > worst ? d : worst;
}

/* The envelope of the n cells v[0], v[vs], ... written to w[0], w[ws], ...
   once each: a line of at most one finite cell copied, any other BOTTOM
   outside its first and last finite cells a and b, then each hull segment
   (x0, y0) - (x1, y1) as y0 and its chord, then the last vertex.  Returns
   the larger of worst and the largest |gap| of w from old, which has w's
   stride.  hx and hy hold at least n entries. */
static double envelope_line(const double *v, ptrdiff_t vs, const double *old, double *w,
                            ptrdiff_t ws, ptrdiff_t n, ptrdiff_t *hx, double *hy, double worst)
{
    ptrdiff_t a = 0, top = 1;
    while (a < n && v[a * vs] == -INFINITY)
        a++;
    if (a < n) {
        hx[0] = a;
        hy[0] = v[a * vs];
    }
    for (ptrdiff_t j = a + 1; j < n; j++) {
        double y = v[j * vs];
        if (y == -INFINITY)
            continue;
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
    if (top <= 1) {                         /* no finite cell, or one */
        for (ptrdiff_t i = 0; i < n; i++)
            worst = put(w + i * ws, v[i * vs], old[i * ws], worst);
        return worst;
    }
    ptrdiff_t b = hx[top - 1];
    for (ptrdiff_t i = 0; i < a; i++)
        worst = put(w + i * ws, -INFINITY, old[i * ws], worst);
    for (ptrdiff_t i = b + 1; i < n; i++)
        worst = put(w + i * ws, -INFINITY, old[i * ws], worst);
    for (ptrdiff_t s = 1; s < top; s++) {
        ptrdiff_t x0 = hx[s - 1], x1 = hx[s];
        double y0 = hy[s - 1], y1 = hy[s];
        worst = put(w + x0 * ws, y0, old[x0 * ws], worst);
        for (ptrdiff_t i = x0 + 1; i < x1; i++)
            worst = put(w + i * ws, y0 + (y1 - y0) * (double)(i - x0) / (double)(x1 - x0),
                        old[i * ws], worst);
    }
    return put(w + b * ws, hy[top - 1], old[b * ws], worst);
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

/* The walk of every strided entry point over an m-axis index of the given
   shape: k arrays walked together, offset[a] being array a's element
   offset at index and strides[a * m + j] its element stride along axis j.
   next_index steps index to the next one in C order over every axis but
   skip (-1 for none), the last axis fastest; after the last index it is
   back at the first.  Each array's stride is added on the common path, and
   an axis is rewound only where it wraps. */
static inline void next_index(const ptrdiff_t *shape, ptrdiff_t m, ptrdiff_t skip,
                              ptrdiff_t *index, ptrdiff_t *offset, const ptrdiff_t *strides,
                              ptrdiff_t k)
{
    for (ptrdiff_t j = m - 1; j >= 0; j--) {
        if (j == skip)
            continue;
        if (++index[j] < shape[j]) {
            for (ptrdiff_t a = 0; a < k; a++)
                offset[a] += strides[a * m + j];
            return;
        }
        index[j] = 0;
        for (ptrdiff_t a = 0; a < k; a++)
            offset[a] -= (shape[j] - 1) * strides[a * m + j];
    }
}

/* Sets index to flat row first of that walk over every axis, and each
   array's offset with it. */
static void seek_index(ptrdiff_t first, const ptrdiff_t *shape, ptrdiff_t m, ptrdiff_t *index,
                       ptrdiff_t *offset, const ptrdiff_t *strides, ptrdiff_t k)
{
    for (ptrdiff_t j = m - 1; j >= 0; j--) {
        index[j] = first % shape[j];
        first /= shape[j];
    }
    for (ptrdiff_t a = 0; a < k; a++) {
        offset[a] = 0;
        for (ptrdiff_t j = 0; j < m; j++)
            offset[a] += index[j] * strides[a * m + j];
    }
}

/* One stored node of one sweep.  src and prev (NULL for none) are m-axis
   arrays of the given shape, and stored and out C-contiguous ones, stored
   being line by line the envelope of prev along axis.  strides holds the
   element strides of src, prev and out as next_index takes them (prev's
   are read even when prev is NULL); stored has out's.  Every axis line of
   src whose bits equal the same line of prev takes the same line of
   stored; every other line gets its envelope.  *delta receives the largest
   |gap| of an out entry from the same stored entry over the enveloped
   lines (a copied line adds 0), and *enveloped how many lines were
   enveloped.  Returns 0, or -1 if the hull stack cannot be allocated. */
int ratered_sweep_node(const double *src, const double *prev, const double *stored, double *out,
                       const ptrdiff_t *shape, const ptrdiff_t *strides, ptrdiff_t m,
                       ptrdiff_t axis, double *delta, ptrdiff_t *enveloped)
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
    if (hx == NULL || hy == NULL || index == NULL) {
        free(hx);
        free(hy);
        free(index);
        return -1;
    }
    ptrdiff_t at[3] = {0, 0, 0};            /* the line's offset in src, prev and out */
    ptrdiff_t ss = strides[axis], ps = strides[m + axis], os = strides[2 * m + axis];
    double worst = 0.0;
    for (ptrdiff_t line = 0; line < lines; line++) {
        const double *old = stored + at[2];
        double *w = out + at[2];
        if (prev && same_bits(src + at[0], ss, prev + at[1], ps, n)) {
            for (ptrdiff_t i = 0; i < n; i++)
                w[i * os] = old[i * os];
        } else {
            worst = envelope_line(src + at[0], ss, old, w, os, n, hx, hy, worst);
            ++*enveloped;
        }
        next_index(shape, m, axis, index, at, strides, 3);
    }
    *delta = worst;
    free(hx);
    free(hy);
    free(index);
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
   Rounding never carries D to 10**17, so 10**16 <= D < 10**17
   (tests/test_fieldcsv.py::TestCompiledFormatter::
   test_no_double_rounds_up_to_the_next_decade checks the double below
   every power of ten).  The writer spells a with D, and the reader
   compares D with a cell's digits.  The rounding takes no branch: whether
   the rest is above half is a coin toss on these values, which a branch
   would mispredict half the time. */
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

/* The cells of a row before rho, the "i," cell of each of its m indices
   and then the "p_i," cell of each of their grid values, written at out;
   returns their length.  Every axis of shape has n = shape[0] points, and
   cell c of cells, the bytes starts[c] .. starts[c + 1] - 1, is the "i,"
   cell of index c for c < n and the "p_i," cell of index c - n for c >= n.
   The writer copies each row's cells to every file, and the reader
   compares a row's with them in one call. */
static inline ptrdiff_t row_prefix(const ptrdiff_t *index, const ptrdiff_t *shape, ptrdiff_t m,
                                   const char *cells, const ptrdiff_t *starts, char *out)
{
    char *p = out;
    for (ptrdiff_t j = 0; j < 2 * m; j++) {
        ptrdiff_t c = j < m ? index[j] : shape[j - m] + index[j - m];
        memcpy(p, cells + starts[c], (size_t)(starts[c + 1] - starts[c]));
        p += starts[c + 1] - starts[c];
    }
    return p - out;
}

/* One block of the field CSVs of files m-axis fields of the given shape,
   written in one pass: the rows of flat indices first .. first + rows - 1,
   in row-major order.  fields[0] is the joint entropy h and fields[f + 1]
   the rho of file f; strides[f * m + j] is the element stride of fields[f]
   along axis j, so a view is read in place.  Row r of file f is
   row_prefix's cells, its rho, ",", its Rsum = gap(h, rho) and
   "\n", in format_g17's spelling, written at out + f * capacity on; sizes[f]
   receives the bytes of file f.  A row's prefix is spelled once and copied
   to every file, and a file whose rho has the bits of an earlier file's in
   the row copies that file's rho and Rsum bytes, as both are functions of
   those bits and h.  capacity is at least rows * (m * (longest "i," cell +
   longest "p_i," cell) + 50) bytes, as rho and Rsum take at most 24 each.
   Returns 0, or -1 if the index cannot be allocated. */
int ratered_csv_write(const double *const *fields, const ptrdiff_t *shape,
                      const ptrdiff_t *strides, ptrdiff_t m, ptrdiff_t files, ptrdiff_t first,
                      ptrdiff_t rows, const char *cells, const ptrdiff_t *starts, char *out,
                      ptrdiff_t capacity, ptrdiff_t *sizes)
{
    /* the row's index, each field's element offset, and per file its rho
       and where its rho and Rsum bytes start and end, the end of its bytes
       so far */
    ptrdiff_t *index = malloc((size_t)(m + files + 1) * sizeof *index), *offset = index + m;
    double *value = malloc((size_t)files * sizeof *value);
    char **cell = malloc((size_t)(2 * files) * sizeof *cell), **cell_end = cell + files;
    char *prefix = malloc((size_t)(m * starts[2 * shape[0]] + 1));
    if (index == NULL || value == NULL || cell == NULL || prefix == NULL) {
        free(index);
        free(value);
        free(cell);
        free(prefix);
        return -1;
    }
    seek_index(first, shape, m, index, offset, strides, files + 1);
    for (ptrdiff_t f = 0; f < files; f++)
        cell_end[f] = out + f * capacity;
    for (ptrdiff_t r = 0; r < rows; r++) {
        ptrdiff_t len = row_prefix(index, shape, m, cells, starts, prefix);
        double h = fields[0][offset[0]];
        for (ptrdiff_t f = 0; f < files; f++) {
            char *p = cell_end[f];
            memcpy(p, prefix, (size_t)len);
            p += len;
            double x = fields[f + 1][offset[f + 1]];
            ptrdiff_t g = 0;
            while (g < f && memcmp(&value[g], &x, sizeof x) != 0)
                g++;
            value[f] = x;
            cell[f] = p;
            if (g < f) {
                memcpy(p, cell[g], (size_t)(cell_end[g] - cell[g]));
                p += cell_end[g] - cell[g];
            } else {
                p += format_g17(x, p);
                *p++ = ',';
                p += format_g17(gap(h, x), p);
                *p++ = '\n';
            }
            cell_end[f] = p;
        }
        next_index(shape, m, -1, index, offset, strides, files + 1);
    }
    for (ptrdiff_t f = 0; f < files; f++)
        sizes[f] = cell_end[f] - (out + f * capacity);
    free(index);
    free(value);
    free(cell);
    free(prefix);
    return 0;
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

/* Reads back the rows ratered_csv_write writes, from the size bytes at
   text: the rows of flat indices first, first + 1, ... of an m-axis field
   of the given shape, with cells and starts as row_prefix takes them.  It
   stops after rows rows or at the first line that text does not hold whole
   (its "\n" missing).  A row is read only if it is byte for byte what
   ratered_csv_write writes for the values read: its 2m cells as row_prefix
   spells them and rho and Rsum in format_g17's spelling (canonical_cell);
   rho[r] and rsum[r] receive row r's values.  Returns the number of rows
   read, with *used the bytes they take and *slow how many of their cells
   went to strtod; -1 if a whole line is not such a row; -2 if the index
   cannot be allocated. */
ptrdiff_t ratered_csv_read(const char *text, ptrdiff_t size, const ptrdiff_t *shape, ptrdiff_t m,
                           ptrdiff_t first, ptrdiff_t rows, const char *cells,
                           const ptrdiff_t *starts, double *rho, double *rsum, ptrdiff_t *used,
                           ptrdiff_t *slow)
{
    ptrdiff_t *index = malloc((size_t)(m > 0 ? m : 1) * sizeof *index);
    char *prefix = malloc((size_t)(m * starts[2 * shape[0]] + 1));
    if (index == NULL || prefix == NULL) {
        free(index);
        free(prefix);
        return -2;
    }
    seek_index(first, shape, m, index, NULL, NULL, 0);
    const char *p = text, *end = text + size;
    ptrdiff_t r = 0;
    *slow = 0;
    for (; r < rows; r++) {
        const char *nl = memchr(p, '\n', (size_t)(end - p));
        if (nl == NULL)
            break;
        ptrdiff_t len = row_prefix(index, shape, m, cells, starts, prefix);
        if (nl - p < len || memcmp(p, prefix, (size_t)len) != 0)
            goto not_canonical;
        p += len;
        const char *comma = memchr(p, ',', (size_t)(nl - p));
        if (comma == NULL || !canonical_cell(p, comma - p, rho + r, slow)
            || !canonical_cell(comma + 1, nl - comma - 1, rsum + r, slow))
            goto not_canonical;
        p = nl + 1;
        next_index(shape, m, -1, index, NULL, NULL, 0);
    }
    free(index);
    free(prefix);
    *used = p - text;
    return r;
not_canonical:
    free(index);
    free(prefix);
    return -1;
}

/* The family check of certify.check_membership on one m-axis field of the
   given shape, read in place with the given element strides, as
   ratered_sweep_node reads its source; h, the joint entropy, and mask, the
   zero-message set, are C-contiguous arrays of that shape.

   For each axis a, worst[a] receives the largest concavity defect along
   axis a, by envelope.concavity_defects' rules, and where[a] the first flat
   index where it occurs in the C order of the field with axis a moved last,
   the order of the lines walked here: a line whose finite entries (+inf and
   NaN are not finite) have a hole inside their span has the defect +inf at
   its first hole; any other line has (a + c) - 2.0 * b, NaN counted as
   +inf, at each index b inside its finite span; every other entry is
   BOTTOM.  worst[m] receives the largest floor gap gap(h, F) over the
   points of mask, lattice.gap's h - F or +inf where F is not finite, and
   where[m] the first such point's flat index in C order, or -1 where mask
   holds none.  A later index takes over only when it is strictly larger,
   so every location is the first, as np.argmax gives it.  Returns 0, or -1
   if the index cannot be allocated. */
int ratered_family_check(const double *field, const ptrdiff_t *shape, const ptrdiff_t *strides,
                         ptrdiff_t m, const double *h, const unsigned char *mask,
                         double *worst, ptrdiff_t *where)
{
    ptrdiff_t points = 1;
    for (ptrdiff_t j = 0; j < m; j++)
        points *= shape[j];
    ptrdiff_t *index = calloc((size_t)m, sizeof *index);
    if (index == NULL)
        return -1;
    for (ptrdiff_t axis = 0; axis < m; axis++) {
        ptrdiff_t n = shape[axis], s = strides[axis], at = 0, best_at = 0;
        double best = -INFINITY;
        for (ptrdiff_t start = 0; start < points; start += n) {
            const double *v = field + at;
            ptrdiff_t lo = -1, hi = -1, hole = -1;
            for (ptrdiff_t i = 0; i < n; i++) {
                if (!isfinite(v[i * s]))
                    continue;
                if (lo < 0)
                    lo = i;
                else if (hole < 0 && hi < i - 1)
                    hole = hi + 1;
                hi = i;
            }
            if (hole >= 0) {
                if (INFINITY > best) {
                    best = INFINITY;
                    best_at = start + hole;
                }
            } else {
                for (ptrdiff_t i = lo + 1; i < hi; i++) {
                    double d = (v[(i - 1) * s] + v[(i + 1) * s]) - 2.0 * v[i * s];
                    if (isnan(d))
                        d = INFINITY;
                    if (d > best) {
                        best = d;
                        best_at = start + i;
                    }
                }
            }
            next_index(shape, m, axis, index, &at, strides, 1);
        }
        worst[axis] = best;
        where[axis] = best_at;
    }
    double top = -INFINITY;
    ptrdiff_t top_at = -1, at = 0;
    for (ptrdiff_t p = 0; p < points; p++) {
        if (mask[p]) {
            double g = gap(h[p], field[at]);
            if (top_at < 0 || g > top) {
                top = g;
                top_at = p;
            }
        }
        next_index(shape, m, -1, index, &at, strides, 1);
    }
    worst[m] = top;
    where[m] = top_at;
    free(index);
    return 0;
}

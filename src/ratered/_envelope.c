/* One stored node of one sweep: upper concave envelopes of the axis lines
   of a float64 field.

   envelope_line is a port of the scalar reference _envelope_line in
   tests/conftest.py: Andrew's monotone chain over the non-BOTTOM cells
   (NaN counts as one), then a chord walk, with the same float operations
   in the same order.  ratered_sweep_node, the one entry point, walks the
   axis lines of a strided source, copies the stored envelope of every
   line whose bits equal the same line of the previous source, envelopes
   the others with envelope_line, and returns the BOTTOM-aware sup-delta
   of the result against the stored envelope.

   ratered.envelope compiles it with -ffp-contract=off, so no product is
   fused into a sum, and adopts it only after it reproduces the numpy
   path's bits on a probe. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
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

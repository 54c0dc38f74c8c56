/* Upper concave envelope of every row of a C-contiguous (rows, n) float64
   buffer, written to a second buffer of the same shape.

   A port of the scalar reference _envelope_line in tests/conftest.py:
   Andrew's monotone chain over the non-BOTTOM cells (NaN counts as one),
   then a chord walk, with the same float operations in the same order.
   ratered.envelope compiles it with -ffp-contract=off, so no product is
   fused into a sum, and adopts it only after it reproduces the numpy
   kernel's bits on a probe batch.  Returns 0, or -1 if the hull stack
   cannot be allocated. */

#include <math.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

int ratered_envelope_rows(const double *in, double *out, ptrdiff_t rows, ptrdiff_t n)
{
    if (rows <= 0 || n <= 0)
        return 0;
    ptrdiff_t *hx = malloc((size_t)n * sizeof *hx);
    double *hy = malloc((size_t)n * sizeof *hy);
    if (hx == NULL || hy == NULL) {
        free(hx);
        free(hy);
        return -1;
    }
    for (ptrdiff_t r = 0; r < rows; r++) {
        const double *v = in + r * n;
        double *w = out + r * n;
        ptrdiff_t top = 0, a = -1, b = -1;
        for (ptrdiff_t j = 0; j < n; j++) {
            double y = v[j];
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
            memcpy(w, v, (size_t)n * sizeof *w);
            continue;
        }
        for (ptrdiff_t i = 0; i < a; i++)
            w[i] = -INFINITY;
        for (ptrdiff_t i = b + 1; i < n; i++)
            w[i] = -INFINITY;
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
                w[i] = y0;
            else if (i == x1)
                w[i] = y1;
            else
                w[i] = y0 + (y1 - y0) * (double)(i - x0) / (double)(x1 - x0);
        }
    }
    free(hx);
    free(hy);
    return 0;
}

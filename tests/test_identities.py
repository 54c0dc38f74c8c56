"""Identities the infinite-message limit obeys, checked exactly on the
converged max field of both kernels.

Every run is at delta = 0.1 for (m-1)*N + 1 sweeps.  Only identities that
hold bit for bit on the sampled grid are here:

- relabelling the function's outputs (1 - f) changes no rate, so the max
  field keeps every bit;
- a refinement of f (min + max refines min) needs at least f's rate, so its
  rate reduction is nowhere larger and it is BOTTOM wherever f's is.

Permuting the inputs is left out: the joint entropy sums the marginals in
axis order, so a permuted field can differ from the original in the last
ulps (swapping the first two inputs of min does, at m = 3 and 4).
"""

import itertools

import numpy as np
import pytest

from ratered.lattice import gap, run
from ratered.probability import GridSpec
from ratered.target_functions import BUILTIN_NAMES, FunctionTable, builtin_table
from test_lattice import SELECTOR3, SELECTOR4

FUNCTIONS = [builtin_table(name, m) for m in (2, 3, 4) for name in BUILTIN_NAMES]
FUNCTIONS += [SELECTOR3, SELECTOR4]
IDS = [f"{name}-m{m}" for m in (2, 3, 4) for name in BUILTIN_NAMES]
IDS += ["selector-m3", "selector-m4"]


def _relabelled(f, label):
    table = {x: label(z) for x, z in f.table.items()}
    return FunctionTable(m=f.m, output_alphabet=tuple(sorted(set(table.values()))), table=table)


def _max_field(f):
    grid = GridSpec.from_delta(f.m, 0.1)
    return run(grid, f, t_max=(f.m - 1) * grid.n_steps + 1, eps=1e-300).bank.max_data()


@pytest.mark.parametrize("f", FUNCTIONS, ids=IDS)
def test_relabelled_outputs_give_the_same_bits(f, kernel):
    got = _max_field(_relabelled(f, lambda z: 1 - z))
    assert np.array_equal(got.view(np.uint64), _max_field(f).view(np.uint64))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_a_refinement_reduces_no_more(m, kernel):
    coarse = _max_field(builtin_table("min", m))
    table = {x: min(x) + max(x) for x in itertools.product((0, 1), repeat=m)}
    refined = _max_field(FunctionTable(m=m, output_alphabet=(0, 1, 2), table=table))
    assert gap(refined, coarse).max() <= 0.0
    assert not np.isfinite(refined[~np.isfinite(coarse)]).any()

"""Certify a rate-reduction functional and turn it into sum-rate bounds.

A field earns a certificate when (a) on every grid pmf where the target is
already almost surely constant it sits at or above the full joint entropy,
and (b) along every axis-parallel grid line it is concave with contiguous
finite support.  Checking (a) only on that zero-message set suffices: the
joint entropy itself bounds the zero-message field everywhere else because
the field is BOTTOM there.

Condition (b) is read from envelope.concavity_defects, one whole-array pass
per axis.  A second difference that overflows to NaN (inf - inf, say, from
values near 1e308) counts as an infinite defect: a line whose concavity
cannot be computed fails at every finite tolerance instead of being skipped.

A certified field yields a pointwise lower bound on the infinite-message
minimum sum-rate, and comparing a certified candidate against an achieved
field gives a numeric optimality verdict.  Everything here is at grid
resolution: the report carries the grid step and tolerance so it cannot be
mistaken for a continuum proof.  The report also carries the SHA-256 of the
field's data bytes, and a bound is drawn only from the field it was issued
for.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .envelope import BOTTOM, concavity_defects
from .errors import ConfigError, NotCertifiedError
from .lattice import RateReductionField, entry_distance, zero_message_mask
from .probability import GridIndex, ProductPmf, entropy_grid, product_entropy
from .target_functions import FunctionTable


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the family check for one field at one tolerance."""

    majorization_ok: bool
    worst_majorization_gap: float
    majorization_location: GridIndex | None
    concavity_ok_per_axis: tuple[bool, ...]
    worst_concavity_violation: float
    concavity_axis: int                      # 1-based; 0 if nothing measured
    concavity_location: GridIndex | None
    tol: float
    delta: float
    m: int
    n_steps: int
    field_sha256: str                        # of the checked field's data bytes

    @property
    def passed(self) -> bool:
        return self.majorization_ok and all(self.concavity_ok_per_axis)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, **asdict(self)}


def field_digest(data: np.ndarray) -> str:
    """SHA-256 of a field's float64 data bytes in C order."""
    # Imported on first use: loading hashlib (OpenSSL) takes about 3 ms,
    # which every import of ratered would otherwise pay.
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(data, dtype=np.float64)).hexdigest()


def check_membership(
    field: RateReductionField, f: FunctionTable, tol: float
) -> MembershipReport:
    """Family check: entropy majorization on the zero-message set plus
    per-axis concavity with contiguous finite support.

    An axis passes when its largest defect is at most tol.  The reported
    location is the first largest defect in C order over (line, index) of
    the first axis that attains the overall maximum.
    """
    grid = field.grid
    if f.m != grid.m:
        raise ValueError(f"function arity {f.m} != grid m={grid.m}")
    if not tol >= 0.0:
        raise ConfigError(f"tol must be >= 0, got {tol}")

    mask = zero_message_mask(grid, f)
    h = entropy_grid(grid)
    # finite - (-inf) = +inf, so a BOTTOM field value on the set fails loudly
    gaps = h[mask] - field.data[mask]
    where = np.argwhere(mask)
    j = int(np.argmax(gaps))
    worst_gap = float(gaps[j])
    gap_loc = tuple(int(c) for c in where[j])
    majorization_ok = worst_gap <= tol

    per_axis_ok: list[bool] = []
    worst_violation = BOTTOM
    worst_axis = 0
    worst_loc: GridIndex | None = None
    for ax in range(grid.m):
        defects = concavity_defects(np.moveaxis(field.data, ax, -1))
        flat = int(np.argmax(defects))
        violation = float(defects.reshape(-1)[flat])
        per_axis_ok.append(violation <= tol)
        if violation > worst_violation:
            loc = [int(c) for c in np.unravel_index(flat, defects.shape)]
            loc.insert(ax, loc.pop())
            worst_violation = violation
            worst_axis = ax + 1
            worst_loc = tuple(loc)

    return MembershipReport(
        majorization_ok=majorization_ok,
        worst_majorization_gap=worst_gap,
        majorization_location=gap_loc,
        concavity_ok_per_axis=tuple(per_axis_ok),
        worst_concavity_violation=worst_violation,
        concavity_axis=worst_axis,
        concavity_location=worst_loc,
        tol=tol,
        delta=grid.delta,
        m=grid.m,
        n_steps=grid.n_steps,
        field_sha256=field_digest(field.data),
    )


def lower_bound_from(
    field: RateReductionField, p: ProductPmf, report: MembershipReport
) -> float:
    """Lower bound on the infinite-message minimum sum-rate at p:
    joint entropy minus the certified field's value (BOTTOM gives +inf,
    as finite - (-inf) = +inf).

    Valid up to the report's tol and grid-resolution caveats; requires a
    passing report issued for this very field: same grid, same data bytes.
    """
    grid = field.grid
    if report.verdict != "pass":
        raise NotCertifiedError(
            "field failed the family check; no lower bound is implied"
        )
    if report.m != grid.m or report.n_steps != grid.n_steps:
        raise NotCertifiedError(
            f"report was issued for m={report.m}, n_steps={report.n_steps}, "
            f"not for this field's grid (m={grid.m}, n_steps={grid.n_steps})"
        )
    digest = field_digest(field.data)
    if report.field_sha256 != digest:
        raise NotCertifiedError(
            f"report was issued for the field with SHA-256 {report.field_sha256}, "
            f"not for this field (SHA-256 {digest})"
        )
    index = grid.snap(tuple(p))
    exact = grid.axis_values()
    if any(abs(pj - exact[i]) > 1e-12 for pj, i in zip(p, index)):
        raise ValueError(f"pmf {tuple(p)} is not a grid point at delta={grid.delta}")
    return product_entropy(p) - field.value_at(index)


@dataclass(frozen=True)
class OptimalityVerdict:
    """Outcome of comparing a certified candidate to an achieved field."""

    status: str                          # "optimal within tol" | "not matching" | "family-fail"
    family_report: MembershipReport
    worst_gap: float
    gap_location: GridIndex | None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "worst_gap": self.worst_gap,
            "gap_location": self.gap_location,
            "family_report": self.family_report.to_dict(),
        }


def assess_optimality(
    candidate: RateReductionField,
    achieved: RateReductionField,
    f: FunctionTable,
    tol: float,
) -> OptimalityVerdict:
    """Certify the candidate, then measure its sup distance to the achieved
    field (lattice.entry_distance: BOTTOM agreeing on both sides counts as
    zero, a BOTTOM/finite mismatch as infinite)."""
    if candidate.grid != achieved.grid:
        raise ValueError("candidate and achieved fields are on different grids")
    report = check_membership(candidate, f, tol)

    diff = entry_distance(candidate.data, achieved.data)
    flat = int(np.argmax(diff))
    worst_gap = float(diff.reshape(-1)[flat])
    location = tuple(int(c) for c in np.unravel_index(flat, diff.shape))

    if not report.passed:
        status = "family-fail"
    elif worst_gap <= tol:
        status = "optimal within tol"
    else:
        status = "not matching"
    return OptimalityVerdict(
        status=status,
        family_report=report,
        worst_gap=worst_gap,
        gap_location=location,
    )

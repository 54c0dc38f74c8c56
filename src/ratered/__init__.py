"""Sum-rates of interactively computed functions on product-pmf grids.

The core object is a rate-reduction field: the bits saved versus losslessly
reproducing all sources, sampled on a dense grid of product pmfs, with -inf
(BOTTOM) marking pmfs where the target cannot yet be computed.  Fields are
grown by per-axis upper concave envelopes, certified against an entropy
floor and per-axis concavity, and cross-checked by an independent
brute-force single-message search.
"""

from .certify import (
    MembershipReport,
    OptimalityVerdict,
    assess_optimality,
    check_membership,
    lower_bound_from,
)
from .envelope import (
    BOTTOM,
    concavity_violation,
    envelope_batch,
    is_concave,
    upper_concave_envelope,
)
from .errors import ConfigError, NotCertifiedError
from .lattice import (
    ConvergenceTrace,
    FieldBank,
    RateReductionField,
    RunResult,
    axis_convexify,
    bank_sup_delta,
    convexify_axes,
    cross_k_gap,
    initial_bank,
    initial_field,
    next_node,
    run,
    sum_rate_field,
    sup_delta,
    sweep_once,
    zero_message_mask,
)
from .oracle import (
    ComparisonReport,
    ComparisonRow,
    ConditionalSearchSpec,
    compare_with_envelope,
    resolution_slack,
    single_message_reduction,
)
from .probability import (
    GridSpec,
    ProductPmf,
    binary_entropy,
    entropy_grid,
    grid_points,
    product_entropy,
)
from .target_functions import (
    BUILTIN_NAMES,
    FunctionTable,
    builtin_table,
    computable_with_zero_messages,
    load_table,
)

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "BUILTIN_NAMES",
    "ComparisonReport",
    "ComparisonRow",
    "ConditionalSearchSpec",
    "ConfigError",
    "ConvergenceTrace",
    "FieldBank",
    "FunctionTable",
    "GridSpec",
    "MembershipReport",
    "NotCertifiedError",
    "OptimalityVerdict",
    "ProductPmf",
    "RateReductionField",
    "RunResult",
    "assess_optimality",
    "axis_convexify",
    "bank_sup_delta",
    "binary_entropy",
    "builtin_table",
    "check_membership",
    "compare_with_envelope",
    "computable_with_zero_messages",
    "concavity_violation",
    "convexify_axes",
    "cross_k_gap",
    "entropy_grid",
    "envelope_batch",
    "grid_points",
    "initial_bank",
    "initial_field",
    "is_concave",
    "load_table",
    "lower_bound_from",
    "next_node",
    "product_entropy",
    "resolution_slack",
    "run",
    "single_message_reduction",
    "sum_rate_field",
    "sup_delta",
    "sweep_once",
    "upper_concave_envelope",
    "zero_message_mask",
]

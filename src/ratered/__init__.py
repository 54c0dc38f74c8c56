"""Sum-rates of interactively computed functions on product-pmf grids.

The core object is a rate-reduction field: the bits saved versus losslessly
reproducing all sources, sampled on a dense grid of product pmfs, with -inf
(BOTTOM) marking pmfs where the target cannot yet be computed.  Fields are
grown by per-axis upper concave envelopes, certified against an entropy
floor and per-axis concavity, and cross-checked by an independent
brute-force single-message search.
"""

from .certify import MembershipReport, check_membership, lower_bound_from
from .errors import ConfigError, NotCertifiedError
from .fieldcsv import read_field_csv, write_field_csv
from .lattice import RateReductionField, RunResult, run, sum_rate_field
from .probability import GridSpec, ProductPmf
from .target_functions import FunctionTable, builtin_table, load_table

__version__ = "0.1.0"

# The library API that README documents, and the types it takes, returns
# or raises.  Every other name is imported from its own module.
__all__ = [
    "ConfigError",
    "FunctionTable",
    "GridSpec",
    "MembershipReport",
    "NotCertifiedError",
    "ProductPmf",
    "RateReductionField",
    "RunResult",
    "builtin_table",
    "check_membership",
    "load_table",
    "lower_bound_from",
    "read_field_csv",
    "run",
    "sum_rate_field",
    "write_field_csv",
]

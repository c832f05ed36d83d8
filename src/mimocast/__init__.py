"""Joint unicast / multi-group multicast massive MIMO downlink toolkit.

Closed-form achievable spectral efficiencies under MRT and ZF precoding,
optimal pilot/power allocation (max-min multicast fairness and weighted
sum unicast SE), the trade-off boundary between the two objectives, and an
independent Monte Carlo link-level validator.

Importing the package before numpy sets one BLAS thread
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` =
"1") unless one of the three is already set: the Monte Carlo validator's
S x S products are too small to share, and a second BLAS thread doubles
its CPU time for the same wall time.  BLAS reads these variables once,
when numpy is first imported, so the default does nothing once numpy is
loaded.
"""

import os
import sys

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

from .allocation import (MmfSolution, SseSolution, mmf_se_report, solve_mmf,
                         solve_sse, sse_se_report, waterfill)
from .closed_form import MRT, PRECODERS, ZF, DownlinkPowers, SeReport, se_report
from .errors import (DegenerateInputError, InvalidConfigError, MimocastError,
                     ZfInfeasibleError)
from .model import (EstimationStats, FadingProfile, PowerSplit, SystemConfig,
                    estimation_variances, require_valid, validate_config)
from .montecarlo import ValidationReport, validate_closed_form
from .pareto import (ParetoBoundary, ParetoPoint, boundary_csv,
                     check_convexity, select_operating_point, solve_split,
                     sweep_boundary)
from .scenario import (CellGeometry, Placement, RadioParams,
                       default_normalized_config, normalize_powers, pathloss,
                       place_users)

__version__ = "0.1.0"

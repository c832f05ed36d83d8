"""Joint unicast / multi-group multicast massive MIMO downlink toolkit.

Closed-form achievable spectral efficiencies under MRT and ZF precoding,
optimal pilot/power allocation (max-min multicast fairness and weighted
sum unicast SE), the trade-off boundary between the two objectives, and an
independent Monte Carlo link-level validator.
"""

from .allocation import (MmfSolution, SseSolution, mmf_se_report, solve_mmf,
                         solve_sse, sse_se_report, waterfill)
from .closed_form import MRT, PRECODERS, ZF, DownlinkPowers, SeReport, se_report
from .errors import (DegenerateInputError, InvalidConfigError, MimocastError,
                     ZfInfeasibleError)
from .model import (EstimationStats, FadingProfile, PowerSplit, SystemConfig,
                    estimation_variances, require_valid, validate_config)
from .montecarlo import (ChannelDraw, EstimateSet, ValidationReport,
                         build_mrt_precoders, build_zf_precoders,
                         draw_channels, mmse_estimate, validate_closed_form)
from .pareto import (ParetoBoundary, ParetoPoint, boundary_csv,
                     check_convexity, select_operating_point, solve_split,
                     sweep_boundary)
from .scenario import (CellGeometry, Placement, RadioParams,
                       default_normalized_config, normalize_powers, pathloss,
                       place_users)

__version__ = "0.1.0"

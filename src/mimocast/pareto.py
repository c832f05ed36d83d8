"""Trade-off boundary between the multicast max-min SE and the unicast
weighted sum SE.

Every efficient operating point spends the full budget, so the boundary is
parameterized by the unicast power share: each sweep point solves both
allocation problems exactly at its split.  The attainable region is convex,
which the midpoint-concavity check verifies numerically.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import math
from dataclasses import dataclass

from .allocation import (MmfSolution, SseSolution, _MmfProblem, _mmf_problem, _SseProblem,
                         _sse_problem)
from .closed_form import _precoder_factors
from .model import FadingProfile, PowerSplit, SystemConfig, require_valid


@dataclass(frozen=True)
class ParetoPoint:
    """One efficient operating point and the allocations achieving it."""

    p_unicast: float
    p_multicast: float
    mmf_objective: float
    sse_objective: float
    mmf_solution: MmfSolution
    sse_solution: SseSolution


@dataclass(frozen=True)
class ParetoBoundary:
    """Sweep points ordered by increasing unicast power.  ``problems`` are
    both allocation problems of the pair, which selections read: a sweep
    keeps the ones it built from the pair it validated, and any other
    boundary validates its pair and builds them on its first selection."""

    points: tuple[ParetoPoint, ...]
    precoder: str
    cfg: SystemConfig
    fading: FadingProfile

    @functools.cached_property
    def problems(self) -> tuple[_MmfProblem, _SseProblem]:
        require_valid(self.cfg, self.fading)
        return _problems(self.cfg, self.fading, self.precoder)


@dataclass(frozen=True)
class ConvexityReport:
    is_concave_boundary: bool
    worst_violation: float
    scale: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class OperatingPoint:
    """A selected boundary point; clamped marks an out-of-range target
    resolved to the nearest endpoint."""

    point: ParetoPoint
    clamped: bool


def _point(mmf: _MmfProblem, sse: _SseProblem, p_unicast: float) -> ParetoPoint:
    """Both problems solved at one full-budget split."""
    p_multicast = max(0.0, mmf.cfg.total_power - p_unicast)
    mmf_solution = mmf.solve(p_unicast)
    sse_solution = sse.solve(p_multicast)
    return ParetoPoint(
        p_unicast=p_unicast,
        p_multicast=p_multicast,
        mmf_objective=mmf_solution.objective,
        sse_objective=sse_solution.objective,
        mmf_solution=mmf_solution,
        sse_solution=sse_solution,
    )


def _problems(cfg: SystemConfig, fading: FadingProfile,
              precoder: str) -> tuple[_MmfProblem, _SseProblem]:
    """Both allocation problems of a validated pair."""
    return _mmf_problem(cfg, fading, precoder), _sse_problem(cfg, fading, precoder)


def solve_split(cfg: SystemConfig, fading: FadingProfile, precoder: str,
                p_unicast: float) -> ParetoPoint:
    """Solve both allocation problems exactly at one full-budget split."""
    require_valid(cfg, fading)
    return _point(*_problems(cfg, fading, precoder), p_unicast)


def sweep_boundary(cfg: SystemConfig, fading: FadingProfile, precoder: str,
                   n_points: int) -> ParetoBoundary:
    """Uniform sweep of the unicast power share over [0, P].

    The pair is validated once, and the solvers' split-independent work
    (group floors, loads, offsets) is done once for all points.
    """
    require_valid(cfg, fading)
    _precoder_factors(cfg, precoder)
    if n_points < 2:
        raise ValueError(f"need at least 2 sweep points, got {n_points}")
    P = cfg.total_power
    splits = [i * P / (n_points - 1) for i in range(n_points)]
    splits[-1] = P  # exact endpoint regardless of rounding
    mmf, sse = _problems(cfg, fading, precoder)
    boundary = ParetoBoundary(points=tuple(_point(mmf, sse, s) for s in splits),
                              precoder=precoder, cfg=cfg, fading=fading)
    vars(boundary)["problems"] = mmf, sse   # the cached property's value
    return boundary


def check_convexity(boundary: ParetoBoundary) -> ConvexityReport:
    """Midpoint-concavity of sum SE as a function of the max-min SE.

    For each consecutive triple the chord between the outer points is
    evaluated at the middle point's abscissa; positive (chord - curve)
    means a convexity defect.  Passes when the worst defect is within
    1e-9 of the objective scale.
    """
    pts = boundary.points
    if len(pts) < 3:
        raise ValueError("need at least 3 points to check curvature")
    # mmf decreases along the sweep; traverse it in increasing-mmf order.
    xs = [p.mmf_objective for p in reversed(pts)]
    ys = [p.sse_objective for p in reversed(pts)]
    if any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
        raise ValueError("boundary is not strictly ordered in the max-min objective")
    worst = 0.0
    for i in range(1, len(xs) - 1):
        frac = (xs[i] - xs[i - 1]) / (xs[i + 1] - xs[i - 1])
        chord = ys[i - 1] + (ys[i + 1] - ys[i - 1]) * frac
        worst = max(worst, chord - ys[i])
    scale = max(abs(y) for y in ys)
    return ConvexityReport(
        is_concave_boundary=worst <= 1e-9 * scale,
        worst_violation=worst,
        scale=scale,
    )


def select_operating_point(boundary: ParetoBoundary,
                           ratio: tuple[float, float] | None = None,
                           target_mmf: float | None = None,
                           target_sse: float | None = None) -> OperatingPoint:
    """Pick one boundary point by policy and solve it exactly.

    Exactly one policy must be given: a unicast:multicast power ratio, a
    target max-min multicast SE, or a target sum SE.  A target maps back to
    its split in closed form, so the split is exact up to rounding and one
    solve gives the point.  Targets outside the achievable range return the
    nearest endpoint flagged as clamped.  On a swept boundary nothing is
    validated or built again; any other boundary does both once, on its
    first selection.
    """
    chosen = [p for p in (ratio, target_mmf, target_sse) if p is not None]
    if len(chosen) != 1:
        raise ValueError("give exactly one of ratio, target_mmf, target_sse")
    P = boundary.cfg.total_power
    if ratio is not None:
        a, b = ratio
        p_unicast = PowerSplit.from_ratio(a, b, P).p_unicast
    elif math.isnan(chosen[0]):
        raise ValueError("the target must not be NaN")
    mmf, sse = boundary.problems
    if ratio is not None:
        return OperatingPoint(_point(mmf, sse, p_unicast), False)

    target, problem = chosen[0], (mmf if target_mmf is not None else sse)
    # Each objective is exactly 0 when its side gets no power and rises
    # strictly to `top` when it gets all of P (the other side's fixed share 0).
    top = problem.top
    if target >= top:
        power, clamped = P, target > top
    elif target <= 0.0:
        power, clamped = 0.0, target < 0.0
    else:
        power, clamped = min(P, problem.power_for(target)), False
    split = P - power if problem is mmf else power
    return OperatingPoint(_point(mmf, sse, split), clamped)


def boundary_csv(boundary: ParetoBoundary) -> str:
    """Serialize a boundary to CSV: p_un, p_mu, mmf_se, sse, precoder, N."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["p_un", "p_mu", "mmf_se", "sse", "precoder", "N"])
    for p in boundary.points:
        w.writerow([f"{p.p_unicast:.17g}", f"{p.p_multicast:.17g}",
                    f"{p.mmf_objective:.17g}", f"{p.sse_objective:.17g}",
                    boundary.precoder, boundary.cfg.n_antennas])
    return buf.getvalue()

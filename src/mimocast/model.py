"""System-level configuration, large-scale fading data, and the MMSE
channel-estimation variance formulas every other module consumes.

All powers are stored pre-normalized to unit noise variance; the scenario
module owns the physical-unit conversion.  Types are immutable after
construction and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InvalidConfigError

# Gains at or below this are rejected rather than clamped: silently clamping
# would corrupt the min-over-users selection in the max-min solvers.
MIN_GAIN = 1e-300


def _tuple1(xs) -> tuple:
    return tuple(float(x) for x in xs)


def _tuple2(xss) -> tuple:
    return tuple(tuple(float(x) for x in xs) for xs in xss)


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters, powers normalized to unit noise.

    n_antennas            BS antenna count
    coherence_length      symbols per coherence interval
    n_unicast             number of unicast user terminals
    group_sizes           multicast UTs per group (length = group count)
    pilot_length          uplink pilot symbols per coherence interval
    total_power           downlink power budget at the BS
    unicast_energy_caps   per-UT pilot energy budget (pilot power * symbols)
    multicast_energy_caps same, per multicast UT, shaped like group_sizes
    sse_weights           per-unicast-UT weight in the weighted sum SE
    """

    n_antennas: int
    coherence_length: int
    n_unicast: int
    group_sizes: tuple[int, ...]
    pilot_length: int
    total_power: float
    unicast_energy_caps: tuple[float, ...]
    multicast_energy_caps: tuple[tuple[float, ...], ...]
    sse_weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "group_sizes", tuple(int(k) for k in self.group_sizes))
        object.__setattr__(self, "unicast_energy_caps", _tuple1(self.unicast_energy_caps))
        object.__setattr__(self, "multicast_energy_caps", _tuple2(self.multicast_energy_caps))
        object.__setattr__(self, "sse_weights", _tuple1(self.sse_weights))

    @property
    def n_groups(self) -> int:
        return len(self.group_sizes)

    @property
    def n_streams(self) -> int:
        """Simultaneously precoded streams: unicast UTs plus one per group."""
        return self.n_unicast + self.n_groups

    @property
    def prelog(self) -> float:
        """Fraction of the coherence interval carrying payload data."""
        return 1.0 - self.pilot_length / self.coherence_length

    @classmethod
    def from_dict(cls, d: dict) -> "SystemConfig":
        return cls(
            n_antennas=d["n_antennas"],
            coherence_length=d["coherence_length"],
            n_unicast=d["n_unicast"],
            group_sizes=tuple(d["group_sizes"]),
            pilot_length=d["pilot_length"],
            total_power=d["total_power"],
            unicast_energy_caps=tuple(d["unicast_energy_caps"]),
            multicast_energy_caps=tuple(tuple(e) for e in d["multicast_energy_caps"]),
            sse_weights=tuple(d["sse_weights"]),
        )

    def to_dict(self) -> dict:
        return {
            "n_antennas": self.n_antennas,
            "coherence_length": self.coherence_length,
            "n_unicast": self.n_unicast,
            "group_sizes": list(self.group_sizes),
            "pilot_length": self.pilot_length,
            "total_power": self.total_power,
            "unicast_energy_caps": list(self.unicast_energy_caps),
            "multicast_energy_caps": [list(e) for e in self.multicast_energy_caps],
            "sse_weights": list(self.sse_weights),
        }


@dataclass(frozen=True)
class FadingProfile:
    """Large-scale fading coefficients for every UT in the system."""

    unicast_gains: tuple[float, ...]
    multicast_gains: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "unicast_gains", _tuple1(self.unicast_gains))
        object.__setattr__(self, "multicast_gains", _tuple2(self.multicast_gains))

    @classmethod
    def from_dict(cls, d: dict) -> "FadingProfile":
        return cls(
            unicast_gains=tuple(d["unicast_gains"]),
            multicast_gains=tuple(tuple(g) for g in d["multicast_gains"]),
        )

    def to_dict(self) -> dict:
        return {
            "unicast_gains": list(self.unicast_gains),
            "multicast_gains": [list(g) for g in self.multicast_gains],
        }


@dataclass(frozen=True)
class PowerSplit:
    """Downlink power committed to unicast vs multicast transmission."""

    p_unicast: float
    p_multicast: float

    @classmethod
    def from_ratio(cls, unicast_share: float, multicast_share: float, total: float) -> "PowerSplit":
        if unicast_share < 0 or multicast_share < 0 or unicast_share + multicast_share <= 0:
            raise ValueError("split ratio parts must be non-negative with a positive sum")
        s = unicast_share + multicast_share
        return cls(total * unicast_share / s, total * multicast_share / s)


@dataclass(frozen=True)
class EstimationStats:
    """Variances of the MMSE channel estimates.

    unicast_var[u]       variance of a unicast UT's estimated channel entry
    multicast_var[g][k]  same for multicast UT k in group g (shared pilot)
    group_var[g]         variance of the composite per-group estimate
    """

    unicast_var: tuple[float, ...]
    multicast_var: tuple[tuple[float, ...], ...]
    group_var: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "unicast_var", _tuple1(self.unicast_var))
        object.__setattr__(self, "multicast_var", _tuple2(self.multicast_var))
        object.__setattr__(self, "group_var", _tuple1(self.group_var))


@dataclass(frozen=True)
class Violation:
    """One invariant violation: where it is, what was found, why it is wrong."""

    field: str
    value: object
    message: str

    def __str__(self):
        return f"{self.field}={self.value!r}: {self.message}"


def _check_positive_gains(name: str, gains: Sequence[float], out: list[Violation]):
    for i, g in enumerate(gains):
        if not math.isfinite(g) or g <= MIN_GAIN:
            out.append(Violation(f"{name}[{i}]", g, "non-positive, sub-normal, or non-finite gain"))


def validate_config(cfg: SystemConfig, fading: FadingProfile) -> list[Violation]:
    """Check every type invariant; return the (possibly empty) violation list."""
    v: list[Violation] = []
    if cfg.n_antennas < 1:
        v.append(Violation("n_antennas", cfg.n_antennas, "must be a positive integer"))
    if cfg.coherence_length < 1:
        v.append(Violation("coherence_length", cfg.coherence_length, "must be a positive integer"))
    if cfg.n_unicast < 0:
        v.append(Violation("n_unicast", cfg.n_unicast, "must be non-negative"))
    for g, k in enumerate(cfg.group_sizes):
        if k < 1:
            v.append(Violation(f"group_sizes[{g}]", k, "every group needs at least one UT"))
    if cfg.pilot_length < cfg.n_streams:
        v.append(Violation("pilot_length", cfg.pilot_length,
                           f"orthogonal pilots need at least U+G = {cfg.n_streams} symbols"))
    if cfg.pilot_length > cfg.coherence_length:
        v.append(Violation("pilot_length", cfg.pilot_length,
                           "cannot exceed the coherence length"))
    if not (math.isfinite(cfg.total_power) and cfg.total_power > 0):
        v.append(Violation("total_power", cfg.total_power, "must be positive and finite"))

    if len(cfg.unicast_energy_caps) != cfg.n_unicast:
        v.append(Violation("unicast_energy_caps", len(cfg.unicast_energy_caps),
                           f"length must equal n_unicast = {cfg.n_unicast}"))
    else:
        for i, e in enumerate(cfg.unicast_energy_caps):
            if not (math.isfinite(e) and e > 0):
                v.append(Violation(f"unicast_energy_caps[{i}]", e, "energy cap must be positive"))
    if tuple(len(e) for e in cfg.multicast_energy_caps) != cfg.group_sizes:
        v.append(Violation("multicast_energy_caps",
                           tuple(len(e) for e in cfg.multicast_energy_caps),
                           f"shape must match group_sizes = {cfg.group_sizes}"))
    else:
        for g, caps in enumerate(cfg.multicast_energy_caps):
            for k, e in enumerate(caps):
                if not (math.isfinite(e) and e > 0):
                    v.append(Violation(f"multicast_energy_caps[{g}][{k}]", e,
                                       "energy cap must be positive"))
    if len(cfg.sse_weights) != cfg.n_unicast:
        v.append(Violation("sse_weights", len(cfg.sse_weights),
                           f"length must equal n_unicast = {cfg.n_unicast}"))
    else:
        for i, a in enumerate(cfg.sse_weights):
            if not (math.isfinite(a) and a > 0):
                v.append(Violation(f"sse_weights[{i}]", a, "weight must be positive"))

    if len(fading.unicast_gains) != cfg.n_unicast:
        v.append(Violation("unicast_gains", len(fading.unicast_gains),
                           f"length must equal n_unicast = {cfg.n_unicast}"))
    else:
        _check_positive_gains("unicast_gains", fading.unicast_gains, v)
    if tuple(len(g) for g in fading.multicast_gains) != cfg.group_sizes:
        v.append(Violation("multicast_gains", tuple(len(g) for g in fading.multicast_gains),
                           f"shape must match group_sizes = {cfg.group_sizes}"))
    else:
        for g, gains in enumerate(fading.multicast_gains):
            _check_positive_gains(f"multicast_gains[{g}]", gains, v)
    return v


def require_valid(cfg: SystemConfig, fading: FadingProfile) -> tuple[SystemConfig, FadingProfile]:
    """Return the pair unchanged when valid, raise InvalidConfigError otherwise."""
    violations = validate_config(cfg, fading)
    if violations:
        raise InvalidConfigError(violations)
    return cfg, fading


def _check_pilot_shapes(cfg: SystemConfig,
                        pilot_powers_unicast: Sequence[float],
                        pilot_powers_multicast: Sequence[Sequence[float]]):
    if len(pilot_powers_unicast) != cfg.n_unicast:
        raise ValueError(f"expected {cfg.n_unicast} unicast pilot powers, "
                         f"got {len(pilot_powers_unicast)}")
    if tuple(len(q) for q in pilot_powers_multicast) != cfg.group_sizes:
        raise ValueError(f"multicast pilot powers must be shaped like group_sizes "
                         f"{cfg.group_sizes}, got "
                         f"{tuple(len(q) for q in pilot_powers_multicast)}")
    for p in pilot_powers_unicast:
        if p < 0:
            raise ValueError(f"negative unicast pilot power {p}")
    for q in pilot_powers_multicast:
        for x in q:
            if x < 0:
                raise ValueError(f"negative multicast pilot power {x}")


def estimation_variances(cfg: SystemConfig,
                         fading: FadingProfile,
                         pilot_powers_unicast: Sequence[float],
                         pilot_powers_multicast: Sequence[Sequence[float]]) -> EstimationStats:
    """MMSE estimate variances for the given uplink pilot powers.

    For a unicast UT with pilot power p and gain b the estimate variance is
    tau*p*b^2 / (1 + tau*p*b).  Within a multicast group every member shares
    one pilot, so member k's estimate variance is
    tau*q_k*e_k^2 / (1 + sum_t tau*q_t*e_t) and the composite group estimate
    has variance (sum_t tau*q_t*e_t)^2 / (1 + sum_t tau*q_t*e_t).
    """
    require_valid(cfg, fading)
    return _estimation_variances(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)


def _estimation_variances(cfg: SystemConfig,
                          fading: FadingProfile,
                          pilot_powers_unicast: Sequence[float],
                          pilot_powers_multicast: Sequence[Sequence[float]]) -> EstimationStats:
    """``estimation_variances`` for a (cfg, fading) pair already validated."""
    _check_pilot_shapes(cfg, pilot_powers_unicast, pilot_powers_multicast)
    tau = cfg.pilot_length

    uni = []
    for p, b in zip(pilot_powers_unicast, fading.unicast_gains):
        tpb = tau * p * b
        uni.append(tpb * b / (1.0 + tpb))

    multi = []
    grp = []
    for q_row, e_row in zip(pilot_powers_multicast, fading.multicast_gains):
        s = sum(tau * q * e for q, e in zip(q_row, e_row))
        multi.append(tuple(tau * q * e * e / (1.0 + s) for q, e in zip(q_row, e_row)))
        grp.append(s * s / (1.0 + s))
    return EstimationStats(unicast_var=tuple(uni), multicast_var=tuple(multi),
                           group_var=tuple(grp))

"""Cell scenarios: random user placement on an annulus, distance-based
path-loss fading, and conversion of physical radio parameters to the
unit-noise normalization used everywhere else.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PlacementError
from .model import (FadingProfile, FadingStack, SystemConfig, _ArrayRecord, _count,
                    _group_counts, _matrix, _owned, _read_only)


def _check_above(params, **lower: float):
    """Each named parameter must lie in (its lower bound, inf), so not be NaN."""
    for name, low in lower.items():
        if not low < getattr(params, name) < math.inf:
            raise ValueError(f"{name} must lie in ({low}, inf), got {getattr(params, name)}")


@dataclass(frozen=True)
class CellGeometry:
    """Single-cell disc with an exclusion zone around the BS."""

    cell_radius: float = 500.0        # m
    exclusion_radius: float = 35.0    # m
    pathloss_exponent: float = 3.76
    attenuation_const: float = 10.0 ** -3.5

    def validate(self):
        # NaN fails every comparison, so it is caught with the infinities.
        if not (0.0 < self.exclusion_radius < self.cell_radius < math.inf):
            raise ValueError(f"need 0 < exclusion_radius < cell_radius < inf, got "
                             f"({self.exclusion_radius}, {self.cell_radius})")
        _check_above(self, pathloss_exponent=2.0, attenuation_const=0.0)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CellGeometry":
        return cls(**d)


@dataclass(frozen=True)
class RadioParams:
    """Physical radio parameters used only for normalization."""

    bandwidth_hz: float = 20e6
    noise_psd_dbm_hz: float = -174.0
    tx_power_watts: float = 10.0

    def validate(self):
        _check_above(self, bandwidth_hz=0.0, noise_psd_dbm_hz=-math.inf, tx_power_watts=0.0)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RadioParams":
        return cls(**d)


def _points(xs) -> np.ndarray:
    """Read-only float64 copy of (radius, angle) pairs, converted as
    ``model._matrix`` converts, so a non-numeric or complex entry raises
    TypeError."""
    a = _matrix(xs)
    if a.size == 0:
        a = _read_only(np.empty((0, 2)))
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError(f"positions must be (radius, angle) pairs, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class Placement(_ArrayRecord):
    """Polar user positions (radius m, angle rad) from one placement draw,
    as read-only (users, 2) arrays: one for the unicast UTs, one per group."""

    unicast: np.ndarray
    multicast: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "unicast", _points(self.unicast))
        object.__setattr__(self, "multicast", tuple(_points(g) for g in self.multicast))


def pathloss(geometry: CellGeometry, distance_m: float) -> float:
    """Distance-based channel gain in the annulus: attenuation_const / distance^exponent."""
    geometry.validate()
    if not (geometry.exclusion_radius <= distance_m <= geometry.cell_radius):
        raise ValueError(f"distance {distance_m} m outside the annulus "
                         f"[{geometry.exclusion_radius}, {geometry.cell_radius}]")
    return geometry.attenuation_const / distance_m ** geometry.pathloss_exponent


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Map draws u in [0, 1) to [low, high) in place, as rng.uniform(low,
    high) maps them."""
    u *= high - low
    u += low
    return u


def _check_counts(n_unicast: int, group_sizes: Sequence[int]):
    """Placement's rule on the UT counts."""
    if n_unicast < 0 or any(k < 1 for k in group_sizes):
        raise PlacementError("need n_unicast >= 0 and every group size >= 1")


def _unit_draws(geometry: CellGeometry, n_unicast: int, group_sizes: Sequence[int],
                seeds: Sequence, angles: bool) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Each seed's first ``rng.random`` draws, one row per seed, with the
    columns that hold the radius draws and the block sizes.

    Block by block (the unicast UTs, then each group) a stream gives that
    block's squared-radius draws and then its angle draws.  A row holds the
    whole placement, 2 * users draws, or, without ``angles``, the draws up
    to the last block's radii: 2 * users - (the last block's size).  The
    first draws of a stream are the same however many are drawn.
    """
    geometry.validate()
    _check_counts(n_unicast, group_sizes)
    sizes = [n_unicast, *group_sizes]
    n = sum(sizes)
    u = np.empty((len(seeds), 2 * n - (0 if angles else sizes[-1])))
    for row, seed in zip(u, seeds):
        np.random.default_rng(seed).random(out=row)
    # A block starting at UT s with b UTs holds draws [2s, 2s + 2b): its
    # radii, then its angles.
    return u, np.arange(n) + np.repeat(np.cumsum(sizes) - sizes, sizes), sizes


def _radii(geometry: CellGeometry, u: np.ndarray) -> np.ndarray:
    """Radii from draws u in [0, 1), mapped in place: uniform over area, so
    the sqrt of a uniform draw on squared radii, mapped as ``rng.uniform``
    maps it."""
    return np.sqrt(_uniform(u, geometry.exclusion_radius ** 2, geometry.cell_radius ** 2),
                   out=u)


def _gains(geometry: CellGeometry, radii: np.ndarray) -> np.ndarray:
    """The gains at the radii, mapped in place.  Drawn radii are in range
    by construction."""
    radii **= geometry.pathloss_exponent
    return np.divide(geometry.attenuation_const, radii, out=radii)


def place_drops(geometry: CellGeometry,
                n_unicast: int,
                group_sizes: Sequence[int],
                seeds: Sequence) -> FadingStack:
    """The fading gains of one placement per seed, stacked: row d holds the
    gains ``place_users(geometry, n_unicast, group_sizes, seeds[d])`` gives.
    Each stream is drawn up to its last radius, and only the radii are
    mapped, in place in the arrays that the stack then owns; the angles
    feed nothing here.  The unicast radii are a stream's first draws, so
    ``place_drops(geometry, n_unicast, (), seeds)`` stacks the unicast
    gains of these placements alone, from n_unicast draws per seed."""
    u, radii, sizes = _unit_draws(geometry, n_unicast, group_sizes, seeds, angles=False)
    gains = _gains(geometry, _radii(geometry, np.take(u, radii, axis=1)))
    return _owned(FadingStack, ut_gains=_read_only(gains), n_unicast=sizes[0],
                  group_sizes=tuple(sizes[1:]))


def place_users(geometry: CellGeometry,
                n_unicast: int,
                group_sizes: Sequence[int],
                rng_seed) -> tuple[FadingProfile, Placement]:
    """Drop UTs uniformly over the annulus and derive their fading gains.

    One ``rng.random(2 * users)`` call, mapped as ``rng.uniform`` maps its
    draws, gives the placement of two ``rng.uniform`` calls per block
    (radii, then angles), bit for bit and on every platform.  Only the
    distances feed the fading model.
    """
    (u,), radii, sizes = _unit_draws(geometry, n_unicast, group_sizes, [rng_seed],
                                     angles=True)
    polar = np.empty((radii.size, 2))
    polar[:, 0] = _radii(geometry, u[radii])
    polar[:, 1] = _uniform(u[radii + np.repeat(sizes, sizes)], 0.0, 2.0 * math.pi)
    gains = _gains(geometry, polar[:, 0].copy())
    # One block per part: the unicast UTs, then each group.
    (unicast_gains, *multicast_gains), (unicast, *multicast) = (
        np.split(a, np.cumsum(sizes)[:-1]) for a in (gains, polar))
    return (FadingProfile(unicast_gains=unicast_gains, multicast_gains=multicast_gains),
            Placement(unicast=unicast, multicast=multicast))


def noise_power_w_per_hz(radio: RadioParams) -> float:
    """Noise PSD converted from dBm/Hz to W/Hz."""
    return 10.0 ** ((radio.noise_psd_dbm_hz - 30.0) / 10.0)


def _noise_scale(radio: RadioParams) -> float:
    """Factor taking watts to the unit-noise scale: 1 / (bandwidth * noise PSD)."""
    radio.validate()
    return 1.0 / (radio.bandwidth_hz * noise_power_w_per_hz(radio))


def normalize_powers(radio: RadioParams, cfg: SystemConfig) -> SystemConfig:
    """Convert a config holding physical powers into the unit-noise scale.

    ``cfg.total_power`` is read as watts and every energy cap as a
    watt-symbol product; all are divided by bandwidth * noise PSD.
    """
    scale = _noise_scale(radio)
    return dataclasses.replace(
        cfg,
        total_power=cfg.total_power * scale,
        unicast_energy_caps=cfg.unicast_energy_caps * scale,
        multicast_energy_caps=tuple(row * scale for row in cfg.multicast_energy_caps),
    )


def default_energy_cap_physical(coherence_length: int) -> float:
    """Stock per-UT pilot energy budget: 0.1 W sustained over the interval."""
    return 0.1 * coherence_length


def default_normalized_config(n_antennas: int,
                              coherence_length: int,
                              n_unicast: int,
                              group_sizes: Sequence[int],
                              radio: RadioParams = RadioParams()) -> SystemConfig:
    """Build the stock normalized config: full power budget, stock pilot
    energy caps, unit weights, and the shortest feasible pilot length.

    It is built once, in normalized units, and equals
    ``normalize_powers(radio, ...)`` of the same config in physical units:
    each power is the same product with the same scale factor.  Counts are
    read as the config reads them.
    """
    n_unicast = _count(n_unicast, "n_unicast")
    group_sizes = _group_counts(group_sizes)
    scale = _noise_scale(radio)
    e = default_energy_cap_physical(coherence_length) * scale
    # A negative count gives an empty field, which validation reports.
    n_users, members = max(n_unicast, 0), [max(k, 0) for k in group_sizes]
    return SystemConfig(
        n_antennas=n_antennas,
        coherence_length=coherence_length,
        n_unicast=n_unicast,
        group_sizes=group_sizes,
        pilot_length=n_unicast + len(group_sizes),
        total_power=radio.tx_power_watts * scale,
        unicast_energy_caps=np.full(n_users, e),
        multicast_energy_caps=[np.full(k, e) for k in members],
        sse_weights=np.ones(n_users),
    )

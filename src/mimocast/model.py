"""System-level configuration, large-scale fading data, and the MMSE
channel-estimation variance formulas every other module consumes.

All powers are stored pre-normalized to unit noise variance; the scenario
module owns the physical-unit conversion.  Types are immutable after
construction and all operations are pure functions.

Per-UT data is stored flat.  Every per-UT field is a read-only float64
array; the multicast UTs of all groups share one array, group after group,
and ``group_offsets`` (G + 1 entries) marks where each group starts in it.
The per-group fields (``multicast_gains[g]``, ...) are read-only views into
that array.  Arrays over every UT (``FadingProfile.ut_gains``, ...) hold
them in pilot order, ``SystemConfig.pilot_offsets``: the unicast UTs, each
a pilot of one, then each group's members on the group's shared pilot.
Constructors accept any (nested) sequence of numbers.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import InvalidConfigError

# Gains at or below this are rejected rather than clamped: silently clamping
# would corrupt the min-over-users selection in the max-min solvers.
MIN_GAIN = 1e-300


def _cast_converts(xs) -> bool:
    """Whether one cast to float64 converts ``xs`` as ``_real`` converts
    each entry: true for arrays, but not of object dtype, whose entries may
    be None or other non-numbers that a cast turns into NaN, nor of complex
    dtype, whose cast drops the imaginary parts."""
    return isinstance(xs, np.ndarray) and xs.dtype.kind not in "Oc"


def _real(x) -> float:
    """float(x), except that a numpy complex scalar raises TypeError as a
    Python complex does; float() would drop its imaginary part."""
    if isinstance(x, np.complexfloating):
        raise TypeError(f"expected a real number, got {x!r}")
    return float(x)


def _vector(xs) -> np.ndarray:
    """Read-only float64 copy of a flat sequence of numbers, or the view a
    ``_Shared`` array carries.

    Anything but a 1-D array that ``_cast_converts`` is converted entry by
    entry with ``_real``, so a non-numeric or complex entry raises TypeError.
    """
    if isinstance(xs, _Shared):
        return xs.view
    if _cast_converts(xs) and xs.ndim == 1:
        return _read_only(xs.astype(np.float64))
    return _read_only(np.array([_real(x) for x in xs], dtype=np.float64))


def _matrix(xs) -> np.ndarray:
    """Read-only float64 copy of rows of numbers, or the view a ``_Shared``
    array carries.  Anything but an array that ``_cast_converts`` is
    converted entry by entry with ``_real``, as ``_vector`` converts."""
    if isinstance(xs, _Shared):
        return xs.view
    if _cast_converts(xs):
        return _read_only(xs.astype(np.float64))
    return _read_only(np.array([[_real(x) for x in row] for row in xs], dtype=np.float64))


def _read_only(owner: np.ndarray) -> np.ndarray:
    """A view of an array that owns its memory, which is made read-only.
    The owner itself could be made writeable again; no view of a read-only
    owner can."""
    owner.setflags(write=False)
    return owner.view()


def _offsets(sizes) -> np.ndarray:
    """Where each group starts in a flat per-member array, then its length."""
    return _read_only(np.array([0, *itertools.accumulate(sizes)], dtype=np.intp))


def _views(flat: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, ...]:
    bounds = offsets.tolist()
    return tuple(flat[a:b] for a, b in zip(bounds, bounds[1:]))


class _Shared:
    """A float64 array the package computed and owns (or a slice of one
    already read-only), made read-only, which records store without
    copying: as ``view`` for a flat field, or as ``rows``, one view per
    group at ``offsets``, for a per-group field.  Whatever else a record is
    given it copies, so no caller's array is shared."""

    __slots__ = ("view", "rows")

    def __init__(self, array: np.ndarray, offsets: np.ndarray | None = None):
        self.view = _read_only(array)
        self.rows = None if offsets is None else _views(array, offsets)


def _vectors(rows) -> list[np.ndarray]:
    """Rows of numbers as 1-D arrays that one cast to float64 converts: a
    row that is a 1-D array ``_cast_converts`` as it is, any other through
    ``_vector``."""
    return [row if _cast_converts(row) and row.ndim == 1 else _vector(row) for row in rows]


def _flat(vectors: list[np.ndarray]) -> np.ndarray:
    """``_vectors`` rows as one read-only float64 array, copied by the
    concatenation alone."""
    return _read_only(np.concatenate(vectors, dtype=np.float64, casting="unsafe") if vectors
                      else np.empty(0))


def _grouped(rows) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Rows of numbers as one read-only float64 array (``_flat``) and a
    read-only view per row.  A ``_Shared`` array's views are kept as they
    are."""
    if isinstance(rows, _Shared):
        return rows.view, rows.rows
    vectors = _vectors(rows)
    flat = _flat(vectors)
    return flat, _views(flat, _offsets(map(len, vectors)))


def _sizes(offsets: np.ndarray) -> np.ndarray:
    return offsets[1:] - offsets[:-1]


def _row_sums(values: np.ndarray) -> np.ndarray:
    """Sums along the last (non-empty) axis, added left to right, so they
    match a Python loop bit for bit (np.sum adds pairwise)."""
    return np.cumsum(values, axis=-1)[..., -1]


def _group_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each (non-empty) group's sum along the last axis, added left to right.
    Unequal groups are padded with trailing zeros, which leave sums as they are."""
    sizes = _sizes(offsets)
    lead = values.shape[:-1]
    if values.shape[-1] == sizes.size:   # groups of one, or none
        return values.copy()
    longest = int(sizes.max())
    if values.shape[-1] == sizes.size * longest:
        rows = values.reshape(*lead, sizes.size, longest)
    else:
        rows = np.zeros((*lead, sizes.size, longest))
        rows[..., np.arange(longest) < sizes[:, None]] = values
    return _row_sums(rows)


def _group_others(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """For each entry along the last axis, the sum of the other entries of
    its (non-empty) group: the sum of those before it, added from the
    group's start, plus the sum of those after it, added from its end, so
    nothing is subtracted.  Groups are padded as in ``_group_sums``, with
    one more zero before and after; groups of one have no others."""
    sizes = _sizes(offsets)
    if values.shape[-1] == sizes.size:
        return np.zeros(values.shape)
    inside = np.arange(int(sizes.max())) < sizes[:, None]
    rows = np.zeros((*values.shape[:-1], sizes.size, inside.shape[1] + 2))
    rows[..., 1:-1][..., inside] = values
    before = np.cumsum(rows, axis=-1)[..., :-2]
    after = np.cumsum(rows[..., ::-1], axis=-1)[..., ::-1][..., 2:]
    return (before + after)[..., inside]


def _group_min(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each (non-empty) group's smallest entry along the last axis."""
    return np.minimum.reduceat(values, offsets[:-1], axis=-1)


def _per_member(values, offsets: np.ndarray) -> np.ndarray:
    """One per-group value (last axis) repeated for every member of the group."""
    return np.repeat(values, _sizes(offsets), axis=-1)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and bool(np.array_equal(a, b)))
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _hashable(v):
    if isinstance(v, np.ndarray):
        return v.shape, tuple(v.ravel().tolist())
    if isinstance(v, tuple):
        return tuple(_hashable(x) for x in v)
    return v


def _plain(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return v


class _ArrayRecord:
    """Value equality, hashing and ``to_dict`` for frozen dataclasses
    holding arrays."""

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self) if f.compare)

    def to_dict(self) -> dict:
        """The constructor's fields with arrays and tuples as (nested) lists."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self) if f.init}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _same(self._values(), other._values())

    def __hash__(self):
        return hash(_hashable(self._values()))


def _flat_field():
    return field(init=False, repr=False, compare=False)


def _freeze(record, vectors=(), grouped=()):
    """Store fields of a frozen record as read-only float64 arrays: each field
    named in ``vectors`` as one array, each in ``grouped`` as one view per
    row, whose flat array goes to ``<name>_flat`` where the record has it."""
    for name in vectors:
        object.__setattr__(record, name, _vector(getattr(record, name)))
    for name in grouped:
        flat, rows = _grouped(getattr(record, name))
        object.__setattr__(record, name, rows)
        if name + "_flat" in record.__dataclass_fields__:
            object.__setattr__(record, name + "_flat", flat)


def _count(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _group_counts(sizes) -> tuple[int, ...]:
    """Every group size through ``_count``, named by its index."""
    return tuple(_count(k, f"group_sizes[{g}]") for g, k in enumerate(sizes))


@dataclass(frozen=True, eq=False)
class SystemConfig(_ArrayRecord):
    """Static system parameters, powers normalized to unit noise.

    n_antennas            BS antenna count
    coherence_length      symbols per coherence interval
    n_unicast             number of unicast user terminals
    group_sizes           multicast UTs per group (length = group count)
    pilot_length          uplink pilot symbols per coherence interval
    total_power           downlink power budget at the BS
    unicast_energy_caps   per-UT pilot energy budget (pilot power * symbols)
    multicast_energy_caps same, per multicast UT, one row per group
    sse_weights           per-unicast-UT weight in the weighted sum SE

    ``multicast_energy_caps`` rows are views into
    ``multicast_energy_caps_flat``; ``group_offsets`` is derived from
    ``group_sizes``, and ``pilot_offsets`` from both on first read.
    """

    n_antennas: int
    coherence_length: int
    n_unicast: int
    group_sizes: tuple[int, ...]
    pilot_length: int
    total_power: float
    unicast_energy_caps: np.ndarray
    multicast_energy_caps: tuple[np.ndarray, ...]
    sse_weights: np.ndarray
    multicast_energy_caps_flat: np.ndarray = _flat_field()
    group_offsets: np.ndarray = _flat_field()

    def __post_init__(self):
        for name in ("n_antennas", "coherence_length", "n_unicast", "pilot_length"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        sizes = _group_counts(self.group_sizes)
        object.__setattr__(self, "group_sizes", sizes)
        object.__setattr__(self, "group_offsets", _offsets(sizes))
        _freeze(self, ("unicast_energy_caps", "sse_weights"), ("multicast_energy_caps",))

    @functools.cached_property
    def pilot_offsets(self) -> np.ndarray:
        """Where each pilot's UTs start in pilot order, then their count:
        unicast UT u alone on pilot u, then group j's members on pilot U + j."""
        u = self.n_unicast
        return _read_only(np.concatenate([np.arange(u), u + self.group_offsets]))

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
        """The config a ``to_dict`` document describes.  A count that is not
        an integer (64.0, 6.5) raises TypeError naming its field, as it does
        in any config."""
        return cls(
            n_antennas=d["n_antennas"],
            coherence_length=d["coherence_length"],
            n_unicast=d["n_unicast"],
            group_sizes=d["group_sizes"],
            pilot_length=d["pilot_length"],
            total_power=d["total_power"],
            unicast_energy_caps=d["unicast_energy_caps"],
            multicast_energy_caps=d["multicast_energy_caps"],
            sse_weights=d["sse_weights"],
        )


@dataclass(frozen=True, eq=False)
class FadingProfile(_ArrayRecord):
    """Large-scale fading coefficients for every UT in the system.

    ``multicast_gains`` rows are views into ``multicast_gains_flat``;
    ``group_offsets`` marks where each row starts in it.
    """

    unicast_gains: np.ndarray
    multicast_gains: tuple[np.ndarray, ...]
    multicast_gains_flat: np.ndarray = _flat_field()
    group_offsets: np.ndarray = _flat_field()

    def __post_init__(self):
        _freeze(self, ("unicast_gains",), ("multicast_gains",))
        object.__setattr__(self, "group_offsets", _offsets(map(len, self.multicast_gains)))

    @functools.cached_property
    def ut_gains(self) -> np.ndarray:
        """Every UT's gain, in pilot order (``SystemConfig.pilot_offsets``)."""
        return _read_only(np.concatenate([self.unicast_gains, self.multicast_gains_flat]))

    @classmethod
    def from_dict(cls, d: dict) -> "FadingProfile":
        return cls(unicast_gains=d["unicast_gains"], multicast_gains=d["multicast_gains"])


@dataclass(frozen=True, eq=False)
class FadingStack:
    """Large-scale fading of several drops of one cell, one row per drop:
    (drops, U) unicast gains and (drops, sum K) multicast gains, each row
    laid out like ``FadingProfile.multicast_gains_flat``.  An allocation
    problem (``allocation._mmf_problem``, ``_sse_problem``) reads either
    this or a FadingProfile, and gives one row of results per drop.

    The gains are converted as ``_matrix`` converts, so a ``_Shared`` array
    is stored without a copy."""

    unicast_gains: np.ndarray
    multicast_gains_flat: np.ndarray
    group_offsets: np.ndarray

    def __post_init__(self):
        for name in ("unicast_gains", "multicast_gains_flat"):
            object.__setattr__(self, name, _matrix(getattr(self, name)))
        object.__setattr__(self, "group_offsets",
                           _read_only(np.array(self.group_offsets, dtype=np.intp)))

    @property
    def n_drops(self) -> int:
        return len(self.unicast_gains)

    def rows(self, start: int, stop: int) -> "FadingStack":
        """The stack of drops ``start`` to ``stop - 1``, viewing this one's gains."""
        return FadingStack(unicast_gains=_Shared(self.unicast_gains[start:stop]),
                           multicast_gains_flat=_Shared(self.multicast_gains_flat[start:stop]),
                           group_offsets=self.group_offsets)

    def drop(self, d: int) -> FadingProfile:
        return FadingProfile(unicast_gains=self.unicast_gains[d],
                             multicast_gains=_views(self.multicast_gains_flat[d],
                                                    self.group_offsets))


@dataclass(frozen=True)
class PowerSplit:
    """Downlink power committed to unicast vs multicast transmission."""

    p_unicast: float
    p_multicast: float

    @classmethod
    def from_ratio(cls, unicast_share: float, multicast_share: float, total: float) -> "PowerSplit":
        s = unicast_share + multicast_share
        # NaN fails every comparison, so it is caught with the infinities.
        if not (0.0 <= unicast_share < math.inf and 0.0 <= multicast_share < math.inf and s > 0):
            raise ValueError("split ratio parts must be finite and non-negative with a "
                             "positive sum")
        larger = max(unicast_share, multicast_share)
        if not (sys.float_info.min <= s < math.inf and total * larger < math.inf):
            # A subnormal sum rounds total * share through a subnormal (the
            # ratio 5e-324:0 gave 10 of a total of 9.677), and an overflow
            # loses the ratio.  Scaled so that its larger part is 1, the
            # ratio takes the same path as every other.
            unicast_share, multicast_share = unicast_share / larger, multicast_share / larger
            s = unicast_share + multicast_share
        return cls(total * unicast_share / s, total * multicast_share / s)


@dataclass(frozen=True, eq=False)
class EstimationStats(_ArrayRecord):
    """Variances of the MMSE channel estimates.

    unicast_var[u]       variance of a unicast UT's estimated channel entry
    multicast_var[g][k]  same for multicast UT k in group g (shared pilot)
    group_var[g]         variance of the composite per-group estimate
    ut_error[i]          every UT's estimation-error variance beta - var, in
                         pilot order, as formed without subtracting, or None

    Stored as one read-only float64 array, which the fields view: every
    UT's variance in pilot order (``ut_var``), then each group's, with
    ``multicast_var`` rows viewing ``multicast_var_flat``.
    """

    unicast_var: np.ndarray
    multicast_var: tuple[np.ndarray, ...]
    group_var: np.ndarray
    ut_error: np.ndarray | None = None
    multicast_var_flat: np.ndarray = _flat_field()
    ut_var: np.ndarray = _flat_field()

    def __post_init__(self):
        variances, views = _grouped([self.unicast_var, *self.multicast_var, self.group_var])
        u, n = views[0].size, variances.size - views[-1].size
        for name, value in (("unicast_var", views[0]), ("multicast_var", views[1:-1]),
                            ("group_var", views[-1]), ("multicast_var_flat", variances[u:n]),
                            ("ut_var", variances[:n])):
            object.__setattr__(self, name, value)
        if self.ut_error is not None:
            _freeze(self, ("ut_error",))
            if self.ut_error.shape != self.ut_var.shape:
                raise ValueError(f"ut_error must hold one variance per UT ({n}), "
                                 f"got {self.ut_error.size}")


@dataclass(frozen=True)
class Violation:
    """One invariant violation: where it is, what was found, why it is wrong."""

    field: str
    value: object
    message: str

    def __str__(self):
        return f"{self.field}={self.value!r}: {self.message}"


def _within(values: np.ndarray, lower: float) -> bool:
    """Whether every entry lies in (lower, inf); False for any NaN."""
    return values.size == 0 or (values.min() > lower and values.max() < math.inf)


def _outside(values: np.ndarray, lower: float) -> np.ndarray:
    """Which entries lie outside (lower, inf), NaN included."""
    return ~((values > lower) & (values < math.inf))


def _flag(out: list[Violation], name: str, values: np.ndarray, lower: float,
          message: str, offsets: np.ndarray | None = None):
    """One Violation per entry outside (lower, inf), NaN included, in index
    order.  With group offsets the entries are named ``name[group][member]``,
    else ``name[index]``."""
    if _within(values, lower):
        return
    bad = _outside(values, lower)
    bounds = None if offsets is None else offsets.tolist()
    for i in np.flatnonzero(bad).tolist():
        if bounds is None:
            where = f"[{i}]"
        else:
            g = bisect.bisect_right(bounds, i) - 1
            where = f"[{g}][{i - bounds[g]}]"
        out.append(Violation(f"{name}{where}", float(values[i]), message))


_BAD_GAIN = "non-positive, sub-normal, or non-finite gain"


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

    # The per-UT fields: name, every entry, the per-group rows (None for a
    # per-unicast-UT field), the bound every entry must exceed, and why.
    per_ut = (
        ("unicast_energy_caps", cfg.unicast_energy_caps, None, 0.0, "energy cap must be positive"),
        ("multicast_energy_caps", cfg.multicast_energy_caps_flat, cfg.multicast_energy_caps, 0.0,
         "energy cap must be positive"),
        ("sse_weights", cfg.sse_weights, None, 0.0, "weight must be positive"),
        ("unicast_gains", fading.unicast_gains, None, MIN_GAIN, _BAD_GAIN),
        ("multicast_gains", fading.multicast_gains_flat, fading.multicast_gains, MIN_GAIN,
         _BAD_GAIN),
    )
    for name, values, rows, lower, message in per_ut:
        if rows is None:
            got, want, rule = len(values), cfg.n_unicast, "length must equal n_unicast"
        else:
            got, want, rule = tuple(map(len, rows)), cfg.group_sizes, "shape must match group_sizes"
        if got != want:
            v.append(Violation(name, got, f"{rule} = {want}"))
        else:
            _flag(v, name, values, lower, message, None if rows is None else cfg.group_offsets)
    return v


def require_valid(cfg: SystemConfig, fading: FadingProfile) -> tuple[SystemConfig, FadingProfile]:
    """Return the pair unchanged when valid, raise InvalidConfigError otherwise."""
    violations = validate_config(cfg, fading)
    if violations:
        raise InvalidConfigError(violations)
    return cfg, fading


def require_valid_drops(cfg: SystemConfig, drops: FadingStack) -> FadingStack:
    """``require_valid`` for every drop of a stack, with ``validate_config``
    run once: on the config and the first drop.  The other drops share its
    shapes, so only their gains are left, and one check over the whole gain
    matrices covers them.  An invalid drop raises what ``require_valid`` on
    the first invalid one raises."""
    if drops.n_drops == 0:
        raise ValueError("need at least one drop")
    require_valid(cfg, drops.drop(0))
    gains = (drops.unicast_gains, drops.multicast_gains_flat)
    if not all(_within(g, MIN_GAIN) for g in gains):
        bad = np.logical_or(*(_outside(g, MIN_GAIN).any(axis=-1) for g in gains))
        require_valid(cfg, drops.drop(int(np.argmax(bad))))
    return drops


def _pilot_arrays(cfg: SystemConfig,
                  pilot_powers_unicast: Sequence[float],
                  pilot_powers_multicast: Sequence[Sequence[float]]) -> np.ndarray:
    """Every UT's pilot power in one float64 array, in pilot order, once each
    side's shape is checked and every entry is a finite non-negative real
    number: converted as ``_vectors`` converts, so that None or a complex
    entry raises TypeError, and a NaN, infinite or negative one ValueError."""
    if len(pilot_powers_unicast) != cfg.n_unicast:
        raise ValueError(f"expected {cfg.n_unicast} unicast pilot powers, "
                         f"got {len(pilot_powers_unicast)}")
    shape = tuple(len(q) for q in pilot_powers_multicast)
    if shape != cfg.group_sizes:
        raise ValueError(f"multicast pilot powers must be shaped like group_sizes "
                         f"{cfg.group_sizes}, got {shape}")
    powers = _flat(_vectors([pilot_powers_unicast, *pilot_powers_multicast]))
    # NaN fails every comparison, so it is caught with the infinities.
    if powers.size and not (powers.min() >= 0.0 and powers.max() < math.inf):
        i = int(np.argmin((powers >= 0.0) & (powers < math.inf)))
        raise ValueError(f"{'unicast' if i < cfg.n_unicast else 'multicast'} pilot power "
                         f"{powers[i]} is not finite and non-negative")
    return powers


def estimation_variances(cfg: SystemConfig,
                         fading: FadingProfile,
                         pilot_powers_unicast: Sequence[float],
                         pilot_powers_multicast: Sequence[Sequence[float]]) -> EstimationStats:
    """MMSE estimate variances for the given uplink pilot powers: UT i's is
    tau*q_i*g_i^2 / (1 + s), s = sum_t tau*q_t*g_t over the UTs on its pilot
    (``_mmse_variances``), and a group's composite estimate's s^2 / (1 + s)."""
    require_valid(cfg, fading)
    return _estimation_variances(cfg, fading,
                                 _pilot_arrays(cfg, pilot_powers_unicast, pilot_powers_multicast))


def _mmse_variances(pilot_length: int, pilot_powers: np.ndarray, gains: np.ndarray,
                    pilots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The estimation rule at pilot powers q and gains g (with an optional
    leading drop axis) in pilot order, split into pilots at ``pilots``:
    each pilot's energy s = sum_t tau*q_t*g_t, each UT's estimate variance
    tau*q_i*g_i^2 / (1 + s) and its error variance g_i (1 + sum_{l != i}
    tau*q_l*g_l) / (1 + s), which keeps its digits as the variance nears g_i."""
    energy = pilot_length * pilot_powers * gains
    s = _group_sums(energy, pilots)   # per pilot
    total = 1.0 + _per_member(s, pilots)
    return s, energy * gains / total, gains * (1.0 + _group_others(energy, pilots)) / total


def _estimation_variances(cfg: SystemConfig, fading: FadingProfile,
                          pilot_powers: np.ndarray) -> EstimationStats:
    """``estimation_variances`` for a (cfg, fading) pair already validated,
    at every UT's pilot power in pilot order, as ``_pilot_arrays`` converts
    them.  Its rule's other caller is ``allocation._sse_problem``."""
    s, variances, errors = _mmse_variances(cfg.pilot_length, pilot_powers, fading.ut_gains,
                                           cfg.pilot_offsets)
    u, groups = cfg.n_unicast, s[cfg.n_unicast:]
    return EstimationStats(unicast_var=variances[:u],
                           multicast_var=_views(variances[u:], cfg.group_offsets),
                           group_var=groups * groups / (1.0 + groups), ut_error=errors)

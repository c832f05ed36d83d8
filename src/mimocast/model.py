"""System-level configuration, large-scale fading data, and the MMSE
channel-estimation variance formulas every other module consumes.

All powers are stored pre-normalized to unit noise variance; the scenario
module owns the physical-unit conversion.  Types are immutable after
construction and all operations are pure functions.

Per-UT data is stored once, as one read-only float64 array in pilot order
(``SystemConfig.pilot_offsets``): the unicast UTs, each on a pilot of its
own, then each group's members on the group's pilot.  ``ut_offsets`` (G + 2
entries) marks where the unicast UTs and each group start, then the length.
A constructor takes the two sides (``unicast_gains``, and
``multicast_gains`` with one row per group), accepting any (nested)
sequence of numbers, and copies them into that array (``_store``).  Read
back, a side is built from the array on first read and then kept: the
unicast side a slice, the multicast side one view per group (``_side``).
``validate_config`` and ``require_valid``, the one validation path, check
a config with one drop (a FadingProfile) or a stack of drops (a FadingStack).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import reprlib
import sys
from dataclasses import MISSING, dataclass, field, fields
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
    Python complex does (float() would drop its imaginary part), and a
    number too large for a float raises ValueError naming it."""
    if isinstance(x, np.complexfloating):
        raise TypeError(f"expected a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{reprlib.repr(x)} is too large for a float") from None


def _vector(xs) -> np.ndarray:
    """Read-only float64 copy of a flat sequence of numbers.

    Anything but a 1-D array that ``_cast_converts`` is converted entry by
    entry with ``_real``, so a non-numeric or complex entry raises TypeError.
    """
    if _cast_converts(xs) and xs.ndim == 1:
        return _read_only(xs.astype(np.float64))
    return _read_only(np.array([_real(x) for x in xs], dtype=np.float64))


def _matrix(xs) -> np.ndarray:
    """Read-only float64 copy of rows of numbers.  Anything but an array
    that ``_cast_converts`` is converted entry by entry with ``_real``, as
    ``_vector`` converts."""
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
    """Where each part starts in a flat array of consecutive parts, then
    its length."""
    return _read_only(np.array([0, *itertools.accumulate(sizes)], dtype=np.intp))


def _views(values, bounds: list[int], slot: int | slice):
    """The parts of an array (views) or list that start at ``bounds``: the
    one part at an index, or a tuple of the parts in a slice."""
    if isinstance(slot, int):
        return values[bounds[slot]:bounds[slot + 1]]
    edges = bounds[slot]
    return tuple(values[a:b] for a, b in zip(edges, edges[1:]))


def _vectors(rows) -> list[np.ndarray]:
    """Rows of numbers as 1-D arrays that one cast to float64 converts: a
    row that is a 1-D array ``_cast_converts`` as it is, any other through
    ``_vector``."""
    return [row if _cast_converts(row) and row.ndim == 1 else _vector(row) for row in rows]


def _joined(vectors: list[np.ndarray]) -> np.ndarray:
    """``_vectors`` rows as one read-only float64 array, copied by the
    concatenation alone."""
    return _read_only(np.concatenate(vectors, dtype=np.float64, casting="unsafe") if vectors
                      else np.empty(0))


def _laid_out(rows) -> tuple[np.ndarray, np.ndarray]:
    """Rows of numbers as one array, each converted by ``_vectors`` and the
    whole copied once (``_joined``), and the offsets where they start."""
    vectors = _vectors(rows)
    return _joined(vectors), _offsets(map(len, vectors))


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


def _refrozen(value):
    """``value`` with each array in it, or in a tuple of it, read-only."""
    if isinstance(value, np.ndarray):
        return _read_only(value) if value.flags.writeable else value
    if isinstance(value, tuple):
        return tuple(_refrozen(v) for v in value)
    return value


def _side(array: str, slot: int | slice, offsets: str = "ut_offsets"):
    """A constructor field stored in ``array`` (an init=False field, as are
    its ``offsets``), read back as the part(s) of it at ``slot``
    (``_views``).  One array's sides are declared in the order of its parts."""
    return field(compare=False, metadata={"side": (array, offsets, slot)})


class _ArrayRecord:
    """Value equality, hashing and ``to_dict`` for frozen dataclasses
    holding arrays.  A record compares and hashes by what it stores, so the
    offsets tell two groupings of the same values apart."""

    def __getattr__(self, name):
        # Reached only for what the record does not hold: a side not read yet.
        f = self.__dataclass_fields__.get(name)
        if f is None or "side" not in f.metadata:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        array, offsets, slot = f.metadata["side"]
        object.__setattr__(self, name, _views(getattr(self, array),
                                              getattr(self, offsets).tolist(), slot))
        return self.__dict__[name]

    def __getstate__(self):
        # What pickle and deepcopy carry: the stored fields, not what is
        # built on read (sides, cached properties), nor a field the record
        # may go without (init=False with a default: a solve's problem).
        return {f.name: self.__dict__[f.name] for f in fields(self)
                if f.name in self.__dict__ and "side" not in f.metadata
                and (f.init or f.default is MISSING)}

    def __setstate__(self, state):
        # Both give back writeable copies of the arrays.
        self.__dict__.update((name, _refrozen(value)) for name, value in state.items())

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


def _store(record):
    """Copy a record's sides (``_side`` fields), converted by ``_vectors``,
    into their arrays in field order, each array's offsets beside it; the
    sides are dropped, to be built again when read.  Arrays that share
    offsets must have parts of the same lengths."""
    parts = {}
    for f in record.__dataclass_fields__.values():
        if "side" in f.metadata:
            array, offsets, slot = f.metadata["side"]
            value = record.__dict__.pop(f.name)
            parts.setdefault((array, offsets), []).extend(
                [value] if isinstance(slot, int) else value)
    for (array, offsets), rows in parts.items():
        values, bounds = _laid_out(rows)
        if offsets in record.__dict__ and record.__dict__[offsets].tolist() != bounds.tolist():
            raise ValueError(f"the parts stored at {offsets} must have equal lengths")
        object.__setattr__(record, array, values)
        object.__setattr__(record, offsets, bounds)


def _owned(cls, **values):
    """A ``cls`` record holding ``values`` as they are: the one path that
    stores an array without a copy or a check, for read-only arrays the
    package built.  Constructors copy whatever they are given."""
    record = object.__new__(cls)
    record.__dict__.update(values)
    return record


def _freeze(record, names):
    """Store each named field of a frozen record as a read-only float64
    array (``_vector``)."""
    for name in names:
        object.__setattr__(record, name, _vector(getattr(record, name)))


def _count(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _group_counts(sizes) -> tuple[int, ...]:
    """Every group size through ``_count``, named by its index."""
    return tuple(_count(k, f"group_sizes[{g}]") for g, k in enumerate(sizes))


def _with_count(cfg: "SystemConfig", name: str, value) -> "SystemConfig":
    """``cfg`` with another ``n_antennas`` or ``pilot_length``, read through
    ``_count``: a record that shares every other field with ``cfg``, and
    all it built from them.  Nothing else a config stores or derives
    depends on either count, so it equals the config built afresh."""
    return _owned(SystemConfig, **{**cfg.__dict__, name: _count(value, name)})


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

    The energy caps are stored in ``ut_energy_caps``, at offsets set by the
    sides' lengths, which ``validate_config`` checks against the counts;
    ``group_offsets`` is derived from ``group_sizes``, ``pilot_offsets`` from
    both on first read.
    """

    n_antennas: int
    coherence_length: int
    n_unicast: int
    group_sizes: tuple[int, ...]
    pilot_length: int
    total_power: float
    unicast_energy_caps: np.ndarray = _side("ut_energy_caps", 0)
    multicast_energy_caps: tuple[np.ndarray, ...] = _side("ut_energy_caps", slice(1, None))
    sse_weights: np.ndarray
    ut_energy_caps: np.ndarray = field(init=False, repr=False)
    ut_offsets: np.ndarray = field(init=False, repr=False)
    group_offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n_antennas", "coherence_length", "n_unicast", "pilot_length"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        object.__setattr__(self, "group_sizes", _group_counts(self.group_sizes))
        object.__setattr__(self, "group_offsets", _offsets(self.group_sizes))
        object.__setattr__(self, "total_power", _real(self.total_power))
        _store(self)
        _freeze(self, ("sse_weights",))

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
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.init})


@dataclass(frozen=True, eq=False)
class FadingProfile(_ArrayRecord):
    """Large-scale fading coefficients for every UT in the system, stored
    in ``ut_gains``, in pilot order, at ``ut_offsets``."""

    unicast_gains: np.ndarray = _side("ut_gains", 0)
    multicast_gains: tuple[np.ndarray, ...] = _side("ut_gains", slice(1, None))
    ut_gains: np.ndarray = field(init=False, repr=False)
    ut_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _store(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FadingProfile":
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.init})


@dataclass(frozen=True, eq=False)
class FadingStack(_ArrayRecord):
    """Large-scale fading of several drops of one cell: (drops, UTs) gains,
    each row laid out like ``FadingProfile.ut_gains``, copied by ``_matrix``.
    An allocation problem (``allocation._mmf_problem``, ``_sse_problem``)
    reads this or a FadingProfile, and gives one row of results per drop.
    The sum-SE problem reads the unicast gains alone, so a stack of those
    (``n_unicast`` UTs and no groups) serves it as well."""

    ut_gains: np.ndarray
    n_unicast: int
    group_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ut_gains", _matrix(self.ut_gains))
        object.__setattr__(self, "n_unicast", _count(self.n_unicast, "n_unicast"))
        object.__setattr__(self, "group_sizes", _group_counts(self.group_sizes))
        if self.ut_gains.ndim != 2 or self.ut_gains.shape[1] != self.ut_offsets[-1]:
            raise ValueError(f"ut_gains must hold one row of {self.ut_offsets[-1]} gains per "
                             f"drop, got shape {self.ut_gains.shape}")

    @functools.cached_property
    def ut_offsets(self) -> np.ndarray:
        """Where the unicast UTs and then each group start in a row, then its length."""
        return _offsets([self.n_unicast, *self.group_sizes])

    @property
    def n_drops(self) -> int:
        return len(self.ut_gains)

    def rows(self, start: int, stop: int) -> "FadingStack":
        """The stack of drops ``start`` to ``stop - 1``, viewing this one's gains."""
        return _owned(FadingStack, ut_gains=self.ut_gains[start:stop], n_unicast=self.n_unicast,
                      group_sizes=self.group_sizes, ut_offsets=self.ut_offsets)

    def drop(self, d: int) -> FadingProfile:
        return _owned(FadingProfile, ut_gains=self.ut_gains[d], ut_offsets=self.ut_offsets)


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

    Both per-UT sides are stored in ``ut_var``.
    """

    unicast_var: np.ndarray = _side("ut_var", 0)
    multicast_var: tuple[np.ndarray, ...] = _side("ut_var", slice(1, None))
    group_var: np.ndarray
    ut_error: np.ndarray | None = None
    ut_var: np.ndarray = field(init=False, repr=False)
    ut_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _store(self)
        _freeze(self, ("group_var",) if self.ut_error is None else ("group_var", "ut_error"))
        for name, what, n in (("group_var", "group", len(self.ut_offsets) - 2),
                              ("ut_error", "UT", self.ut_var.size)):
            if (value := getattr(self, name)) is not None and value.size != n:
                raise ValueError(f"{name} must hold one variance per {what} ({n}), "
                                 f"got {value.size}")


@dataclass(frozen=True)
class Violation:
    """One invariant violation: where it is, what was found, why it is wrong."""

    field: str
    value: object
    message: str

    def __str__(self):
        return f"{self.field}={_cut(repr(self.value))}: {self.message}"


def _cut(text: str, limit: int = 80) -> str:
    """``text`` cut in the middle to ``limit`` characters when longer, as
    ``reprlib`` cuts the repr of a long int."""
    if len(text) <= limit:
        return text
    head = (limit - 3) // 2
    return f"{text[:head]}...{text[len(text) - (limit - 3 - head):]}"


def _within(values: np.ndarray, lower: float) -> bool:
    """Whether every entry lies in (lower, inf); False for any NaN."""
    return values.size == 0 or (values.min() > lower and values.max() < math.inf)


def _outside(values: np.ndarray, lower: float) -> np.ndarray:
    """Which entries lie outside (lower, inf), NaN included."""
    return ~((values > lower) & (values < math.inf))


def _parts(cfg: SystemConfig, values: np.ndarray, parts: list[tuple[str, list[int]]],
           lower: float, message: str) -> list[Violation]:
    """The violations of per-UT fields stored in ``values``, each given as
    its name and where its parts start, then its end: a shape unlike the
    config's, else each entry outside (lower, inf), NaN included, in index
    order, as ``name[group][member]`` or ``name[index]``."""
    v = []
    for name, bounds in parts:
        got = tuple(b - a for a, b in zip(bounds, bounds[1:]))
        if grouped := name.startswith("multicast"):
            want, rule = cfg.group_sizes, "shape must match group_sizes"
        else:
            (got,), want, rule = got, cfg.n_unicast, "length must equal n_unicast"
        part, starts = values[bounds[0]:bounds[-1]], [b - bounds[0] for b in bounds]
        if got != want:
            v.append(Violation(name, got, f"{rule} = {want}"))
        elif not _within(part, lower):
            for i in np.flatnonzero(_outside(part, lower)).tolist():
                g = bisect.bisect_right(starts, i) - 1
                where = f"[{g}][{i - starts[g]}]" if grouped else f"[{i}]"
                v.append(Violation(f"{name}{where}", float(part[i]), message))
    return v


def _config_violations(cfg: SystemConfig) -> list[Violation]:
    """The config's violations: counts, pilot length, power, caps, weights."""
    v: list[Violation] = []
    if cfg.n_antennas < 1:
        v.append(Violation("n_antennas", cfg.n_antennas, "must be a positive integer"))
    elif cfg.n_antennas > sys.float_info.max:
        v.append(Violation("n_antennas", cfg.n_antennas, "must be a count a float can hold"))
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
    elif cfg.pilot_length > sys.float_info.max:
        v.append(Violation("pilot_length", cfg.pilot_length, "must be a count a float can hold"))
    if not (math.isfinite(cfg.total_power) and cfg.total_power > 0):
        v.append(Violation("total_power", cfg.total_power, "must be positive and finite"))
    caps = cfg.ut_offsets.tolist()
    v += _parts(cfg, cfg.ut_energy_caps, [("unicast_energy_caps", caps[:2]),
                                          ("multicast_energy_caps", caps[1:])],
                0.0, "energy cap must be positive")
    return v + _parts(cfg, cfg.sse_weights, [("sse_weights", [0, cfg.sse_weights.size])], 0.0,
                      "weight must be positive")


def _gain_violations(cfg: SystemConfig, fading: FadingProfile | FadingStack,
                     search: bool) -> list[Violation]:
    """The gains' violations against the config's layout, of one drop (a
    profile is one): drop 0, or with ``search`` the first with any, found
    by one check over the gain matrix.  A stack without groups holds the
    unicast block alone, and is checked on that block."""
    rows, offsets = np.atleast_2d(fading.ut_gains), fading.ut_offsets.tolist()
    if not len(rows):
        raise ValueError("need at least one drop")
    parts = [("unicast_gains", offsets[:2]), ("multicast_gains", offsets[1:])]
    if isinstance(fading, FadingStack) and not fading.group_sizes:
        parts = parts[:1]

    def drop(d: int) -> list[Violation]:
        return _parts(cfg, rows[d], parts, MIN_GAIN, "non-positive, sub-normal, or non-finite gain")

    v = drop(0)
    if v or not search or len(rows) == 1 or _within(rows, MIN_GAIN):
        return v
    return drop(int(np.argmax(_outside(rows, MIN_GAIN).any(axis=-1))))


def validate_config(cfg: SystemConfig, fading: FadingProfile | FadingStack) -> list[Violation]:
    """Check every type invariant; return the (possibly empty) violation
    list: the config's, then those of the first drop (of a stack) whose
    pair with ``cfg`` has any, as checking each drop in turn would find."""
    v = _config_violations(cfg)
    return v + _gain_violations(cfg, fading, search=not v)


def require_valid(cfg: SystemConfig, fading: FadingProfile | FadingStack
                  ) -> tuple[SystemConfig, FadingProfile | FadingStack]:
    """Return the pair unchanged when valid, raise InvalidConfigError
    otherwise.  Of a FadingStack (one drop at least) the config is checked
    once and the gain matrix once, and it raises what its first invalid
    drop raises; a stack of the unicast block alone (no groups, all a
    sum-SE problem reads) is checked on that block."""
    violations = validate_config(cfg, fading)
    if violations:
        raise InvalidConfigError(violations)
    return cfg, fading


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
    powers = _joined(_vectors([pilot_powers_unicast, *pilot_powers_multicast]))
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
    groups = s[cfg.n_unicast:]
    return _owned(EstimationStats, ut_var=_read_only(variances), ut_offsets=cfg.ut_offsets,
                  group_var=_read_only(groups * groups / (1.0 + groups)),
                  ut_error=_read_only(errors))

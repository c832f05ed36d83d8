"""Exception types shared across the package."""

from collections import Counter

# Violations of one field named in an InvalidConfigError message; the rest
# are only counted.
_SHOWN_PER_FIELD = 3


class MimocastError(Exception):
    """Base class for all package-specific errors."""


class InvalidConfigError(MimocastError):
    """Raised when a configuration or fading profile violates an invariant.

    Carries the full list of violations so callers can report all problems
    at once instead of fixing them one by one.  The message names the first
    few entries of each field (``caps[0]``, ``caps[1]``, ... count as one
    field) and then only counts the rest, so one bad array of a thousand
    entries stays one readable line.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        names = [v.field.partition("[")[0] for v in self.violations]
        total, seen, parts = Counter(names), Counter(), []
        for v, name in zip(self.violations, names):
            seen[name] += 1
            if seen[name] <= _SHOWN_PER_FIELD:
                parts.append(str(v))
            elif seen[name] == _SHOWN_PER_FIELD + 1:
                parts.append(f"… and {total[name] - _SHOWN_PER_FIELD} more {name} violations")
        super().__init__(f"invalid configuration: {'; '.join(parts)}")


class ZfInfeasibleError(MimocastError):
    """Zero-forcing requires more antennas than served streams (N > G + U)."""


class DegenerateInputError(MimocastError):
    """An input combination outside a solver's domain (e.g. empty groups)."""


class PlacementError(MimocastError, ValueError):
    """User counts no placement can draw: a negative unicast count or an
    empty group."""

"""Shared exception and report types, and the integer check of both
record layers.

A validator returns a :class:`Report`; a gate that refuses a check words
its ``ValueError`` with :meth:`Report.first_three`.  Error taxonomy used
across the package:

* ``ValueError`` -- malformed arguments (wrong sizes, ids that do not
  resolve, words that are not permutations).  Raised eagerly.
* ``NonRealizableError`` -- structurally well-formed input that cannot be
  completed to the geometric object it claims to describe (critical-value
  counts that force no genus, an Euler characteristic that no closed
  surface has, a surface of another genus than the counts force).
* ``ResourceLimitError`` -- the request exceeds the configured search
  bounds; nothing was computed.
"""

from __future__ import annotations


class NonRealizableError(Exception):
    """Input is valid data but describes no realizable surface.

    When the rejection comes from a genus check, the figures behind it
    are kept as attributes: ``euler_characteristic`` of the surface the
    park would close to, its ``built_genus`` and the ``forced_genus`` of
    the critical-value count.  Each is ``None`` when not computed.
    Extraction's check reads the counts alone, the characteristic being
    ``2d - 2t - s - D`` with ``D`` the corners whose element moves four
    whites, so it raises before any cell is built.
    """

    def __init__(
        self,
        *args: object,
        euler_characteristic: int | None = None,
        built_genus: int | None = None,
        forced_genus: int | None = None,
    ):
        super().__init__(*args)
        self.euler_characteristic = euler_characteristic
        self.built_genus = built_genus
        self.forced_genus = forced_genus


class ResourceLimitError(Exception):
    """Requested computation exceeds the configured bounds."""


def _require_int(value: object, what: str) -> int:
    """``value`` when it is an ``int`` and not a ``bool``; ``ValueError``
    naming ``what`` otherwise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


class Report:
    """Outcome of a validator, read-only: ``violations`` pairs a label or
    rule code with a detail string, ``ok`` holds exactly when there are
    none, and truthiness equals ``ok``."""

    __slots__ = ("violations",)

    def __init__(self, violations) -> None:
        object.__setattr__(self, "violations", tuple(violations))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Report is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Report is read-only")

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        return f"Report(ok={self.ok}, violations={self.violations!r})"

    def first_three(self) -> str:
        """The first three violations as ``label: detail``, joined by ``; ``."""
        return "; ".join(f"{label}: {detail}" for label, detail in self.violations[:3])

"""Shared exception types.

Error taxonomy used across the package:

* ``ValueError`` -- malformed arguments (wrong sizes, ids that do not
  resolve, words that are not permutations).  Raised eagerly.
* ``NonRealizableError`` -- structurally well-formed input that cannot be
  completed to the geometric object it claims to describe (critical-value
  counts that force no genus, an Euler characteristic that no closed
  surface has, a surface of another genus than the counts force).
* ``ResourceLimitError`` -- the request exceeds the configured search
  bounds; nothing was computed.
* ``InconsistencyError`` -- an internal invariant failed.  Reaching this
  from public entry points on validated input is a bug.
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


class InconsistencyError(Exception):
    """An internal cross-check failed; indicates a bug, not bad input."""

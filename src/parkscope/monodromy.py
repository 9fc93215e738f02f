"""Monodromy data for real branched coverings.

A :class:`MonodromyRep` records a degree-``d`` covering through the action
of three kinds of generators on the two-colored ground set of ``2*d``
half-sheets (whites ``0..d-1``, blacks ``d..2d-1``):

* ``x[0..t-1]`` -- one permutation per conjugate pair of non-real critical
  values ("cone points");
* ``e`` -- the closing permutation that completes the word of the ``x``
  generators to the identity;
* ``c[0..s]`` -- ``s + 1`` boundary reflections, one per boundary arc,
  with ``s`` the number of real critical values ("corner points").

All products are function composition with the right factor acting first
(see :mod:`parkscope.permgroup`).  Generator labels in diagnostics are
1-based (``x[1]..x[t]``, ``c[1]..c[s+1]``, ``corner[1]..corner[s]``) to
match the usual presentation of boundary chains; the JSON arrays that
carry them are plain 0-based arrays.

The defining conditions, checked by :func:`validate_relations`, are:

* every ``x[i]`` and every ``c[i]`` is an involution;
* every corner element ``c[k] . c[k+1]`` (``k = 1..s``) is an involution;
* ``x[1] . x[2] ... x[t] . e`` is the identity;
* ``c[1] = e . c[s+1] . e^-1`` (the seam condition tying the last
  reflection back to the first around the closing permutation);
* the generated group acts transitively on all ``2*d`` elements.

:func:`validate_genericity` checks the extra structure present when the
covering has only simple, pairwise distinct critical values; see its
docstring for the two checking modes.

A real function ``f`` comes with an antiholomorphic involution σ of its
surface, ``f . σ = conj . f``: a deck transformation of the orbifold
covering whose monodromy a representation records.  So σ acts on the
``2*d`` half-sheets as a matching that commutes with every ``x``, ``e``
and ``c``, and each ``x`` acts on the blacks as the σ-mirror of its white
transposition.  Such a σ is a *real structure*: data beside the
representation, not a function of it (the one representation of
``(2, 1, 0)`` has two).  Neither validator asks for one, enumeration picks
the black halves freely and extraction reads no black data; the tests
count real structures by brute force (``tests/conftest.py``).
"""

from __future__ import annotations

from typing import Any, Sequence

from . import permgroup as pg
from .errors import NonRealizableError, Report, _Record, _require_int, _trusted
from .permgroup import Perm

# ---------------------------------------------------------------------------
# the representation
# ---------------------------------------------------------------------------


class MonodromyRep(_Record, frozen=True):
    """Generator images of a degree-``degree`` real covering.

    Fields mirror the JSON schema: ``x`` has one permutation per cone
    point, ``c`` has ``corner_points + 1`` boundary reflections, ``e`` is
    stored explicitly but is redundant given ``x`` (see :func:`derive_e`);
    ``e=None`` stores the derived value.  Construction coerces each
    generator once and validates shapes only; the defining conditions are
    checked separately by :func:`validate_relations`.  Enumeration builds
    its own representations through :func:`_generic_trusted` instead,
    unchecked and marked valid and generic; any other representation is checked
    once, the first time a public entry point that needs valid generic
    data sees it (see :func:`require_generic`).  The mark is a
    :class:`_Mark`, which also holds extraction's memo of what the park
    takes from the white skeleton: enumeration gives every representation
    of one skeleton the same mark, and a representation that passes the
    check gets its own.  The mark is not a field: equality, hashing, ``repr``
    and the JSON form ignore it, and the constructor,
    :func:`conjugate_rep` and :func:`from_json_dict` make unmarked objects.
    """

    degree: int
    x: tuple[Perm, ...]
    e: Perm | None
    c: tuple[Perm, ...]

    # Not annotated, so not a field: None, or a _Mark set on an instance
    # by require_generic once it passed both validators, or by
    # _generic_trusted for what enumeration built.
    _mark = None

    def __post_init__(self) -> None:
        if (
            not isinstance(self.degree, int)
            or isinstance(self.degree, bool)
            or self.degree < 1
        ):
            raise ValueError(f"degree must be a positive integer, got {self.degree!r}")
        n = 2 * self.degree
        object.__setattr__(self, "x", tuple(pg.as_perm(p, n) for p in self.x))
        # c is checked before e is derived, so that a degree no generator
        # matches fails here and not in building the identity of that size.
        object.__setattr__(self, "c", tuple(pg.as_perm(p, n) for p in self.c))
        if not self.c:
            raise ValueError(
                "at least one boundary reflection is required (the list has s+1 entries)"
            )
        if self.e is None:
            object.__setattr__(self, "e", derive_e(self.x, self.degree))
        else:
            object.__setattr__(self, "e", pg.as_perm(self.e, n))

    # -- derived counts ----------------------------------------------------

    @property
    def cone_points(self) -> int:
        """Number of cone points t (= number of ``x`` generators)."""
        return len(self.x)

    @property
    def corner_points(self) -> int:
        """Number of corner points s (= number of reflections minus one)."""
        return len(self.c) - 1

    @property
    def ground_size(self) -> int:
        """Size of the two-colored ground set, ``2 * degree``."""
        return 2 * self.degree

    @property
    def critical_value_count(self) -> int:
        """Total number of critical values, ``2 * cone_points + corner_points``."""
        return 2 * len(self.x) + (len(self.c) - 1)

    def generators(self) -> tuple[Perm, ...]:
        """All generator images: the ``x`` list, then ``e``, then the ``c`` list."""
        return self.x + (self.e,) + self.c

    def corner_element(self, k: int) -> Perm:
        """The corner element at corner ``k`` (1-based): ``c[k] . c[k+1]``."""
        if not 1 <= k <= self.corner_points:
            raise ValueError(
                f"corner index {k} outside 1..{self.corner_points}"
            )
        return pg.compose(self.c[k - 1], self.c[k])


class _Mark:
    """The mark of a representation known to be valid and generic.

    ``cells`` is extraction's memo of what depends only on the white
    skeleton (the white halves of the ``x`` generators, with ``c[1]``
    standard): ``None`` until the first extraction fills it, then an
    ``extraction._Skeleton``: the white face cycles, the mirror index of
    each, the entrance genera, the entrance of each face, the exits in
    mirrored orbit order, and the immutable node and alley records these
    fix."""

    __slots__ = ("cells",)

    def __init__(self) -> None:
        self.cells: tuple | None = None


def _generic_trusted(
    degree: int, x: tuple[Perm, ...], c: tuple[Perm, ...], e: Perm, mark: _Mark
) -> MonodromyRep:
    """A representation enumeration built valid and generic, with the
    closing permutation ``e`` it already computed: made through
    :func:`_trusted` and carrying ``mark``, which enumeration shares among
    the representations of one white skeleton, so that
    :func:`require_generic` never checks it."""
    m = _trusted(MonodromyRep, degree=degree, x=x, e=e, c=c)
    object.__setattr__(m, "_mark", mark)
    return m


def derive_e(x: Sequence[Perm], degree: int) -> Perm:
    """The closing permutation forced by the word condition.

    ``x[1] . x[2] ... x[t] . e = identity`` determines
    ``e = (x[1] . x[2] ... x[t])^-1``; the empty list gives the identity.
    """
    return pg.inverse(pg.compose_all(list(x), 2 * degree))


def build(
    degree: int,
    x: Sequence[Sequence[int]],
    c: Sequence[Sequence[int]],
    e: Sequence[int] | None = None,
) -> MonodromyRep:
    """Construct a :class:`MonodromyRep`, deriving ``e`` when omitted.

    A supplied ``e`` is stored as given; whether it matches the derived
    value is part of :func:`validate_relations` (the word condition).
    """
    return MonodromyRep(degree=degree, x=x, e=e, c=c)


def conjugate_rep(m: MonodromyRep, relabel: Perm) -> MonodromyRep:
    """Relabel the ground set of ``m`` along the permutation ``relabel``.

    Every generator ``p`` becomes ``relabel . p . relabel^-1``.  All
    defining conditions, genericity and numeric invariants are preserved;
    color-dependent checks additionally need ``relabel`` to preserve colors.
    """
    if len(relabel) != m.ground_size:
        raise ValueError(
            f"relabeling acts on {len(relabel)} elements, expected {m.ground_size}"
        )
    return MonodromyRep(
        degree=m.degree,
        x=tuple(pg.conjugate(p, relabel) for p in m.x),
        e=pg.conjugate(m.e, relabel),
        c=tuple(pg.conjugate(p, relabel) for p in m.c),
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_relations(m: MonodromyRep) -> Report:
    """Check the defining conditions and transitivity of ``m``.

    Returns a :class:`~parkscope.errors.Report` whose violations pair a
    1-based generator or condition label with a reason, one per failed
    condition; it never raises on a well-shaped representation.
    """
    violations: list[tuple[str, str]] = []
    n = m.ground_size
    ident = pg.identity(n)
    for i, p in enumerate(m.x, 1):
        if not pg.is_involution(p):
            violations.append((f"x[{i}]", "squared is not the identity"))
    for i, p in enumerate(m.c, 1):
        if not pg.is_involution(p):
            violations.append((f"c[{i}]", "squared is not the identity"))
    for k in range(1, m.corner_points + 1):
        u = m.corner_element(k)
        if not pg.is_involution(u):
            violations.append(
                (f"corner[{k}]", f"c[{k}].c[{k + 1}] squared is not the identity")
            )
    word = pg.compose(pg.compose_all(list(m.x), n), m.e)
    if word != ident:
        violations.append(
            ("word", "x[1]...x[t].e is not the identity (e disagrees with the x list)")
        )
    seam = pg.conjugate(m.c[-1], m.e)
    if seam != m.c[0]:
        violations.append(
            ("seam", f"c[1] differs from e.c[{m.corner_points + 1}].e^-1")
        )
    orbit_list = pg._orbits(m.generators(), n, range(n))
    if len(orbit_list) > 1:
        violations.append(
            (
                "transitivity",
                f"action splits into {len(orbit_list)} orbits "
                f"(smallest elements: {[o[0] for o in orbit_list]})",
            )
        )
    return Report(violations)


GENERICITY_MODES = ("geometric", "strict")


def validate_genericity(m: MonodromyRep, mode: str = "geometric") -> Report:
    """Check that ``m`` looks like the monodromy of a covering with only
    simple, pairwise distinct critical values.

    In ``geometric`` mode (the default) three conditions are checked:

    1. each ``x[i]`` preserves colors and acts on whites as a single
       transposition;
    2. each corner element ``c[k] . c[k+1]`` (``k = 1..s``) preserves
       colors and acts on whites as one transposition or as a product of
       two disjoint transpositions;
    3. each ``c[i]`` is a product of ``degree`` disjoint transpositions,
       each interchanging a white and a black element.

    ``strict`` mode additionally requires, for conditions 1 and 2, that
    the permutation fixes every black element.  Note that condition 3
    forces corner elements to move blacks whenever they move whites, so
    strict mode rejects every transitive representation with corners;
    it exists for auditing, not for modeling.

    Returns a :class:`~parkscope.errors.Report` whose violations pair a
    1-based generator or corner label with a reason.  Failures are
    reported, never thrown, so the function is usable on input that fails
    :func:`validate_relations` as well.
    """
    if mode not in GENERICITY_MODES:
        raise ValueError(f"unknown genericity mode {mode!r}; use one of {GENERICITY_MODES}")
    d = m.degree
    violations: list[tuple[str, str]] = []

    def white_shape(p: Perm) -> list[int] | None:
        # Lengths of the nontrivial white cycles, or None when whites are
        # not closed under p; when they are, the unchecked core may walk them.
        if not pg.is_color_preserving(p, d):
            return None
        return sorted(len(cyc) for cyc in pg._cycles(p, pg.whites(d), False))

    for i, p in enumerate(m.x, 1):
        label = f"x[{i}]"
        shape = white_shape(p)
        if shape is None:
            violations.append((label, "does not preserve colors"))
        elif shape != [2]:
            violations.append((label, "white action is not a single transposition"))
        if mode == "strict" and shape is not None:
            if any(p[b] != b for b in pg.blacks(d)):
                violations.append((label, "moves a black element"))

    for k in range(1, m.corner_points + 1):
        label = f"corner[{k}]"
        u = m.corner_element(k)
        shape = white_shape(u)
        if shape is None:
            violations.append((label, "corner element does not preserve colors"))
        elif shape not in ([2], [2, 2]):
            violations.append(
                (label, "white action is not one or two disjoint transpositions")
            )
        if mode == "strict" and shape is not None:
            if any(u[b] != b for b in pg.blacks(d)):
                violations.append((label, "moves a black element"))

    for i, p in enumerate(m.c, 1):
        if not pg.is_matching(p, d):
            violations.append(
                (
                    f"c[{i}]",
                    f"is not a product of {d} disjoint white-black transpositions",
                )
            )

    return Report(violations)


def require_generic(m: MonodromyRep) -> None:
    """Raise ``ValueError`` unless ``m`` passes :func:`validate_relations`
    and geometric :func:`validate_genericity`, naming the first three
    failures of the first check that fails.  Each object is checked at
    most once: a rep that passes gets a fresh :class:`_Mark` of its own,
    and a marked rep returns at once.  The one gate of every public entry
    point that needs valid generic data, and of the CLI commands that do."""
    if m._mark is not None:
        return
    relations = validate_relations(m)
    if not relations:
        raise ValueError("monodromy fails relation validation: " + relations.first_three())
    genericity = validate_genericity(m, "geometric")
    if not genericity:
        raise ValueError("monodromy is not generic: " + genericity.first_three())
    object.__setattr__(m, "_mark", _Mark())


def genus_from_counts(m: MonodromyRep) -> int:
    """Genus of the covering surface from the critical-value count alone.

    With ``n = 2 * cone_points + corner_points`` the genus is
    ``(n - 2*degree + 2) / 2``.  Raises :class:`NonRealizableError` when
    that value is negative or not an integer, since no surface then
    matches the declared counts.
    """
    numerator = m.critical_value_count - 2 * m.degree + 2
    if numerator < 0 or numerator % 2 != 0:
        raise NonRealizableError(
            f"no surface has degree {m.degree} with {m.critical_value_count} "
            f"critical values (genus would be {numerator}/2)"
        )
    return numerator // 2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def to_json_dict(m: MonodromyRep) -> dict[str, Any]:
    """Plain-dict form of ``m`` in README's representation file format."""
    return {
        "degree": m.degree,
        "cone_points": m.cone_points,
        "corner_points": m.corner_points,
        "x": [list(p) for p in m.x],
        "e": list(m.e),
        "c": [list(p) for p in m.c],
    }


def from_json_dict(obj: Any) -> MonodromyRep:
    """Parse README's representation file format into a :class:`MonodromyRep`.

    ``e`` may be omitted and is then derived from the ``x`` list.  Count
    fields must be integers that match the array lengths; the record checks
    the degree and the generator shapes.  Malformed input raises
    ``ValueError``; defining conditions are *not* checked here.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for key in ("degree", "cone_points", "corner_points", "x", "c"):
        if key not in obj:
            raise ValueError(f"missing required key {key!r}")
    x_raw, c_raw = obj["x"], obj["c"]
    if not isinstance(x_raw, list) or not all(isinstance(p, list) for p in x_raw):
        raise ValueError("'x' must be a list of image arrays")
    if not isinstance(c_raw, list) or not all(isinstance(p, list) for p in c_raw):
        raise ValueError("'c' must be a list of image arrays")
    if _require_int(obj["cone_points"], "cone_points") != len(x_raw):
        raise ValueError(
            f"cone_points is {obj['cone_points']} but 'x' has {len(x_raw)} entries"
        )
    if _require_int(obj["corner_points"], "corner_points") != len(c_raw) - 1:
        raise ValueError(
            f"corner_points is {obj['corner_points']} but 'c' has {len(c_raw)} entries "
            "(expected corner_points + 1)"
        )
    e_raw = obj.get("e")
    if e_raw is not None and not isinstance(e_raw, list):
        raise ValueError("'e' must be an image array when present")
    return build(degree=obj["degree"], x=x_raw, c=c_raw, e=e_raw)

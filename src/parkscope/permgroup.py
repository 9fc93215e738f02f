"""Exact permutation algebra on a finite ground set.

A permutation of ``{0, ..., n-1}`` is stored in image form as a tuple
``p`` of length ``n`` with ``p[a]`` the image of ``a``.  All functions
are pure and total on valid input; malformed input raises ``ValueError``.

Composition is function composition: ``compose(p, q)`` maps ``a`` to
``p[q[a]]``, i.e. ``q`` acts first.  Everything downstream of this module
relies on that single convention.

The unchecked cores ``_cycles`` and ``_orbits`` take any increasing domain
closed under the permutations, for data the package built or validated.

Several helpers understand the two-colored ground set used by the rest of
the package: for degree ``d`` the ground set has ``2*d`` elements, the
first ``d`` ("white") indexed ``0..d-1`` and the last ``d`` ("black")
indexed ``d..2d-1``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def identity(n: int) -> Perm:
    """Identity permutation on ``n`` elements.

    >>> identity(4)
    (0, 1, 2, 3)
    """
    if n < 0:
        raise ValueError(f"negative ground set size: {n}")
    return tuple(range(n))


def as_perm(images: Sequence[int], n: int | None = None) -> Perm:
    """Validate ``images`` as a permutation and return it as a tuple.

    If ``n`` is given the permutation must act on exactly ``n`` elements.

    >>> as_perm([1, 0, 2])
    (1, 0, 2)
    >>> as_perm([0, 0, 1])
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 0..2: (0, 0, 1)
    """
    p = tuple(images)
    if n is not None and len(p) != n:
        raise ValueError(f"expected a permutation of {n} elements, got {len(p)}")
    m = len(p)
    seen = [False] * m
    for a in p:
        if not isinstance(a, int) or isinstance(a, bool):
            raise ValueError(f"permutation entries must be integers: {p!r}")
        if not 0 <= a < m or seen[a]:
            raise ValueError(f"not a permutation of 0..{m - 1}: {p!r}")
        seen[a] = True
    return p


def from_cycles(n: int, cycle_list: Iterable[Sequence[int]]) -> Perm:
    """Build a permutation of ``n`` elements from disjoint cycles.

    Elements not mentioned are fixed.  Cycles use the standard left-to-right
    convention: the cycle ``(a, b, c)`` maps ``a -> b -> c -> a``.

    >>> from_cycles(6, [(0, 1, 2), (3, 4)])
    (1, 2, 0, 4, 3, 5)
    >>> from_cycles(3, [(0, 1), (1, 2)])
    Traceback (most recent call last):
        ...
    ValueError: cycles are not disjoint: element 1 repeated
    """
    images = list(range(n))
    used: set[int] = set()
    for cyc in cycle_list:
        for a in cyc:
            if not 0 <= a < n:
                raise ValueError(f"cycle element {a} outside 0..{n - 1}")
            if a in used:
                raise ValueError(f"cycles are not disjoint: element {a} repeated")
            used.add(a)
        for i, a in enumerate(cyc):
            images[a] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


# ---------------------------------------------------------------------------
# group operations
# ---------------------------------------------------------------------------


def compose(p: Perm, q: Perm) -> Perm:
    """Function composition ``p`` after ``q``: maps ``a`` to ``p[q[a]]``.

    >>> compose(from_cycles(3, [(0, 1)]), from_cycles(3, [(1, 2)]))
    (1, 2, 0)
    """
    if len(p) != len(q):
        raise ValueError(f"size mismatch: {len(p)} vs {len(q)}")
    return tuple(p[a] for a in q)


def compose_all(perms: Sequence[Perm], n: int) -> Perm:
    """Compose a word of permutations; the last entry acts first.

    ``compose_all([p, q, r], n)`` equals ``p`` after ``q`` after ``r``.
    The empty word gives the identity on ``n`` elements.

    >>> t01, t12 = from_cycles(3, [(0, 1)]), from_cycles(3, [(1, 2)])
    >>> compose_all([t01, t12], 3) == compose(t01, t12)
    True
    >>> compose_all([], 3)
    (0, 1, 2)
    """
    acc = identity(n)
    for p in reversed(perms):
        acc = compose(p, acc)
    return acc


def inverse(p: Perm) -> Perm:
    """Inverse permutation.

    >>> inverse(from_cycles(3, [(0, 1, 2)]))
    (2, 0, 1)
    """
    out = [0] * len(p)
    for a, b in enumerate(p):
        out[b] = a
    return tuple(out)


def conjugate(p: Perm, s: Perm) -> Perm:
    """Conjugate of ``p`` by ``s``: the composition ``s . p . s^-1``.

    Relabels ``p`` along ``s``: if ``p`` maps ``a`` to ``b`` the result maps
    ``s[a]`` to ``s[b]``.

    >>> conjugate(from_cycles(3, [(0, 1)]), from_cycles(3, [(1, 2)]))
    (2, 1, 0)
    """
    if len(p) != len(s):
        raise ValueError(f"size mismatch: {len(p)} vs {len(s)}")
    out = [0] * len(p)
    for a, b in enumerate(p):
        out[s[a]] = s[b]
    return tuple(out)


def is_involution(p: Perm) -> bool:
    """True when ``p`` composed with itself is the identity.

    >>> is_involution(from_cycles(4, [(0, 1), (2, 3)]))
    True
    >>> is_involution(from_cycles(4, [(0, 1, 2)]))
    False
    """
    return all(p[b] == a for a, b in enumerate(p))


# ---------------------------------------------------------------------------
# cycle structure
# ---------------------------------------------------------------------------


def cycles(p: Perm, *, include_fixed: bool = False) -> list[tuple[int, ...]]:
    """Disjoint cycles of ``p``, deterministically ordered.

    Each cycle starts at its smallest element; cycles are listed by their
    smallest elements.  Fixed points are omitted unless ``include_fixed``.

    >>> cycles(from_cycles(6, [(2, 4, 3), (0, 1)]))
    [(0, 1), (2, 4, 3)]
    >>> cycles(identity(3), include_fixed=True)
    [(0,), (1,), (2,)]
    """
    return _cycles(p, range(len(p)), include_fixed)


def _cycles(p: Perm, domain: Sequence[int], include_fixed: bool) -> list[tuple[int, ...]]:
    """:func:`cycles` on an increasing ``domain`` closed under ``p``, unchecked."""
    seen = [False] * len(p)
    out: list[tuple[int, ...]] = []
    for start in domain:
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        a = p[start]
        while a != start:
            cyc.append(a)
            seen[a] = True
            a = p[a]
        if len(cyc) > 1 or include_fixed:
            out.append(tuple(cyc))
    return out


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths of ``p`` including fixed points, sorted descending.

    >>> cycle_type(from_cycles(5, [(0, 1, 2), (3, 4)]))
    (3, 2)
    """
    lengths = [len(c) for c in cycles(p, include_fixed=True)]
    return tuple(sorted(lengths, reverse=True))


# ---------------------------------------------------------------------------
# orbits of a generated group
# ---------------------------------------------------------------------------


def orbits(gens: Sequence[Perm], n: int) -> list[tuple[int, ...]]:
    """Orbits of the group generated by ``gens`` acting on ``0..n-1``.

    Returned as sorted tuples, ordered by smallest element.

    >>> orbits([from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)])], 4)
    [(0, 1), (2, 3)]
    >>> orbits([], 3)
    [(0,), (1,), (2,)]
    """
    for g in gens:
        if len(g) != n:
            raise ValueError(f"generator acts on {len(g)} elements, expected {n}")
    return _orbits(gens, n, range(n))


def _orbits(gens: Sequence[Perm], n: int, domain: Sequence[int]) -> list[tuple[int, ...]]:
    """:func:`orbits` on an increasing ``domain`` closed under ``gens``, unchecked."""
    if not gens:
        return [(a,) for a in domain]
    # Walking the domain upwards, each unseen element is the least of its
    # orbit; the orbit grows by applying every generator to every member.
    seen = [False] * n
    out: list[tuple[int, ...]] = []
    for start in domain:
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for a in orbit:
            for g in gens:
                b = g[a]
                if not seen[b]:
                    seen[b] = True
                    orbit.append(b)
        orbit.sort()
        out.append(tuple(orbit))
    return out


# ---------------------------------------------------------------------------
# the two-colored ground set
# ---------------------------------------------------------------------------


def whites(d: int) -> range:
    """White half of the ground set for degree ``d``: ``0..d-1``."""
    return range(d)


def blacks(d: int) -> range:
    """Black half of the ground set for degree ``d``: ``d..2d-1``."""
    return range(d, 2 * d)


def mirror_matching(d: int) -> Perm:
    """The index-aligned matching pairing each white ``w`` with black ``w + d``.

    >>> mirror_matching(3)
    (3, 4, 5, 0, 1, 2)
    """
    return tuple(range(d, 2 * d)) + tuple(range(d))


def is_color_preserving(p: Perm, d: int) -> bool:
    """True when ``p`` maps whites to whites and blacks to blacks.

    >>> is_color_preserving(from_cycles(4, [(0, 1), (2, 3)]), 2)
    True
    >>> is_color_preserving(from_cycles(4, [(0, 2)]), 2)
    False
    """
    if len(p) != 2 * d:
        raise ValueError(f"size mismatch: {len(p)} vs ground set {2 * d}")
    return all((p[a] < d) == (a < d) for a in range(2 * d))


def is_color_swapping(p: Perm, d: int) -> bool:
    """True when ``p`` maps whites to blacks and blacks to whites.

    >>> is_color_swapping(from_cycles(4, [(0, 2), (1, 3)]), 2)
    True
    """
    if len(p) != 2 * d:
        raise ValueError(f"size mismatch: {len(p)} vs ground set {2 * d}")
    return all((p[a] < d) != (a < d) for a in range(2 * d))


def is_matching(p: Perm, d: int) -> bool:
    """True when ``p`` is a color-swapping involution (a perfect matching
    of whites against blacks, written as a permutation).

    >>> is_matching(from_cycles(4, [(0, 2), (1, 3)]), 2)
    True
    >>> is_matching(from_cycles(4, [(0, 2, 1, 3)]), 2)
    False
    """
    return is_color_swapping(p, d) and is_involution(p)

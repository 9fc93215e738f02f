"""Exact Hurwitz numbers from transposition factorization counts.

``single_hurwitz(g, degrees)`` counts degree-``d`` connected coverings
with boundary cycle type ``degrees`` and ``b = 2g - 2 + k + sum(degrees)``
simple branch points, normalized by ``1/d!``:

    H = (1/d!) * #{(sigma, t_1..t_b) : sigma of the given cycle type,
                   t_i transpositions, t_b o ... o t_1 = sigma,
                   <t_1..t_b> transitive}

Equivalently, with one fixed ``sigma`` per cycle type, the count divided
by the centralizer order ``z = prod(degrees) * prod(multiplicity!)``.

Two independent engines compute the count: this module's fast one
(class-algebra walk for the raw product count, then inclusion-exclusion
over the anchored orbit to enforce transitivity), and the literal
brute-force enumerator of ``tests/conftest.py``, which shares no code
with it and is the verification standard.  Results are exact
``Fraction`` values.

``park_hurwitz`` multiplies the entrance contributions of a park with
the multinomial interleaving factor of their branch counts; exits do
not contribute.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import park as _park  # loads on first use: single_hurwitz never needs it
from .errors import ResourceLimitError
from .permgroup import cycle_type

#: Largest covering degree ``sum(degrees)`` accepted by default.
DEFAULT_DEGREE_BOUND = 6

#: Largest branch count ``b`` that :func:`single_hurwitz` computes.  The
#: class-algebra walk takes ``b`` steps on integers that grow with ``b``,
#: so its cost grows faster than linearly; at the bound, the slowest
#: degree-6 signature ``(1,)*6`` takes about a second.
BRANCH_COUNT_BOUND = 200


# ---------------------------------------------------------------------------
# signature arithmetic
# ---------------------------------------------------------------------------


def _check_signature(genus: int, degrees) -> tuple[int, ...]:
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
        raise ValueError(f"genus must be a non-negative integer, got {genus!r}")
    degs = tuple(degrees)
    if not degs:
        raise ValueError("degree list must be non-empty")
    for deg in degs:
        if not isinstance(deg, int) or isinstance(deg, bool) or deg < 1:
            raise ValueError(f"degrees must be positive integers, got {deg!r}")
    return degs


def _check_degree_bound(degree_bound: int) -> int:
    if not isinstance(degree_bound, int) or isinstance(degree_bound, bool) or degree_bound < 0:
        raise ValueError(f"degree_bound must be a non-negative integer, got {degree_bound!r}")
    return degree_bound


def _centralizer_order(degs: tuple[int, ...]) -> int:
    """Order of the centralizer of a permutation of cycle type ``degs``."""
    return math.prod(degs) * math.prod(map(math.factorial, Counter(degs).values()))


def _interleaving_factor(bs: list[int]) -> int:
    """Multinomial count of interleavings, ``(sum b_i)! / prod(b_i!)``, of
    non-negative branch counts ``bs``; unchecked."""
    out = math.factorial(sum(bs))
    for b in bs:
        out //= math.factorial(b)
    return out


# ---------------------------------------------------------------------------
# fast engine: class-algebra walk + anchored inclusion-exclusion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _partitions(d: int) -> tuple[tuple[int, ...], ...]:
    out = []
    def rec(rest: int, biggest: int, acc: tuple[int, ...]):
        if rest == 0:
            out.append(acc)
            return
        for part in range(min(rest, biggest), 0, -1):
            rec(rest - part, part, acc + (part,))
    rec(d, d, ())
    return tuple(out)


def _perm_of_type(shape: tuple[int, ...]) -> tuple[int, ...]:
    images = []
    start = 0
    for part in shape:
        images.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(images)


@lru_cache(maxsize=None)
def _step_table(d: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """For each class of ``S_d``: how often a transposition times a class
    representative lands in each class."""
    table: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    transpositions = list(combinations(range(d), 2))
    for shape in _partitions(d):
        rep = _perm_of_type(shape)
        row: dict[tuple[int, ...], int] = {}
        for i, j in transpositions:
            moved = list(rep)
            moved[i], moved[j] = moved[j], moved[i]
            target = cycle_type(tuple(moved))
            row[target] = row.get(target, 0) + 1
        table[shape] = row
    return table


@lru_cache(maxsize=None)
def _raw_count(shape: tuple[int, ...], b: int) -> int:
    """Tuples of ``b`` transpositions multiplying to one fixed permutation
    of type ``shape`` (no transitivity requirement)."""
    d = sum(shape)
    table = _step_table(d)
    identity = tuple(sorted([1] * d, reverse=True))
    counts = {cls: (1 if cls == identity else 0) for cls in _partitions(d)}
    for _ in range(b):
        nxt = {}
        for cls in counts:
            total = 0
            for target, ways in table[cls].items():
                total += ways * counts[target]
            nxt[cls] = total
        counts = nxt
    return counts[shape]


@lru_cache(maxsize=None)
def _connected_count(shape: tuple[int, ...], b: int) -> int:
    """Tuples of ``b`` transpositions multiplying to one fixed permutation
    of type ``shape`` and acting transitively together."""
    k = len(shape)
    total = _raw_count(shape, b)
    others = list(range(1, k))
    for size in range(0, k):
        for picked in combinations(others, size):
            if size == k - 1:
                continue  # the full set is the connected term itself
            part = tuple(sorted((shape[0],) + tuple(shape[i] for i in picked), reverse=True))
            rest = tuple(
                sorted(
                    (shape[i] for i in others if i not in picked), reverse=True
                )
            )
            for b1 in range(b + 1):
                term = _connected_count(part, b1)
                if term == 0:
                    continue
                total -= math.comb(b, b1) * term * _raw_count(rest, b - b1)
    return total


def clear_cache() -> None:
    """Forget the memoized transposition counts (for tests and benchmarks)."""
    _connected_count.cache_clear()
    _raw_count.cache_clear()


# ---------------------------------------------------------------------------
# public computations
# ---------------------------------------------------------------------------


def single_hurwitz(
    genus: int, degrees, degree_bound: int = DEFAULT_DEGREE_BOUND
) -> Fraction:
    """Exact connected Hurwitz number for one boundary signature.

    Impossible signatures give 0; a total degree above ``degree_bound``
    or a branch count above :data:`BRANCH_COUNT_BOUND` raises
    :class:`ResourceLimitError`.
    """
    shape = tuple(sorted(_check_signature(genus, degrees), reverse=True))
    return _single_hurwitz(genus, shape, _check_degree_bound(degree_bound))


def _single_hurwitz(genus: int, shape: tuple[int, ...], degree_bound: int) -> Fraction:
    """:func:`single_hurwitz` of a checked signature: ``genus >= 0`` and
    ``shape`` a non-empty tuple of positive degrees in decreasing order."""
    d = sum(shape)
    if d > degree_bound:
        raise ResourceLimitError(
            f"degree {d} exceeds the configured bound {degree_bound}"
        )
    b = 2 * genus - 2 + len(shape) + d
    if b > BRANCH_COUNT_BOUND:
        raise ResourceLimitError(
            f"branch count {b} exceeds the bound {BRANCH_COUNT_BOUND}"
        )
    count = _connected_count(shape, b)
    if count < 0:
        raise ArithmeticError(
            f"internal count for genus={genus} degrees={shape} is negative"
        )
    return Fraction(count, _centralizer_order(shape))


def park_hurwitz(park: _park.Park, degree_bound: int = DEFAULT_DEGREE_BOUND) -> Fraction:
    """Composite Hurwitz number of a park.

    The product of the single Hurwitz numbers of all entrances times the
    multinomial interleaving factor of their branch counts.  Exits are
    deliberately not multiplied in: the entrance data already determines
    the exit side through the involution.  The park gate checks what the
    unchecked cores :func:`_single_hurwitz` and :func:`_interleaving_factor`
    assume of each entrance signature and branch count.
    """
    _check_degree_bound(degree_bound)
    index = _park._validated_index(park)
    signatures = index.signatures
    branch_counts = []
    total = Fraction(1)
    for node in sorted(park.nodes, key=lambda nd: nd.id):
        if node.role != "entrance":
            continue
        signature = signatures[node.id]
        branch_counts.append(signature.branch_points)
        total *= _single_hurwitz(signature.genus, signature.degrees, degree_bound)
    return total * _interleaving_factor(branch_counts)

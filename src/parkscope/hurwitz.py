"""Exact Hurwitz numbers from transposition factorization counts.

``single_hurwitz(g, degrees)`` counts degree-``d`` connected coverings
with boundary cycle type ``degrees`` and ``b = 2g - 2 + k + sum(degrees)``
simple branch points, normalized by ``1/d!``:

    H = (1/d!) * #{(sigma, t_1..t_b) : sigma of the given cycle type,
                   t_i transpositions, t_b o ... o t_1 = sigma,
                   <t_1..t_b> transitive}

Equivalently, with one fixed ``sigma`` per cycle type, the count divided
by the centralizer order ``z = prod(degrees) * prod(multiplicity!)``.

Two independent engines compute the count: a fast one (class-algebra
walk for the raw product count, then inclusion-exclusion over the
anchored orbit to enforce transitivity) and a literal brute-force
enumerator used as the verification standard.  Results are exact
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
from .permgroup import compose, cycle_type, cycles, inverse, is_transitive

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


def branch_count(genus: int, degrees) -> int:
    """Number of simple branch points forced by a boundary signature.

    ``b = 2*genus - 2 + k + sum(degrees)`` with ``k = len(degrees)``,
    never negative: each of the ``k >= 1`` degrees is at least 1.
    """
    degs = _check_signature(genus, degrees)
    return 2 * genus - 2 + len(degs) + sum(degs)


def centralizer_order(degrees) -> int:
    """Order of the centralizer of a permutation with the given cycle type."""
    return _centralizer_order(_check_signature(0, degrees))


def _centralizer_order(degs: tuple[int, ...]) -> int:
    return math.prod(degs) * math.prod(map(math.factorial, Counter(degs).values()))


def interleaving_factor(branch_counts) -> int:
    """Multinomial count of interleavings, ``(sum b_i)! / prod(b_i!)``."""
    bs = list(branch_counts)
    for b in bs:
        if not isinstance(b, int) or isinstance(b, bool) or b < 0:
            raise ValueError(f"branch counts must be non-negative integers, got {b!r}")
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
# brute-force engine (verification standard)
# ---------------------------------------------------------------------------


def single_hurwitz_brute(genus: int, degrees) -> Fraction:
    """Literal enumeration of transposition tuples, with distance pruning.

    Same value as :func:`single_hurwitz`; exponentially slower, used as
    the independent verification path.  A total degree above
    :data:`DEFAULT_DEGREE_BOUND` raises :class:`ResourceLimitError`.
    """
    degs = tuple(sorted(_check_signature(genus, degrees), reverse=True))
    d = sum(degs)
    if d > DEFAULT_DEGREE_BOUND:
        raise ResourceLimitError(
            f"degree {d} exceeds the configured bound {DEFAULT_DEGREE_BOUND}"
        )
    b = branch_count(genus, degs)
    sigma = _perm_of_type(degs)
    transpositions = [
        tuple(j if a == i else i if a == j else a for a in range(d))
        for i, j in combinations(range(d), 2)
    ]
    if d == 1:
        count = 1 if b == 0 else 0
        return Fraction(count, centralizer_order(degs))

    identity = tuple(range(d))
    count = 0

    def rec(level: int, product, chosen: list):
        nonlocal count
        # distance pruning: remaining factors must suffice (and have the
        # right parity) to move the partial product onto sigma.
        need = compose(sigma, inverse(product))
        distance = d - len(cycles(need, include_fixed=True))
        remaining = b - level
        if distance > remaining or (remaining - distance) % 2 != 0:
            return
        if level == b:
            if product == sigma and is_transitive(chosen, d):
                count += 1
            return
        for tau in transpositions:
            chosen.append(tau)
            rec(level + 1, compose(tau, product), chosen)
            chosen.pop()

    rec(0, identity, [])
    return Fraction(count, centralizer_order(degs))


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
    return _single_hurwitz(genus, shape, degree_bound)


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


def one_part_oracle(d: int) -> Fraction:
    """Closed form for the genus-0 one-part signature: ``d**(d-3)``."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"degree must be a positive integer, got {d!r}")
    return Fraction(d) ** (d - 3)


def park_hurwitz(park: _park.Park, degree_bound: int = DEFAULT_DEGREE_BOUND) -> Fraction:
    """Composite Hurwitz number of a park.

    The product of the single Hurwitz numbers of all entrances times the
    multinomial interleaving factor of their branch counts.  Exits are
    deliberately not multiplied in: the entrance data already determines
    the exit side through the involution.  The park gate checks what
    :func:`_single_hurwitz` assumes of each entrance signature.
    """
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
    return total * interleaving_factor(branch_counts)

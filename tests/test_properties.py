"""Property tests drawn by Hypothesis (skipped when it is not installed)."""

import pytest

from parkscope import canonical_form, conjugate_rep, monodromy_to_park, park_isomorphic
from parkscope.permgroup import cycles, orbits

from conftest import check_park_isomorphism, enumerated_reps, realized_reps

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_relabeled_park_witness_checks_out(data):
    rep, park = data.draw(st.sampled_from(realized_reps(3, 3)))
    d = rep.degree
    white = data.draw(st.permutations(range(d)))
    black = data.draw(st.permutations(range(d)))
    moved = monodromy_to_park(conjugate_rep(rep, tuple(white) + tuple(d + b for b in black)))
    witness = park_isomorphic(park, moved)
    assert witness is not None
    check_park_isomorphism(park, moved, witness)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_canonical_form_invariant_under_relabeling(data):
    rep = data.draw(st.sampled_from(enumerated_reps(3, 5)))
    d = rep.degree
    white = data.draw(st.permutations(range(d)))
    black = data.draw(st.permutations(range(d)))
    moved = conjugate_rep(rep, tuple(white) + tuple(d + b for b in black))
    assert canonical_form(moved) == canonical_form(rep)


def _closure(gens, a):
    """The orbit of ``a``: apply every generator until nothing new appears."""
    orbit = {a}
    while True:
        grown = orbit | {g[b] for g in gens for b in orbit}
        if grown == orbit:
            return orbit
        orbit = grown


def _naive_orbits(gens, domain):
    found = {tuple(sorted(_closure(gens, a))) for a in domain}
    return sorted(found)


def _naive_cycles(p, domain, include_fixed):
    out = []
    for orbit in _naive_orbits([p], domain):
        cyc = [orbit[0]]
        while p[cyc[-1]] != orbit[0]:
            cyc.append(p[cyc[-1]])
        if len(cyc) > 1 or include_fixed:
            out.append(tuple(cyc))
    return out


@hypothesis.settings(deadline=None)
@hypothesis.given(data=st.data())
def test_orbits_and_cycles_match_fixed_point_closure(data):
    n = data.draw(st.integers(0, 8))
    gens = data.draw(st.lists(st.permutations(range(n)).map(tuple), max_size=4))
    include_fixed = data.draw(st.booleans())
    domain = range(n)
    if data.draw(st.booleans()):
        # a closed restriction: a union of orbits, given in any order
        everything = _naive_orbits(gens, domain)
        chosen = data.draw(st.lists(st.sampled_from(everything), unique=True)) if everything else []
        domain = sorted(a for orbit in chosen for a in orbit)
        restrict = data.draw(st.permutations(domain))
    else:
        restrict = None
    assert orbits(gens, n, restrict=restrict) == _naive_orbits(gens, domain)
    for p in gens:
        got = cycles(p, restrict=restrict, include_fixed=include_fixed)
        assert got == _naive_cycles(p, domain, include_fixed)

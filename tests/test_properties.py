"""Property tests drawn by Hypothesis (skipped when it is not installed)."""

import pytest

from parkscope import canonical_form, conjugate_rep, monodromy_to_park, park_isomorphic

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

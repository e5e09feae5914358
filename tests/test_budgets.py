"""The fixed search budgets: what happens when one runs out.  Each test
lowers a module constant for its own duration only."""

import pytest

from modelbench.catmodel import CatAmbient, ho_hom, inc0, k2_to_k1, path_object
from modelbench.fincat import (
    CatPresentation,
    Functor,
    GuardExceeded,
    Quiver,
    empty_category,
    enumerate_functors,
    interval_category,
    k_category,
    natural_isos,
    unit_category,
)
from modelbench.fincat import diagrams, enumfun
from modelbench.fincat.enumfun import functors_with
from modelbench.fincat.core import identity_functor
from modelbench.fincat.corpus import a2_path_category, full_corpus
from modelbench.lifting import is_orthogonal
from test_fincat_core import automorphism_corpus


def test_enumerate_functors_raises_past_node_budget(monkeypatch):
    I = interval_category()
    assert len(enumerate_functors(I, I)) == 4
    monkeypatch.setattr(enumfun, "NODE_BUDGET", 3)
    with pytest.raises(GuardExceeded):
        enumerate_functors(I, I)


def test_natural_isos_raises_past_node_budget(monkeypatch):
    # one iso component per object of K2, so two search nodes at least
    Id = identity_functor(k_category(2))
    assert natural_isos(Id, Id) is not None
    monkeypatch.setattr(enumfun, "NODE_BUDGET", 1)
    with pytest.raises(GuardExceeded):
        natural_isos(Id, Id)


def test_orthogonal_out_of_budget_leaves_no_memo(monkeypatch):
    f, g = k2_to_k1(), inc0()
    a = CatAmbient()
    monkeypatch.setattr(enumfun, "NODE_BUDGET", 2)
    with pytest.raises(GuardExceeded):
        a.orthogonal(f, g)
    assert (f, g) not in a._orth_memo
    monkeypatch.undo()
    got, want = a.orthogonal(f, g), is_orthogonal(CatAmbient(), f, g)
    assert (got.orthogonal, got.squares_checked) == (want.orthogonal, want.squares_checked)
    assert got.squares_checked > 0


def test_orthogonal_budget_sweep_raises_or_gives_the_full_answer(monkeypatch):
    # at every lowered budget is_orthogonal either raises or gives the
    # full-budget answer, never a "no"; an ambient that raised keeps no memo
    f, g = k2_to_k1(), inc0()
    full = is_orthogonal(CatAmbient(), f, g)
    assert (full.orthogonal, full.squares_checked) == (True, 1)
    answered = []
    for budget in range(1, 13):
        monkeypatch.setattr(enumfun, "NODE_BUDGET", budget)
        try:
            got = is_orthogonal(CatAmbient(), f, g)
        except GuardExceeded:
            a = CatAmbient()
            with pytest.raises(GuardExceeded):
                a.orthogonal(f, g)
            assert a._orth_memo == {}
            continue
        assert (got.orthogonal, got.squares_checked, got.counterexample) == (True, 1, None)
        answered.append(budget)
    assert answered == list(range(10, 13))


def test_path_route_and_ho_hom_out_of_budget_raise_never_answer(monkeypatch):
    # at every lowered budget the pinned path route and the bucketed ho_hom
    # either raise or give the full-budget answer: never "no K" and never
    # a class split in two
    cats = full_corpus()
    C, D = cats["I"], cats["IxI"]
    fs = enumerate_functors(C, D)
    classes = ho_hom(C, D)
    assert [len(cls) for cls in classes] == [len(fs)]
    F, G = fs[0], fs[-1]
    path = path_object(D)
    # the path route of naturally_isomorphic: the first K with K.p0 = F and
    # K.p1 = G
    path_route = lambda: next(functors_with(C, path.path_cat, [],
                                            [(path.p0, F), (path.p1, G)]), None)
    K = path_route()
    assert K is not None
    raised = []
    for budget in range(1, 80):
        monkeypatch.setattr(enumfun, "NODE_BUDGET", budget)
        for run, want in ((lambda: ho_hom(C, D), classes),
                          (path_route, K)):
            try:
                got = run()
            except GuardExceeded:
                raised.append(budget)
                continue
            assert got == want, budget
    # the smallest budget runs out, and the sweep reaches budgets that answer
    assert raised[0] == 1 and 79 not in raised


def test_ho_hom_orbit_out_of_budget_raises_never_splits_a_class(monkeypatch):
    # K1 -> Z2 x K1: six functors in three classes of two, found by the
    # orbit of conjugates under Aut((v,0)) x Aut((v,1)), four per functor.
    # Lowered budgets either raise or give every class whole, and some let
    # the enumeration finish and starve the orbit loop alone.
    C, D = k_category(1), automorphism_corpus()["Z2xK1"]
    classes = ho_hom(C, D)
    assert [len(cls) for cls in classes] == [2, 2, 2]
    orbit_starved = []
    for budget in range(1, 30):
        monkeypatch.setattr(enumfun, "NODE_BUDGET", budget)
        enumerated = False
        try:
            enumerated = len(enumerate_functors(C, D)) == 6
            got = ho_hom(C, D)
        except GuardExceeded:
            if enumerated:
                orbit_starved.append(budget)
            continue
        assert got == classes, budget
    assert orbit_starved and 29 not in orbit_starved


def pushout_over_empty():
    """k2 + 1 as a pushout over the empty category: total at the default
    budgets, with 5 morphism classes."""
    e = empty_category()
    f = Functor("e1", e, k_category(2), {}, {})
    g = Functor("e2", e, unit_category(), {}, {})
    return diagrams.colimit_presentation(diagrams.pushout_diagram(f, g))


def test_saturate_past_class_budget_is_possibly_infinite(monkeypatch):
    pres = pushout_over_empty()
    result = diagrams.saturate(pres)
    assert result.status == "total" and result.class_count == 5
    monkeypatch.setattr(diagrams, "CLASS_BUDGET", 4)
    result = diagrams.saturate(pres)
    assert result.status == "possibly_infinite" and result.category is None


def test_saturate_past_path_budget_is_possibly_infinite(monkeypatch):
    pres = pushout_over_empty()
    monkeypatch.setattr(diagrams, "PATH_BUDGET", 4)
    result = diagrams.saturate(pres)
    assert result.status == "possibly_infinite" and result.category is None


def test_saturate_non_parallel_arrows_raise_only_within_the_budget(monkeypatch):
    # f: x -> y against the loop g: x -> x; the first horizon (L = 2) holds
    # 6 paths, so at 4 the relation is never read
    pres = CatPresentation(
        Quiver("Q", ["x", "y"], [("f", "x", "y"), ("g", "x", "x")]),
        [(("x", ("f",)), ("x", ("g",)))])
    monkeypatch.setattr(diagrams, "PATH_BUDGET", 4)
    result = diagrams.saturate(pres)
    assert (result.status, result.class_count, result.explored_len) == (
        "possibly_infinite", 0, 0)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="non-parallel"):
        diagrams.saturate(pres)


def jordan_coequalizer():
    """The Jordan coequalizer: four loops on one vertex, so 21, 85, 341 and
    1,365 paths of length <= 2, 3, 4 and 5, and L + 1 classes at each L."""
    PA2 = a2_path_category()
    i1 = Functor("pick_1", unit_category(), PA2, {"*": "1"}, {"id_*": PA2.identity["1"]})
    i2 = Functor("pick_2", unit_category(), PA2, {"*": "2"}, {"id_*": PA2.identity["2"]})
    return diagrams.colimit_presentation(diagrams.coequalizer_diagram(i1, i2))


def test_saturate_past_path_budget_reports_last_completed_horizon(monkeypatch):
    # the closure at L = 3 holds 85 paths and the one at L = 4 passes 100
    monkeypatch.setattr(diagrams, "PATH_BUDGET", 100)
    result = diagrams.saturate(jordan_coequalizer())
    assert (result.status, result.class_count, result.explored_len) == (
        "possibly_infinite", 4, 3)


@pytest.mark.parametrize("L,paths", [(2, 21), (3, 85), (4, 341), (5, 1365)])
def test_saturate_path_budget_boundary(monkeypatch, L, paths):
    # exactly `paths` paths fit horizon L; one fewer stops the horizon at L - 1
    # (at L = 2, the first horizon, nothing completes)
    pres = jordan_coequalizer()
    monkeypatch.setattr(diagrams, "PATH_BUDGET", paths)
    result = diagrams.saturate(pres)
    assert (result.status, result.class_count, result.explored_len) == (
        "possibly_infinite", L + 1, L)
    monkeypatch.setattr(diagrams, "PATH_BUDGET", paths - 1)
    result = diagrams.saturate(pres)
    assert (result.status, result.class_count, result.explored_len) == (
        ("possibly_infinite", 0, 0) if L == 2 else ("possibly_infinite", L, L - 1))

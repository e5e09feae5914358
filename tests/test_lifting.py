import gc
import random
import weakref

import pytest

from modelbench.catmodel import (
    CatAmbient,
    classify,
    empty_to_unit,
    functor_cocylinder_factorization,
    functor_cylinder_factorization,
    generating_cofibrations,
    inc0,
    k0_to_k1,
    k2_to_k1,
)
from modelbench.fincat import (
    Functor,
    empty_category,
    enumerate_functors,
    interval_category,
    k_category,
    unit_category,
)
from modelbench.fincat import diagrams
from modelbench.fincat.corpus import base_corpus
from modelbench.fincat.core import identity_functor
from modelbench.lifting import (
    ModelTriple,
    Square,
    cell_step,
    check_model_axioms,
    find_lifting,
    find_retract,
    is_orthogonal,
    small_object_factorization,
)


AMB = CatAmbient()


def is_isomorphism(f):
    """f is an isomorphism of categories: bijective on objects and on
    morphisms."""
    return (len(set(f.obj_map.values())) == len(f.source.objects) == len(f.target.objects)
            and len(set(f.mor_map.values())) == len(f.source.morphisms)
            == len(f.target.morphisms))


def test_lift_along_iso_left_leg():
    # f iso: lift exists for any commuting square
    I = interval_category()
    f = identity_functor(I)
    g = Functor("collapse", I, unit_category(),
                {"0": "*", "1": "*"},
                {m: "id_*" for m in I.morphism_ids})
    sq = Square(f, g, identity_functor(I), g)
    w = find_lifting(AMB, sq)
    assert w is not None and w.verify()


def test_identity_square_on_non_iso_has_no_self_lift():
    # a lifting in the identity square against f itself is an inverse of f
    f = k2_to_k1()
    sq = Square(f, f, identity_functor(f.source), identity_functor(f.target))
    assert sq.commutes()
    assert find_lifting(AMB, sq) is None


def test_f_perp_f_implies_iso_on_corpus():
    cats = [unit_category(), k_category(0), k_category(1), interval_category()]
    mors = [identity_functor(c) for c in cats] + [k0_to_k1(), k2_to_k1(), inc0()]
    for f in mors:
        res = is_orthogonal(AMB, f, f)
        assert res.orthogonal == is_isomorphism(f), f.name


def test_orthogonal_iso_vs_anything():
    I = interval_category()
    swap = Functor("swap", I, I, {"0": "1", "1": "0"},
                   {"id_0": "id_1", "id_1": "id_0", "a": "a_inv", "a_inv": "a"})
    assert is_isomorphism(swap)
    for g in (k2_to_k1(), inc0(), identity_functor(I)):
        assert is_orthogonal(AMB, swap, g).orthogonal


def test_orthogonality_characterizes_surjective_on_objects():
    # (0 -> 1) perp F  iff  F surjective on objects
    probe = empty_to_unit()
    for F in (k2_to_k1(), inc0(), identity_functor(interval_category())):
        res = is_orthogonal(AMB, probe, F)
        assert res.orthogonal == classify(F).surjective_on_objects


def test_orthogonality_characterizes_faithful():
    probe = k2_to_k1()
    noninjective = Functor(
        "fold", k_category(2), k_category(1),
        {"0": "0", "1": "1"},
        {"id_0": "id_0", "id_1": "id_1", "a1": "a1", "a2": "a1"})
    for F in (noninjective, identity_functor(k_category(2)), inc0()):
        res = is_orthogonal(AMB, probe, F)
        assert res.orthogonal == classify(F).faithful, F.name


def test_retract_of_itself():
    f = k2_to_k1()
    w = find_retract(AMB, f, f)
    assert w is not None and w.verify()


def test_initial_retract_reduces_to_object_retract():
    # 0 -> Y retract of 0 -> Y' iff Y a retract of Y'
    e = empty_category()
    one = unit_category()
    I = interval_category()
    f = Functor("e1", e, one, {}, {})
    f2 = Functor("eI", e, I, {}, {})
    w = find_retract(AMB, f, f2)
    assert w is not None    # 1 is a retract of I
    K0 = k_category(0)
    g2 = Functor("eK0", e, K0, {}, {})
    # I is not a retract of K0 (no functor I -> K0 hits both objects... it is:
    # I -> K0 must collapse the iso, so sections 1->K0->1 exist; but retract
    # of the 2-object discrete by the interval does exist through either point
    assert find_retract(AMB, f, g2) is not None


def test_retract_of_iso_is_iso():
    # search retracts of an iso among corpus morphisms; any found forces iso
    I = interval_category()
    iso = identity_functor(I)
    for f in (identity_functor(unit_category()), inc0(), k2_to_k1()):
        w = find_retract(AMB, f, iso)
        if w is not None:
            assert is_isomorphism(f)


def test_cell_step_pushout():
    # attach the walking-arrow cell K0 -> K1 along K0 -> 1+1... use simple case:
    e2u = empty_to_unit()
    X = unit_category()
    att = Functor("att", empty_category(), X, {}, {})
    stage = cell_step(AMB, X, [(e2u, att)])
    assert len(stage.result.objects) == 2
    assert stage.inclusion.validate().ok


def cat_triple():
    return ModelTriple(
        cof=lambda F: classify(F).injection,
        we=lambda F: classify(F).equivalence,
        fib=lambda F: classify(F).isofibration,
        name="natural",
    )


def small_corpus_functors():
    cats = [empty_category(), unit_category(), k_category(0), k_category(1),
            interval_category()]
    from modelbench.fincat import enumerate_functors
    out = []
    for C in cats:
        for D in cats:
            out.extend(enumerate_functors(C, D))
    return out


def mc5_factorizations(F):
    cf = functor_cylinder_factorization(F)
    ccf = functor_cocylinder_factorization(F)
    return (cf.j, cf.p), (ccf.iota, ccf.q)


def test_model_axioms_small_corpus():
    corpus = small_corpus_functors()
    report = check_model_axioms(AMB, cat_triple(), corpus,
                                factorizations=mc5_factorizations)
    assert report.ok, [e for e in report.entries if not e.ok]


def test_model_axioms_detect_broken_triple():
    corpus = small_corpus_functors()
    broken = ModelTriple(
        cof=lambda F: classify(F).injection,
        we=lambda F: False,          # breaks MC1 on identities
        fib=lambda F: classify(F).isofibration,
    )
    report = check_model_axioms(AMB, broken, corpus)
    entries = {e.axiom: e.status for e in report.entries}
    assert entries["MC1-identities"] == "fail"


SOA_CATS = {"0": empty_category, "1": unit_category,
            "K0": lambda: k_category(0), "K1": lambda: k_category(1)}


@pytest.mark.parametrize("source,target,index,stages", [
    ("0", "0", 0, 0), ("1", "1", 0, 0),
    ("0", "1", 0, 1), ("0", "K0", 0, 1), ("1", "K0", 0, 1), ("1", "K0", 1, 1),
    ("0", "K1", 0, 2), ("1", "K1", 0, 2), ("1", "K1", 1, 2),
])
def test_small_object_factorization(source, target, index, stages):
    # the index-th functor source -> target in enumeration order
    F = enumerate_functors(SOA_CATS[source](), SOA_CATS[target]())[index]
    gens = generating_cofibrations()
    res = small_object_factorization(AMB, gens, F, max_stages=3)
    assert [res.status, res.stages_used] == ["factored", stages]
    assert len(res.stages) == stages
    assert AMB.compose(res.p, res.i) == F
    assert AMB.in_generators_perp(gens, res.p).orthogonal


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="free loops make the cell pushout infinite; attach_cells raises")
@pytest.mark.parametrize("source,index", [("0", 0), ("1", 0), ("1", 1)])
def test_small_object_factorization_into_interval_returns(monkeypatch, source, index):
    # a smaller path budget gives up on the cell pushout sooner, with the
    # same ValueError as at the default budget
    monkeypatch.setattr(diagrams, "PATH_BUDGET", 5_000)
    F = enumerate_functors(SOA_CATS[source](), interval_category())[index]
    res = small_object_factorization(CatAmbient(), generating_cofibrations(), F, max_stages=3)
    assert res.status in ("factored", "partial", "stuck")


def stage_saturations(monkeypatch, source, index):
    """The saturations run by the factorization of the index-th functor
    source -> I, which raises ValueError."""
    results = []
    original = diagrams.saturate

    def recorded(pres, *args, **kwargs):
        result = original(pres, *args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(diagrams, "saturate", recorded)
    F = enumerate_functors(SOA_CATS[source](), interval_category())[index]
    with pytest.raises(ValueError):
        small_object_factorization(CatAmbient(), generating_cofibrations(), F, max_stages=3)
    return results


@pytest.mark.parametrize("source,index", [("0", 0), ("1", 0), ("1", 1)])
def test_stage_two_cell_pushout_saturation_is_pinned(monkeypatch, source, index):
    # the pushout the xfail above gives up on: a free 2-cycle between the
    # objects over 0 and 1 of I, so the closure grows to the last horizon
    # within the path budget (L = 4 at 5,000 paths) and stops there
    monkeypatch.setattr(diagrams, "PATH_BUDGET", 5_000)
    results = stage_saturations(monkeypatch, source, index)
    assert [(r.status, r.class_count, r.explored_len) for r in results] == [
        ("total", 2, 2), ("possibly_infinite", 10, 4)]


@pytest.mark.parametrize("source,index", [("0", 0), ("1", 0), ("1", 1)])
def test_stage_two_cell_pushout_saturation_at_the_default_budget(monkeypatch, source, index):
    # 111,974 paths of the pushout's quiver fit L = 6 and L = 7 passes
    # PATH_BUDGET; the closure runs on the 254 paths of its arrow quotient
    results = stage_saturations(monkeypatch, source, index)
    assert [(r.status, r.class_count, r.explored_len) for r in results] == [
        ("total", 2, 2), ("possibly_infinite", 14, 6)]


# -- the small object argument with J = {inc0} --------------------------------

AXIOMS_CATS = ["0", "1", "K0", "K1", "I", "K2", "PA2"]


def axioms_corpus():
    """The 105 functors among the seven categories of the axioms corpus."""
    cats = base_corpus()
    return [F for a in AXIOMS_CATS for b in AXIOMS_CATS
            for F in enumerate_functors(cats[a], cats[b])]


def test_small_object_factorization_with_j_factors_every_corpus_functor():
    # each J-cell freely adds an iso to an object, so every pushout stays
    # finite; the result is an (acyclic cofibration, fibration) factorization
    # found independently of the functor cocylinder F = q o iota, and the
    # two are compared through the lift h of the square from iota to p with
    # top i and bottom q, an equivalence by two out of three
    corpus = axioms_corpus()
    assert len(corpus) == 105
    stages = []
    for F in corpus:
        amb = CatAmbient()
        res = small_object_factorization(amb, [inc0()], F, max_stages=3)
        assert res.status == "factored", F
        stages.append(res.stages_used)
        assert amb.compose(res.p, res.i) == F, F
        fold = identity_functor(F.source)
        for stage in res.stages:
            fold = fold.then(stage.inclusion)
        assert res.i == fold, F
        assert classify(res.i).acyclic_injection, F
        assert classify(res.p).isofibration, F
        fac = functor_cocylinder_factorization(F)
        lift = find_lifting(amb, Square(fac.iota, res.p, res.i, fac.q))
        assert lift is not None and lift.verify(), F
        assert classify(lift.h).equivalence, F
    assert (stages.count(0), stages.count(1)) == (85, 20)


# -- memoized classification, orthogonality and section pairs ---------------

def k0_i_corpus():
    """All functors among K0 and I, in a seeded shuffled order."""
    cats = [k_category(0), interval_category()]
    corpus = [F for C in cats for D in cats for F in enumerate_functors(C, D)]
    random.Random(1).shuffle(corpus)
    return corpus


def report_summary(report):
    """[status, leading count of the detail] per axiom."""
    out = {}
    for e in report.entries:
        head = e.detail.split(" ", 1)[0]
        out[e.axiom] = [e.status, int(head) if head.isdigit() else None]
    return out


def test_model_axioms_k0_i_counts():
    report = check_model_axioms(CatAmbient(), cat_triple(), k0_i_corpus(),
                                factorizations=mc5_factorizations)
    assert report_summary(report) == {
        "MC1-identities": ["ok", 2],
        "MC1-composition": ["ok", 96],
        "MC2-retracts": ["ok", 96],
        "MC3-two-of-three": ["ok", None],
        "MC4-lifting": ["ok", 40],
        "MC5-factorization": ["ok", 14],
        "Cof-orthogonality": ["sampled", 8],
    }


def test_model_axioms_reused_ambient_matches_fresh():
    corpus = k0_i_corpus()
    reused = CatAmbient()
    check_model_axioms(reused, cat_triple(), corpus, factorizations=mc5_factorizations)
    again = check_model_axioms(reused, cat_triple(), corpus, factorizations=mc5_factorizations)
    fresh = check_model_axioms(CatAmbient(), cat_triple(), corpus,
                               factorizations=mc5_factorizations)
    summary = lambda r: [(e.axiom, e.status, e.detail) for e in r.entries]
    assert summary(again) == summary(fresh)


def test_finished_ambient_is_freed_at_del_without_the_cycle_collector():
    # a memoized counterexample square holds no ambient, so nothing that the
    # ambient keeps refers back to it
    amb = CatAmbient()
    check_model_axioms(amb, cat_triple(), small_corpus_functors(),
                       factorizations=mc5_factorizations)
    assert any(not res.orthogonal for res in amb._orth_memo.values())
    ref = weakref.ref(amb)
    gc.disable()
    try:
        del amb
        assert ref() is None
    finally:
        gc.enable()


def test_returned_witnesses_keep_no_ambient_alive():
    # a factorization and a retract witness hold functors alone, so the
    # ambient and its tables are freed at del while the results live on
    gc.disable()
    try:
        amb = CatAmbient()
        F = enumerate_functors(empty_category(), k_category(1))[0]
        res = small_object_factorization(amb, generating_cofibrations(), F, max_stages=3)
        assert [res.status, res.stages_used] == ["factored", 2]
        w = find_retract(amb, k2_to_k1(), k2_to_k1())
        assert w is not None
        ref = weakref.ref(amb)
        del amb
        assert ref() is None
        assert res.i.then(res.p) == F and w.verify()
    finally:
        gc.enable()


def test_classify_is_kept_on_the_functor():
    F = k2_to_k1()
    assert classify(F) is classify(F)
    # an equal but distinct functor gets its own, equal classification
    G = k2_to_k1()
    assert classify(G) is not classify(F) and classify(G) == classify(F)


def test_memoized_orthogonal_matches_primitive_around_generators_perp():
    # K2 -> K1 passes the first two generators and fails the third, so
    # in_generators_perp sums squares over three memoized results
    gens = generating_cofibrations()
    p = k2_to_k1()
    a = CatAmbient()

    def same_as_fresh():
        for s in gens:
            got, want = a.orthogonal(s, p), is_orthogonal(CatAmbient(), s, p)
            assert (got.orthogonal, got.squares_checked) == \
                (want.orthogonal, want.squares_checked), s.name

    same_as_fresh()
    assert a.orthogonal(gens[0], p) is a.orthogonal(gens[0], p)
    res = a.in_generators_perp(gens, p)
    assert not res.orthogonal
    assert res.squares_checked == sum(
        is_orthogonal(CatAmbient(), s, p).squares_checked for s in gens)
    same_as_fresh()


# -- MC1-composition and MC3 share one pass over the composable pairs -------

def corpus_index(corpus, F):
    return next(k for k, G in enumerate(corpus) if G is F)


def test_mc3_fails_while_composition_holds():
    # with We = full functors, K0 -> 1 after 0 -> K0 is full but K0 -> 1 is not
    corpus = small_corpus_functors()
    triple = ModelTriple(cof=lambda F: classify(F).injection,
                         we=lambda F: classify(F).full,
                         fib=lambda F: classify(F).isofibration)
    entries = {e.axiom: e for e in check_model_axioms(CatAmbient(), triple, corpus).entries}
    comp, mc3 = entries["MC1-composition"], entries["MC3-two-of-three"]
    assert (comp.status, comp.detail) == ("ok", "438 composable pairs")
    assert (mc3.status, mc3.detail) == ("fail", "exactly two of three in We")
    f, g = mc3.counterexample
    assert [corpus_index(corpus, f), corpus_index(corpus, g)] == [2, 12]
    assert (f.name, g.name) == ("F0", "F0")
    assert (f.source.name, f.target.name, g.target.name) == ("0", "K0", "1")


def test_composition_and_mc3_both_fail_in_one_pass():
    # non-equivalences are not closed under composition: 1 -> K0 -> 1 is the
    # identity; MC3 fails first, at 0 -> 0 -> 1, and the pass goes on
    corpus = small_corpus_functors()
    triple = ModelTriple(cof=lambda F: classify(F).injection,
                         we=lambda F: not classify(F).equivalence,
                         fib=lambda F: classify(F).isofibration)
    report = check_model_axioms(CatAmbient(), triple, corpus)
    assert [e.axiom for e in report.entries] == [
        "MC1-identities", "MC1-composition", "MC2-retracts", "MC3-two-of-three",
        "MC4-lifting", "MC5-factorization", "Cof-orthogonality"]
    entries = {e.axiom: e for e in report.entries}
    comp, mc3 = entries["MC1-composition"], entries["MC3-two-of-three"]
    assert (comp.status, comp.detail) == ("fail", "We not closed under composition")
    assert [corpus_index(corpus, F) for F in comp.counterexample] == [6, 12]
    f, g = comp.counterexample
    assert (f.source.name, f.target.name, g.target.name) == ("1", "K0", "1")
    assert (mc3.status, mc3.detail) == ("fail", "exactly two of three in We")
    assert [corpus_index(corpus, F) for F in mc3.counterexample] == [0, 1]


# -- the first counterexample of wrong triples, pinned in full ---------------

def k1_pa2_i_corpus():
    """All functors among K1, P(A2) and I, in a seeded shuffled order."""
    cats = base_corpus()
    names = ["K1", "PA2", "I"]
    corpus = [F for a in names for b in names for F in enumerate_functors(cats[a], cats[b])]
    random.Random(5).shuffle(corpus)
    return corpus


def value(x):
    """A report's counterexample by value: a functor as (source, target,
    morphism images in source order), a category by name, a square as its
    four functors."""
    if isinstance(x, Functor):
        return (x.source.name, x.target.name,
                tuple(x.mor_map[m] for m in x.source.morphism_ids))
    if isinstance(x, Square):
        return tuple(value(y) for y in (x.left, x.right, x.top, x.bottom))
    if isinstance(x, tuple):
        return tuple(value(y) for y in x)
    return x if x is None else x.name


def sends_a_morphism_off_the_identities_or_is_an_endofunctor(F):
    identities = set(F.target.identity.values())
    return (any(v not in identities for v in F.mor_map.values())
            or F.source == F.target)


K1 = ("K1", "K1", ("id_1", "id_1", "id_1"))
I_ID0 = ("I", "I", ("id_0", "id_0", "id_0", "id_0"))
I_K1 = ("I", "K1", ("id_1", "id_1", "id_1", "id_1"))


@pytest.mark.parametrize("triple,want", [
    (ModelTriple(cof=sends_a_morphism_off_the_identities_or_is_an_endofunctor,
                 we=lambda F: classify(F).equivalence,
                 fib=lambda F: classify(F).isofibration), [
        ("MC1-identities", "ok", "3 objects", None),
        ("MC1-composition", "fail", "Cof not closed under composition",
         (("K1", "A2", ("[e_2]", "[e_1]", "[alpha]")), ("A2", "A2", ("[e_1]", "[e_1]", "[e_1]")))),
        ("MC2-retracts", "fail", "Cof not closed under retracts",
         (("A2", "K1", ("id_0", "id_0", "id_0")), ("A2", "A2", ("[e_2]", "[e_2]", "[e_2]")))),
        ("MC3-two-of-three", "ok", "", None),
        ("MC4-lifting", "fail", "square without lift",
         (I_ID0, I_K1, (I_ID0, I_K1, ("I", "I", ("id_0", "id_1", "a", "a_inv")), I_K1))),
        ("MC5-factorization", "ok", "28 morphisms factored", None),
        ("Cof-orthogonality", "sampled", "12 non-cofibrations not separated by the corpus", None),
    ]),
    (ModelTriple(cof=lambda F: classify(F).injection,
                 we=lambda F: classify(F).full,
                 fib=lambda F: classify(F).isofibration), [
        ("MC1-identities", "ok", "3 objects", None),
        ("MC1-composition", "ok", "256 composable pairs", None),
        ("MC2-retracts", "ok", "388 candidate pairs searched", None),
        ("MC3-two-of-three", "fail", "exactly two of three in We", (I_K1, K1)),
        ("MC4-lifting", "ok", "148 orthogonal pairs verified", None),
        ("MC5-factorization", "ok", "28 morphisms factored", None),
        ("Cof-orthogonality", "ok", "0 non-cofibrations not separated by the corpus", None),
    ]),
], ids=["cof-moves-a-morphism", "we-full"])
def test_wrong_triples_report_their_first_counterexamples(triple, want):
    # the full reports as recorded before check_model_axioms asked each
    # predicate once per corpus functor and shared its composites, so the
    # first counterexample of every axiom keeps its place in the loop order
    report = check_model_axioms(CatAmbient(), triple, k1_pa2_i_corpus(),
                                factorizations=mc5_factorizations)
    assert [(e.axiom, e.status, e.detail, value(e.counterexample))
            for e in report.entries] == want

import pytest

from modelbench.catmodel import (
    CatAmbient,
    classify,
    cylinder,
    empty_to_unit,
    functor_cocylinder_factorization,
    functor_cylinder_factorization,
    generating_cofibrations,
    ho_hom,
    inc0,
    k0_to_k1,
    k2_to_k1,
    lift_acyclic_injection_vs_isofibration,
    lift_injection_vs_acyclic_isofibration,
    naturally_isomorphic,
    path_object,
)
from modelbench.catmodel.factor import cocylinder_pullback_check, cylinder_pushout_check
from modelbench.catmodel.lifts import LiftPreconditionError
from modelbench.fincat import (
    FinCat,
    Functor,
    empty_category,
    enumerate_functors,
    find_category_isomorphism,
    interval_category,
    k_category,
    product,
    unit_category,
)
from modelbench.fincat.core import identity_functor
from modelbench.fincat.corpus import base_corpus, full_corpus
from modelbench.fincat.enumfun import (
    find_quasi_inverse,
    functors_with,
    natural_isos,
)
from modelbench.lifting import Square, find_lifting, is_orthogonal, lifted_squares
from test_fincat_core import automorphism_corpus

AMB = CatAmbient()


# -- classification -------------------------------------------------------


def test_classify_inc0_acyclic_injection():
    c = classify(inc0())
    assert c.acyclic_injection and not c.isofibration


def test_classify_pr_acyclic_isofibration():
    C = k_category(2)
    cyl = cylinder(C)
    c = classify(cyl.pr)
    assert c.acyclic_isofibration


def test_classify_k0_to_k1_injection_not_full():
    c = classify(k0_to_k1())
    assert c.injection and not c.full


def test_classify_generating_cofibrations_are_injections():
    for F in generating_cofibrations():
        assert classify(F).injection


def test_equivalence_structural_matches_quasi_inverse_search():
    cats = [unit_category(), k_category(0), k_category(1), k_category(2),
            interval_category(), full_corpus()["PA2"]]
    for C in cats:
        for D in cats:
            for F in enumerate_functors(C, D):
                structural = classify(F).equivalence
                assert structural == (find_quasi_inverse(F) is not None), F.name


def test_orthogonality_matches_structural_predicates():
    probes = {
        "surjective_on_objects": empty_to_unit(),
        "full": k0_to_k1(),
        "faithful": k2_to_k1(),
        "isofibration": inc0(),
    }
    targets = [identity_functor(interval_category()), k2_to_k1(), inc0(),
               k0_to_k1(), empty_to_unit(),
               Functor("toK0", unit_category(), k_category(0),
                       {"*": "0"}, {"id_*": "id_0"})]
    for F in targets:
        c = classify(F)
        for key, probe in probes.items():
            res = is_orthogonal(AMB, probe, F)
            assert res.orthogonal == getattr(c, key), (key, F.name)


# -- constructive lifts ---------------------------------------------------


def test_constructive_lift_inc0_vs_pr():
    one = unit_category()
    C = k_category(1)
    cyl = cylinder(one)
    F = inc0()
    # square: inc0 (acyclic injection) vs pr: C x I -> C for C = 1
    pr = cyl.pr
    top = Functor("top", one, cyl.cyl, {"*": "(*,0)"}, {"id_*": "(id_*,id_0)"})
    bottom = Functor("bot", interval_category(), one,
                     {"0": "*", "1": "*"},
                     {m: "id_*" for m in interval_category().morphism_ids})
    sq = Square(F, pr, top, bottom)
    assert sq.commutes()
    w = lift_acyclic_injection_vs_isofibration(sq)
    assert w.verify()


def test_constructive_lift_identity_square():
    I = interval_category()
    f = identity_functor(I)
    sq = Square(f, f, f, f)
    w = lift_acyclic_injection_vs_isofibration(sq)
    assert w.verify()
    w2 = lift_injection_vs_acyclic_isofibration(sq)
    assert w2.verify()


def test_constructive_lift_precondition_errors():
    sq = Square(k0_to_k1(), k2_to_k1(),
                identity_functor(k_category(0)).then(
                    Functor("z", k_category(0), k_category(2),
                            {"0": "0", "1": "1"}, {"id_0": "id_0", "id_1": "id_1"})),
                identity_functor(k_category(1)))
    with pytest.raises(LiftPreconditionError):
        lift_acyclic_injection_vs_isofibration(sq)


def _all_squares(F, G):
    return [sq for sq, _ in lifted_squares(AMB, F, G)]


def axioms_corpus():
    """The 105 functors between the axioms workload's seven categories 0, 1,
    K0, K1, I, K2 and PA2, in category-pair order."""
    cats = base_corpus()
    names = ["0", "1", "K0", "K1", "I", "K2", "PA2"]
    return [F for a in names for b in names for F in enumerate_functors(cats[a], cats[b])]


def test_constructive_lifts_agree_with_brute_force():
    # acyclic injections and isofibrations drawn from a small corpus
    cats = [unit_category(), k_category(0), k_category(1), interval_category()]
    mors = []
    for C in cats:
        for D in cats:
            mors.extend(enumerate_functors(C, D))
    acyclic_injections = [f for f in mors if classify(f).acyclic_injection]
    isofibs = [f for f in mors if classify(f).isofibration]
    checked = 0
    for f in acyclic_injections[:12]:
        for g in isofibs[:12]:
            for sq in _all_squares(f, g)[:4]:
                brute = find_lifting(AMB, sq)
                assert brute is not None
                w = lift_acyclic_injection_vs_isofibration(sq)
                assert w.verify()
                checked += 1
    assert checked > 10


def test_constructive_lift_injection_vs_acyclic_isofib_agrees():
    cats = [unit_category(), k_category(0), k_category(1), interval_category()]
    mors = []
    for C in cats:
        for D in cats:
            mors.extend(enumerate_functors(C, D))
    injections = [f for f in mors if classify(f).injection]
    acyclic_isofibs = [f for f in mors if classify(f).acyclic_isofibration]
    checked = 0
    for f in injections[:10]:
        for g in acyclic_isofibs[:10]:
            for sq in _all_squares(f, g)[:3]:
                assert find_lifting(AMB, sq) is not None
                w = lift_injection_vs_acyclic_isofibration(sq)
                assert w.verify()
                checked += 1
    assert checked > 10


def test_mc4_squares_lift_by_table_search_and_construction():
    # every square of every corpus pair (acyclic injection, isofibration) or
    # (injection, acyclic isofibration): the table says lifted, the
    # per-square search finds a diagonal and the matching construction
    # verifies
    corpus = axioms_corpus()
    assert len(corpus) == 105
    amb = CatAmbient()
    constructed = {"acyclic_injection": 0, "acyclic_isofibration": 0}
    squares = 0
    for f in corpus:
        for g in corpus:
            left = classify(f).acyclic_injection and classify(g).isofibration
            right = classify(f).injection and classify(g).acyclic_isofibration
            if not (left or right):
                continue
            for sq, lifted in lifted_squares(amb, f, g):
                squares += 1
                assert lifted
                assert find_lifting(amb, sq) is not None
                if left:
                    assert lift_acyclic_injection_vs_isofibration(sq).verify()
                    constructed["acyclic_injection"] += 1
                if right:
                    assert lift_injection_vs_acyclic_isofibration(sq).verify()
                    constructed["acyclic_isofibration"] += 1
    assert squares == 4134
    assert constructed == {"acyclic_injection": 2852, "acyclic_isofibration": 1750}


# -- factorizations --------------------------------------------------------


def test_cylinder_factorization_of_identity_is_cxi():
    C = k_category(1)
    fac = functor_cylinder_factorization(identity_functor(C))
    assert find_category_isomorphism(fac.dprime, product(C, interval_category())) is not None


def test_cylinder_factorization_point_into_interval():
    F = inc0()
    fac = functor_cylinder_factorization(F)
    assert len(fac.dprime.objects) == 3
    p_class = classify(fac.p)
    assert p_class.full and p_class.faithful and p_class.surjective_on_objects


def test_cylinder_factorization_from_empty():
    C = k_category(2)
    F = Functor("e", empty_category(), C, {}, {})
    fac = functor_cylinder_factorization(F)
    assert find_category_isomorphism(fac.dprime, C) is not None


def test_cocylinder_factorization_unit_into_k2():
    one = unit_category()
    K2 = k_category(2)
    F = Functor("pick0", one, K2, {"*": "0"}, {"id_*": "id_0"})
    fac = functor_cocylinder_factorization(F)
    # only identity isos exist in K2, so one triple per iso out of F(*)
    assert len(fac.cprime.objects) == 1
    assert classify(fac.q).isofibration


def test_cocylinder_factorization_from_empty_is_empty():
    C = k_category(2)
    F = Functor("e", empty_category(), C, {}, {})
    fac = functor_cocylinder_factorization(F)
    assert fac.cprime.objects == []


# -- cylinder / path objects ------------------------------------------------


def test_cylinder_of_unit_is_interval():
    cyl = cylinder(unit_category())
    assert find_category_isomorphism(cyl.cyl, interval_category()) is not None


def test_path_object_interval_counts_isos():
    po = path_object(interval_category())
    assert len(po.path_cat.objects) == 4   # isos of I


def test_cylinder_k2_object_count():
    cyl = cylinder(k_category(2))
    assert len(cyl.cyl.objects) == 4


CYLINDER_FIELDS = ("cyl", "iota0", "iota1", "fold", "pr")
PATH_FIELDS = ("path_cat", "const", "p0", "p1", "pairing")


def test_cylinder_and_path_object_are_kept_on_the_category():
    C = k_category(2)
    assert cylinder(C) is cylinder(C)
    assert path_object(C) is path_object(C)


@pytest.mark.parametrize("name", list(full_corpus()))
def test_kept_diagrams_equal_fresh_ones(name):
    C = full_corpus()[name]
    for build, fields in ((cylinder, CYLINDER_FIELDS), (path_object, PATH_FIELDS)):
        build(C)
        kept = build(C)
        C2 = full_corpus()[name]
        fresh = build(C2)
        assert kept.base is C and fresh.base is C2
        for f in fields:
            assert getattr(kept, f) == getattr(fresh, f), f


@pytest.mark.parametrize("name", list(full_corpus()))
def test_path_object_is_the_cocylinder_of_the_identity(name):
    D = full_corpus()[name]
    po = path_object(D)
    fac = functor_cocylinder_factorization(identity_functor(D))
    assert po.path_cat == fac.cprime
    assert (po.const, po.p0, po.p1) == (fac.iota, fac.pr1, fac.q)


def test_same_name_categories_get_their_own_diagrams():
    K0, I = k_category(0), interval_category()
    twin = FinCat(K0.name, I.objects, I.morphisms, I.identity, I.compose_table)
    assert twin != K0
    assert len(path_object(K0).path_cat.objects) == 2    # the identities of K0
    assert len(path_object(twin).path_cat.objects) == 4  # the isos of I
    assert path_object(twin).base is twin
    assert cylinder(twin).cyl != cylinder(K0).cyl


# -- natural isomorphism decisions ------------------------------------------


def test_nat_iso_equal_functors():
    F = inc0()
    d = naturally_isomorphic(F, F)
    assert d.found and d.agree


@pytest.mark.parametrize("C", [unit_category(), k_category(1)], ids=["1", "K1"])
def test_nat_iso_iota0_iota1(C):
    # over 1, iota0 and iota1 are the two inclusions of a point into I
    cyl = cylinder(C)
    d = naturally_isomorphic(cyl.iota0, cyl.iota1)
    assert d.found
    assert d.H is not None and d.K is not None


def test_nat_iso_distinct_constants_into_discrete():
    one = unit_category()
    K0 = k_category(0)
    F = Functor("c0", one, K0, {"*": "0"}, {"id_*": "id_0"})
    G = Functor("c1", one, K0, {"*": "1"}, {"id_*": "id_1"})
    d = naturally_isomorphic(F, G)
    assert not d.found and d.agree


def test_path_object_matches_functors_from_interval_by_brute_force():
    # Hom(I, D) against its definition: objects are the functors I -> D,
    # arrows (t1 -> t2) are the pairs (f0, f1) with f1 o alpha = beta o f0
    I = interval_category()
    small = [D for D in full_corpus().values() if len(D.morphisms) <= 8]
    assert len(small) == 11
    for D in small:
        po = path_object(D)
        H, p0, p1 = po.path_cat, po.p0, po.p1
        iso = {f"({G.obj_map['0']},{G.mor_map['a']},{G.obj_map['1']})": G.mor_map["a"]
               for G in enumerate_functors(I, D)}
        assert sorted(H.objects) == sorted(iso), D.name
        assert len(iso) == len(enumerate_functors(I, D))
        for t1 in H.objects:
            alpha = iso[t1]
            assert (p0.obj_map[t1], p1.obj_map[t1]) == (D.dom[alpha], D.cod[alpha])
            for t2 in H.objects:
                beta = iso[t2]
                squares = {(f0, f1)
                           for f0 in D.hom(p0.obj_map[t1], p0.obj_map[t2])
                           for f1 in D.hom(p1.obj_map[t1], p1.obj_map[t2])
                           if D.compose(f1, alpha) == D.compose(beta, f0)}
                arrows = [(p0.mor_map[m], p1.mor_map[m]) for m in H.hom(t1, t2)]
                assert len(arrows) == len(squares), (D.name, t1, t2)
                assert set(arrows) == squares, (D.name, t1, t2)


def test_fun_count_cross_checked_with_path_object():
    # |Fun(I, I)| equals the object count of Hom(I, I)
    I = interval_category()
    fns = enumerate_functors(I, I)
    po = path_object(I)
    assert len(fns) == len(po.path_cat.objects) == 4


def test_ho_hom_unit_counts_iso_classes():
    for C in (k_category(0), interval_category(), k_category(2)):
        classes = ho_hom(unit_category(), C)
        assert len(classes) == len(C.iso_classes_of_objects())


def test_ho_hom_i_i_two_ways():
    I = interval_category()
    classes = ho_hom(I, I)
    # cross-check: functors partition modulo natural isomorphism computed
    # through the cylinder route instead
    cyl = cylinder(I)
    fns = enumerate_functors(I, I)
    classes2 = []
    for F in fns:
        for cls in classes2:
            legs = [(cyl.iota0, cls[0]), (cyl.iota1, F)]
            if next(functors_with(cyl.cyl, I, legs, []), None) is not None:
                cls.append(F)
                break
        else:
            classes2.append([F])
    assert sorted(len(c) for c in classes) == sorted(len(c) for c in classes2)


def test_ho_hom_k0_unit_singleton():
    assert len(ho_hom(k_category(0), unit_category())) == 1


def test_ho_hom_matches_the_unbucketed_loop_on_every_corpus_pair():
    # ho_hom keys each functor through the skeleton of D; the plain loop
    # tests each functor against every class found so far.  Besides the
    # corpus, pairs that involve a category with automorphisms, where the
    # key takes the least conjugate over an orbit, up to 400 functors.
    auts = automorphism_corpus()
    cats = {**full_corpus(), **auts}
    checked = 0
    for a, C in cats.items():
        for b, D in cats.items():
            fs = enumerate_functors(C, D)
            if (a in auts or b in auts) and len(fs) > 400:
                continue
            want = []
            for F in fs:
                for cls in want:
                    if natural_isos(cls[0], F) is not None:
                        cls.append(F)
                        break
                else:
                    want.append([F])
            assert ho_hom(C, D) == want, (a, b)
            checked += 1
    assert checked == 16 * 16 + 183


# -- universal property checks ----------------------------------------------


def test_cylinder_pushout_check_identity():
    tests = [unit_category(), k_category(1)]
    res = cylinder_pushout_check(identity_functor(k_category(1)), tests)
    assert res.ok


def test_cylinder_pushout_check_inc0():
    tests = [unit_category(), k_category(1), interval_category()]
    res = cylinder_pushout_check(inc0(), tests)
    assert res.ok and res.cocones_checked > 0


def test_cocylinder_pullback_check_inc0():
    tests = [unit_category(), k_category(0)]
    res = cocylinder_pullback_check(inc0(), tests)
    assert res.ok


def test_cocylinder_pullback_check_k2_to_k1():
    tests = [unit_category()]
    res = cocylinder_pullback_check(k2_to_k1(), tests)
    assert res.ok

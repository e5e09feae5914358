from modelbench.fincat import (
    CatPresentation,
    FinCat,
    coproduct,
    discrete_category,
    empty_category,
    enumerate_functors,
    interval_category,
    k_category,
    product,
    saturate,
    unit_category,
)
from modelbench.fincat.corpus import a2_path_category, base_corpus, full_corpus, jordan_quiver


def test_interval_category_is_valid():
    assert interval_category().validate().ok


def test_k2_is_valid():
    assert k_category(2).validate().ok


def test_deliberate_associativity_violation_is_reported():
    # one object, morphisms id, x, y with a non-associative table
    mors = [("id", "o", "o"), ("x", "o", "o"), ("y", "o", "o")]
    comp = {("id", "id"): "id"}
    for m in ("x", "y"):
        comp[(m, "id")] = m
        comp[("id", m)] = m
    comp.update({("x", "x"): "y", ("x", "y"): "id", ("y", "x"): "x", ("y", "y"): "y"})
    bad = FinCat("bad", ["o"], mors, {"o": "id"}, comp)
    report = bad.validate()
    assert not report.ok
    assert any("associativity" in f for f in report.failures)


def test_product_and_coproduct_are_valid():
    K2, I = k_category(2), interval_category()
    assert product(K2, I).validate().ok
    assert coproduct(K2, I).validate().ok
    assert len(product(K2, I).objects) == 4
    assert len(coproduct(K2, I).morphisms) == 8


# -- enumeration ---------------------------------------------------------


def test_fun_from_unit_matches_objects():
    for C in (k_category(2), interval_category(), a2_path_category()):
        fns = enumerate_functors(unit_category(), C)
        assert len(fns) == len(C.objects)


def test_fun_from_k0_matches_object_pairs():
    for C in (k_category(1), interval_category()):
        fns = enumerate_functors(k_category(0), C)
        assert len(fns) == len(C.objects) ** 2


def test_fun_from_empty_is_singleton():
    assert len(enumerate_functors(empty_category(), k_category(2))) == 1
    assert len(enumerate_functors(k_category(2), empty_category())) == 0


def test_enumerated_functors_are_valid_and_deterministic():
    a = enumerate_functors(k_category(2), interval_category())
    b = enumerate_functors(k_category(2), interval_category())
    assert [(f.obj_map, f.mor_map) for f in a] == [(f.obj_map, f.mor_map) for f in b]
    for f in a:
        assert f.validate().ok


def test_fun_i_to_i_count():
    fns = enumerate_functors(interval_category(), interval_category())
    assert len(fns) == 4


def test_discrete_category_helper():
    D = discrete_category(["x", "y", "z"])
    assert D.validate().ok and len(D.morphisms) == 3


def test_base_corpus_all_valid():
    for name, C in base_corpus().items():
        assert C.validate().ok, name


def cyclic_group(n):
    """Z/n as a one-object category: the Jordan quiver with alpha^n = id,
    realized by saturate."""
    res = saturate(CatPresentation(jordan_quiver(), [(("v", ("alpha",) * n), ("v", ()))]))
    assert res.total
    return res.category


def automorphism_corpus() -> dict:
    """Categories whose objects have nontrivial automorphisms: Z/2, Z/3 and
    the products Z2 x I, Z2 x Z2 and Z2 x K1."""
    Z2 = cyclic_group(2)
    return {"Z2": Z2, "Z3": cyclic_group(3),
            "Z2xI": product(Z2, interval_category(), name="Z2xI"),
            "Z2xZ2": product(Z2, Z2, name="Z2xZ2"),
            "Z2xK1": product(Z2, k_category(1), name="Z2xK1")}


def test_automorphism_corpus_orders():
    # |Aut| of each rep: Z/n has n elements, and a product multiplies them
    orders = {name: [len(a) for a in C.reflection().auts.values()]
              for name, C in automorphism_corpus().items()}
    assert orders == {"Z2": [2], "Z3": [3], "Z2xI": [2], "Z2xZ2": [4], "Z2xK1": [2, 2]}


def test_reflection_matches_its_definition():
    # rep[x] is the first object isomorphic to x, theta[x]: x -> rep[x] an
    # iso, r[u] = theta_y o u o theta_x^-1, and auts lists each rep's
    # automorphisms, identity first
    for name, C in {**full_corpus(), **automorphism_corpus()}.items():
        sk = C.reflection()
        assert sk is C.reflection()
        for x in C.objects:
            first = next(y for y in C.objects if C.isomorphic_objects(x, y))
            assert sk.rep[x] == first, (name, x)
            assert sk.theta[x] in C.hom(x, first) and C.is_iso(sk.theta[x])
        for (u, x, y) in C.morphisms:
            assert sk.r[u] == C.compose(sk.theta[y], C.compose(u, C.inverse_of(sk.theta[x])))
        reps = set(sk.rep.values())
        assert list(sk.auts) == [x for x in C.objects if x in reps]
        for p, auts in sk.auts.items():
            assert auts[0] == C.identity[p]
            assert sorted(auts) == sorted(a for a in C.hom(p, p) if C.is_iso(a))

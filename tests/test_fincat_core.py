from modelbench.fincat import (
    FinCat,
    coproduct,
    discrete_category,
    empty_category,
    enumerate_functors,
    interval_category,
    k_category,
    product,
    unit_category,
)
from modelbench.fincat.corpus import a2_path_category, base_corpus, full_corpus


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


def test_conjugacy_class_matches_its_definition():
    # u ~ v when v o alpha = beta o u for isos alpha: dom u -> dom v and
    # beta: cod u -> cod v
    for name, C in full_corpus().items():
        isos = lambda x, y: [a for a in C.hom(x, y) if C.is_iso(a)]
        for (u, du, cu) in C.morphisms:
            for (v, dv, cv) in C.morphisms:
                conjugate = any(C.compose(v, a) == C.compose(b, u)
                                for a in isos(du, dv) for b in isos(cu, cv))
                same = C.conjugacy_class(u) == C.conjugacy_class(v)
                assert same == conjugate, (name, u, v)


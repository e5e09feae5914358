import pytest

from modelbench.catmodel import CatAmbient
from modelbench.catmodel import ambient as ambient_module
from modelbench.catmodel.generators import empty_to_unit
from modelbench.fincat import (
    CatPresentation,
    FinCat,
    Functor,
    coproduct,
    empty_category,
    enumerate_functors,
    find_category_isomorphism,
    free_category,
    interval_category,
    k_category,
    product,
    saturate,
    unit_category,
)
from modelbench.fincat.corpus import a2_path_category, base_corpus, full_corpus, jordan_quiver
from modelbench.fincat.diagrams import parallel_pair_shape, span_shape


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


def test_category_isomorphism_yes_and_no():
    span = span_shape()
    # equal counts and hom profiles, so only the enumeration tells them apart
    cospan = free_category("cospan", ["s", "l", "r"], [("f", "l", "s"), ("g", "r", "s")])
    assert find_category_isomorphism(span, cospan) is None
    relabelled = free_category("span'", ["y", "x", "z"], [("q", "x", "z"), ("p", "x", "y")])
    F = find_category_isomorphism(span, relabelled)
    assert F is not None and F.validate().ok
    assert sorted(F.obj_map.values()) == sorted(relabelled.objects)
    assert sorted(F.mor_map.values()) == sorted(relabelled.morphism_ids)


def test_discrete_category_helper():
    D = free_category("disc3", ["x", "y", "z"], [])
    assert D.validate().ok and len(D.morphisms) == 3


# -- free_category against the hand-written tables it replaced -------------


def _hand_written(name, objs, arrows):
    """The table every shape builder wrote out by hand: identities, then the
    arrows, with m o id_d and id_c o m for each morphism m: d -> c."""
    mors = [(f"id_{o}", o, o) for o in objs] + arrows
    comp = {}
    for (m, d, c) in mors:
        comp[(m, f"id_{d}")] = m
        comp[(f"id_{c}", m)] = m
    return FinCat(name, objs, mors, {o: f"id_{o}" for o in objs}, comp)


def _hand_written_discrete(objs, name):
    mors = [(f"id_{x}", x, x) for x in objs]
    comp = {(m, m): m for (m, _, _) in mors}
    return FinCat(name, objs, mors, {x: f"id_{x}" for x in objs}, comp)


def _cells_shape(n):
    objs = ["c"] + [f"d{k}" for k in range(n)] + [f"e{k}" for k in range(n)]
    arrows = []
    for k in range(n):
        arrows.append((f"att{k}", f"d{k}", "c"))
        arrows.append((f"gen{k}", f"d{k}", f"e{k}"))
    return _hand_written("cells", objs, arrows)


def _table(C):
    return (C.name, C.objects, C.morphisms, C.identity, list(C.compose_table.items()))


@pytest.mark.parametrize("built,reference", [
    (lambda: k_category(0), lambda: _hand_written_discrete(["0", "1"], "K0")),
    (lambda: k_category(1), lambda: _hand_written("K1", ["0", "1"], [("a1", "1", "0")])),
    (lambda: k_category(2), lambda: _hand_written(
        "K2", ["0", "1"], [("a1", "1", "0"), ("a2", "1", "0")])),
    (lambda: k_category(3), lambda: _hand_written(
        "K3", ["0", "1"], [("a1", "1", "0"), ("a2", "1", "0"), ("a3", "1", "0")])),
    (unit_category, lambda: FinCat("1", ["*"], [("id_*", "*", "*")], {"*": "id_*"},
                                   {("id_*", "id_*"): "id_*"})),
    (empty_category, lambda: FinCat("0", [], [], {}, {})),
    (span_shape, lambda: _hand_written("span", ["s", "l", "r"],
                                       [("f", "s", "l"), ("g", "s", "r")])),
    (parallel_pair_shape, lambda: _hand_written("pair", ["a", "b"],
                                                [("u", "a", "b"), ("v", "a", "b")])),
], ids=["K0", "K1", "K2", "K3", "1", "0", "span", "pair"])
def test_free_category_reproduces_the_hand_written_tables(built, reference):
    assert _table(built()) == _table(reference())


def test_attach_cells_shape_is_the_hand_written_table(monkeypatch):
    shapes = []
    colimit = ambient_module.colimit
    monkeypatch.setattr(ambient_module, "colimit",
                        lambda D: shapes.append(D.shape) or colimit(D))
    gen = empty_to_unit()
    att = Functor("att", gen.source, unit_category(), {}, {})
    CatAmbient().attach_cells(unit_category(), [(gen, att)] * 2)
    assert _table(shapes[0]) == _table(_cells_shape(2))


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

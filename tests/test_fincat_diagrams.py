import pytest

from modelbench.fincat import (
    CatDiagram,
    CatPresentation,
    Functor,
    Quiver,
    coproduct,
    empty_category,
    free_category,
    interval_category,
    k_category,
    saturate,
    unit_category,
)
from modelbench.fincat.core import identity_functor
from modelbench.fincat.corpus import a2_path_category
from modelbench.fincat.diagrams import (
    coequalizer_diagram,
    colimit,
    colimit_presentation,
)
from oracles import pushout_diagram


def unit_into(C, obj, name=None):
    one = unit_category()
    return Functor(name or f"pick_{obj}", one, C,
                   {"*": obj}, {"id_*": C.identity[obj]})


# -- path categories -----------------------------------------------------


def test_a2_path_category():
    # P(A2) as the truncated path-category builder gave it; saturation names
    # each morphism by its path in brackets, and nothing else changes
    PA2 = a2_path_category()
    rn = lambda m: f"[{m}]"
    assert PA2.objects == ["1", "2"]
    assert PA2.morphisms == [(rn("e_1"), "1", "1"), (rn("e_2"), "2", "2"),
                             (rn("alpha"), "1", "2")]
    assert PA2.identity == {"1": rn("e_1"), "2": rn("e_2")}
    parent_comp = [(("e_1", "e_1"), "e_1"), (("e_2", "e_2"), "e_2"),
                   (("e_2", "alpha"), "alpha"), (("alpha", "e_1"), "alpha")]
    assert list(PA2.compose_table.items()) == [((rn(g), rn(f)), rn(h))
                                               for (g, f), h in parent_comp]
    assert PA2.validate().ok


def test_saturated_category_is_named_after_its_quiver():
    assert a2_path_category().name == "A2"


def test_empty_quiver_path_category():
    result = saturate(CatPresentation(Quiver("E", [], []), []))
    assert result.total
    assert result.category.objects == [] and result.category.morphisms == []


# -- colimits ------------------------------------------------------------


def test_coproduct_colimit_total_and_matches_disjoint_union():
    C, I = k_category(2), interval_category()
    D = CatDiagram("copr", free_category("shape", ["a", "b"], []), {"a": C, "b": I}, {})
    pres, result, injections = colimit(D)
    assert result.total
    direct = coproduct(C, I)
    assert len(result.category.objects) == len(direct.objects)
    assert len(result.category.morphisms) == len(direct.morphisms)
    for i, inj in injections.items():
        assert inj.validate().ok


def test_jordan_coequalizer_presentation():
    PA2 = a2_path_category()
    i1, i2 = unit_into(PA2, "1"), unit_into(PA2, "2")
    D = coequalizer_diagram(i1, i2)
    pres, result, _ = colimit(D, max_len=6)
    assert len(pres.quiver.vertices) == 1
    assert result.status == "possibly_infinite"
    # census at cap k: exactly k+1 classes
    for k in range(2, 7):
        census = saturate(pres, fixed_len=k)
        assert census.class_count == k + 1, k


def test_pushout_over_empty_is_coproduct():
    C = k_category(2)
    one = unit_category()
    e = empty_category()
    f = Functor("e1", e, C, {}, {})
    g = Functor("e2", e, one, {}, {})
    pres, result, injections = colimit(pushout_diagram(f, g))
    assert result.total
    assert len(result.category.objects) == len(C.objects) + 1
    assert len(result.category.morphisms) == len(C.morphisms) + 1


def test_empty_colimits_are_total_and_empty():
    e = empty_category()
    empty_f = Functor("e", e, e, {}, {})
    for D in (CatDiagram("e", e, {}, {}), pushout_diagram(empty_f, empty_f)):
        pres, result, injections = colimit(D)
        assert result.total, D.name
        assert result.category.objects == [] and result.category.morphisms == []
        assert sorted(injections) == sorted(D.shape.objects)
        for inj in injections.values():
            assert inj.validate().ok


def test_objects_commute_with_colimits():
    # object classes of the presentation match the colimit of object sets
    PA2 = a2_path_category()
    i1, i2 = unit_into(PA2, "1"), unit_into(PA2, "2")
    pres = colimit_presentation(coequalizer_diagram(i1, i2))
    assert len(pres.quiver.vertices) == 1   # both endpoints glued to the point


def test_diagram_validation():
    C = k_category(1)
    D = CatDiagram("d", free_category("shape", ["a"], []), {"a": C}, {})
    assert D.validate().ok


def test_diagram_validation_reports_a_missing_node():
    C = k_category(1)
    shape = free_category("shape", ["a", "b"], [])
    # without and with an explicit edge at the missing node
    for edges in ({}, {shape.identity["b"]: identity_functor(C)}):
        report = CatDiagram("d", shape, {"a": C}, edges).validate()
        assert not report.ok
        assert "missing node b" in report.failures


def test_diagram_validation_rejects_a_non_identity_identity_edge():
    I = interval_category()
    swap = Functor("swap", I, I, {"0": "1", "1": "0"},
                   {"id_0": "id_1", "id_1": "id_0", "a": "a_inv", "a_inv": "a"})
    shape = free_category("shape", ["a"], [])
    D = CatDiagram("d", shape, {"a": I}, {shape.identity["a"]: swap})
    report = D.validate()
    assert not report.ok
    # swap o swap = id differs from swap, so functoriality fails as well
    assert report.failures == ["identity edge at a is not the identity functor",
                               "functoriality fails at (id_a, id_a)"]


@pytest.mark.parametrize("arrows,relations,error", [
    ([("f", "x", "y")], [(("x", ("f",)), ("x", ()))], "non-parallel"),
    ([("f", "x", "y"), ("f", "y", "x")], [], "distinct"),
])
def test_saturate_rejects_a_malformed_presentation(arrows, relations, error):
    pres = CatPresentation(Quiver("Q", ["x", "y"], arrows), relations)
    with pytest.raises(ValueError, match=error):
        saturate(pres)


def test_saturate_merges_no_arrows_on_a_relation_that_is_not_a_path():
    # a and b run v -> v, so (u, (a,)) ~ (u, (b,)) names no path and the two
    # loops stay apart: u, v, a, b and the four paths of length 2
    pres = CatPresentation(Quiver("Q", ["u", "v"], [("a", "v", "v"), ("b", "v", "v")]),
                           [(("u", ("a",)), ("u", ("b",)))])
    assert saturate(pres, fixed_len=2).class_count == 8

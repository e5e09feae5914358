"""Op-duality as a metamorphic cross-check.  C |-> C^op is a covariant
automorphism of Cat that preserves injections on objects, equivalences and
isofibrations, so the natural model structure is self-dual, and every
decision must agree on (f, g) and (f^op, g^op).  Each decision treats the
two ends of a functor differently (`pre` against `post`, the search plan's
ends, cylinder against cocylinder), so a slip on one side shows up here.
The corpora are fixed, so every test is deterministic."""

from modelbench.catmodel import (CatAmbient, classify, functor_cocylinder_factorization,
                                 functor_cylinder_factorization, ho_hom)
from modelbench.fincat.corpus import full_corpus
from modelbench.lifting import find_retract, is_orthogonal
from oracles import op
from test_catmodel import axioms_corpus

CORPUS = axioms_corpus()
OPS = [op(f) for f in CORPUS]


def test_op_is_an_involution_on_valid_categories_and_functors():
    for C in full_corpus().values():
        assert op(C).validate().ok and op(op(C)) == C
    for f, g in zip(CORPUS, OPS):
        assert g.validate().ok
        assert (g.source, g.target) == (op(f.source), op(f.target))


def test_classify_agrees_on_op():
    assert len(CORPUS) == 105
    for f, g in zip(CORPUS, OPS):
        assert classify(f) == classify(g), f


def test_orthogonality_agrees_on_op():
    a, b = CatAmbient(), CatAmbient()
    pairs = orthogonal = 0
    for f, fo in zip(CORPUS, OPS):
        for g, go in zip(CORPUS, OPS):
            verdict = is_orthogonal(a, f, g).orthogonal
            assert is_orthogonal(b, fo, go).orthogonal == verdict, (f, g)
            pairs += 1
            orthogonal += verdict
    assert (pairs, orthogonal) == (11025, 5773)


def test_retract_existence_agrees_on_op():
    a, b = CatAmbient(), CatAmbient()
    pairs = found = 0
    for k, (f, fo) in enumerate(zip(CORPUS, OPS)):
        for m, (f2, f2o) in enumerate(zip(CORPUS, OPS)):
            if k == m:
                continue
            exists = find_retract(a, f, f2) is not None
            assert (find_retract(b, fo, f2o) is not None) == exists, (f, f2)
            pairs += 1
            found += exists
    assert (pairs, found) == (10920, 602)


def test_ho_hom_classes_agree_on_op():
    # F and F^op have the same maps, and a natural iso F => G is one
    # G^op => F^op, so the classes agree member for member, not only in size
    cats = full_corpus()
    pairs = 0
    for C in cats.values():
        for D in cats.values():
            classes = [[F.key for F in cls] for cls in ho_hom(C, D)]
            dual = [[F.key for F in cls] for cls in ho_hom(op(C), op(D))]
            assert sorted(map(len, dual)) == sorted(map(len, classes)), (C, D)
            assert sorted(map(sorted, dual)) == sorted(map(sorted, classes)), (C, D)
            pairs += 1
    assert pairs == 256


def test_mc5_factorization_classes_agree_on_op():
    def legs(F):
        cf = functor_cylinder_factorization(F)
        ccf = functor_cocylinder_factorization(F)
        return [classify(h) for h in (cf.j, cf.p, ccf.iota, ccf.q)]

    for f, g in zip(CORPUS, OPS):
        assert legs(g) == legs(f), f

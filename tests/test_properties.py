"""Property-based differential tests: the memoized routes of a long-lived
ambient, and the cylinders and path objects kept on shared categories,
against the uncached routes on fresh ones; the table of diagonals of
`lifted_squares`, through `is_orthogonal` and `attachment_squares`, against
a diagonal search per square, also on categories with non-invertible
endomorphisms; the ambient's int tables of composites and section index
pairs against `Functor.then`, and the retract witnesses that re-verify by
`Functor.then`, with one leg swapped or not, against the ambient's shared
composites; kept value hashes against cold copies;
`functors_with` against a filtered `enumerate_functors`, and through it the
mediating maps of the cylinder pushout and cocylinder pullback checks
against the scans over every functor they replaced, and the maps out of a
cell stage against fill-by-composition; `saturate` on integer path ids of
the arrow quotient against the closure on the (src, arrows) keys of every
path that it replaced; the one-reduction linear algebra of `complexes`
against the per-vector routes it replaced, and its c2 against the general
rank formula for an injective H^n(f); and the fraction-free `rref`,
with every reading taken from it, against Fraction Gauss-Jordan elimination."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelbench.catmodel import (CatAmbient, cylinder, functor_cylinder_factorization, ho_hom,
                                 naturally_isomorphic, path_object)
from modelbench.catmodel import generating_cofibrations
from modelbench.catmodel.factor import (_pullback_homotopy, _pushout_homotopy,
                                       cocylinder_pullback_check, cylinder_pushout_check,
                                       functor_cocylinder_factorization)
from modelbench.catmodel.homotopy import eta_to_path_homotopy
from modelbench.fincat import CatPresentation, FinCat, Functor, diagrams, enumerate_functors
from modelbench.fincat.diagrams import SaturationResult
from modelbench.fincat.quivers import Quiver
from modelbench.fincat.core import identity_functor
from modelbench.fincat.corpus import base_corpus, full_corpus
from modelbench.fincat.enumfun import forced_images, functors_with, natural_isos
from modelbench.complexes import (
    Complex,
    cohomology,
    cone,
    is_quasi_iso,
    section_condition,
    surj_quas_criteria,
)
from modelbench.linalg import mat_mul, nullspace, rank, rref, shape, solve
from modelbench.lifting import (RetractWitness, Square, find_lifting, find_retract,
                                is_orthogonal, lifted_squares, small_object_factorization)
from oracles import jordan_quiver, mat_vec, ref_cone, ref_is_quasi_iso, ref_mat_mul
from test_catmodel import axioms_corpus
from test_complexes import assert_same_complex, random_bounded_chain_map, ref_c2

_CATS = list(base_corpus().values())
FUNCTORS = [F for C in _CATS for D in _CATS for F in enumerate_functors(C, D)]

# Shared by every example, so its memos fill up as the examples run.
MEMO = CatAmbient()

functors = st.sampled_from(FUNCTORS)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def uncached_retract(a, f, f2):
    """The retract search without section-pair memo: every (i, p, j, q) in
    the same order as find_retract."""
    x, y, x2, y2 = f.source, f.target, f2.source, f2.target
    sections = lambda u, v: [
        (i, p) for i in a.morphisms_between(u, v) for p in a.morphisms_between(v, u)
        if a.compose(p, i) == identity_functor(u)]
    for (i, p) in sections(x, x2):
        for (j, q) in sections(y, y2):
            if a.compose(f2, i) == a.compose(j, f) and a.compose(q, f2) == a.compose(f, p):
                return i, p, j, q
    return None


def ref_retract_verify(a, w):
    """The four retract equations of a witness through the ambient's shared
    composites: the check that `RetractWitness.verify` did before it
    composed the functors itself."""
    f, f2 = w.f, w.f2
    return (a.compose(w.p, w.i) == identity_functor(f.source)
            and a.compose(w.q, w.j) == identity_functor(f.target)
            and a.compose(f2, w.i) == a.compose(w.j, f)
            and a.compose(w.q, f2) == a.compose(f, w.p))


@SETTINGS
@given(functors, functors)
def test_memoized_orthogonal_matches_fresh_primitive(f, g):
    want = is_orthogonal(CatAmbient(), f, g)
    for _ in range(2):
        got = MEMO.orthogonal(f, g)
        assert (got.orthogonal, got.squares_checked) == (want.orthogonal, want.squares_checked)
    if not want.orthogonal:
        assert got.counterexample.commutes()


@SETTINGS
@given(functors, functors)
def test_memoized_find_retract_matches_uncached_search(f, f2):
    want = uncached_retract(CatAmbient(), f, f2)
    w = find_retract(MEMO, f, f2)
    if want is None:
        assert w is None
    else:
        assert w is not None and w.verify()
        assert (w.i, w.p, w.j, w.q) == want


def test_retract_verify_matches_the_compose_route_on_the_axioms_corpus():
    # every witness on ordered pairs of distinct functors, and every variant
    # with one of i, p, j, q replaced by another functor of its Hom set
    corpus = axioms_corpus()
    assert len(corpus) == 105
    a = CatAmbient()
    witnesses = variants = rejected = 0
    for f in corpus:
        for f2 in corpus:
            w = find_retract(a, f, f2) if f is not f2 else None
            if w is None:
                continue
            witnesses += 1
            assert w.verify() and ref_retract_verify(a, w)
            legs = {"f": w.f, "f2": w.f2, "i": w.i, "p": w.p, "j": w.j, "q": w.q}
            for leg in ("i", "p", "j", "q"):
                old = getattr(w, leg)
                for other in a.morphisms_between(old.source, old.target):
                    if other == old:
                        continue
                    v = RetractWitness(**{**legs, leg: other})
                    got = v.verify()
                    assert got == ref_retract_verify(a, v), (leg, v)
                    variants += 1
                    rejected += not got
    assert (witnesses, variants, rejected) == (602, 4576, 4238)


# -- lifting: one table of diagonals per pair against a search per square ----

def ref_squares(a, f, g):
    """Every commuting square from f to g, lexicographic in (top, bottom):
    the square enumerator that `lifted_squares` replaced."""
    tops = a.morphisms_between(f.source, g.source)
    bottoms = a.morphisms_between(f.target, g.target)
    bottoms_f = [(bottom, a.compose(bottom, f)) for bottom in bottoms]
    for top in tops:
        gt = a.compose(g, top)
        for bottom, bf in bottoms_f:
            if gt == bf:
                yield Square(f, g, top, bottom)


def ref_is_orthogonal(a, f, g):
    """f perp g by a pinned diagonal search per square, as is_orthogonal was
    before the table: (verdict, squares checked, first square with no
    diagonal)."""
    checked = 0
    for sq in ref_squares(a, f, g):
        checked += 1
        if find_lifting(a, sq) is None:
            return False, checked, sq
    return True, checked, None


def same_orthogonality(got, want):
    verdict, checked, counterexample = want
    assert (got.orthogonal, got.squares_checked) == (verdict, checked)
    if counterexample is None:
        assert got.counterexample is None
    else:
        assert (got.counterexample.top, got.counterexample.bottom) == (
            counterexample.top, counterexample.bottom)


@SETTINGS
@given(functors, functors)
def test_orthogonality_table_matches_search_per_square(f, g):
    same_orthogonality(is_orthogonal(CatAmbient(), f, g),
                       ref_is_orthogonal(CatAmbient(), f, g))


@SETTINGS
@given(functors)
def test_attachment_squares_are_the_squares_search_cannot_lift(p):
    gens = generating_cofibrations()
    a = CatAmbient()
    want = [(gen, sq.top, sq.bottom) for gen in gens
            for sq in ref_squares(a, gen, p) if find_lifting(a, sq) is None]
    assert CatAmbient().attachment_squares(gens, p) == want


def test_orthogonality_table_matches_search_on_the_axioms_corpus():
    # every ordered pair of the axioms workload's 105 functors: the squares
    # in order with each table answer against the per-square search, and
    # each pair's verdict, count and counterexample read off them
    corpus = axioms_corpus()
    a = CatAmbient()
    squares = unlifted = 0
    for f in corpus:
        for g in corpus:
            want = [(sq.top, sq.bottom, find_lifting(a, sq) is not None)
                    for sq in ref_squares(a, f, g)]
            assert [(sq.top, sq.bottom, lifted)
                    for sq, lifted in lifted_squares(a, f, g)] == want
            squares += len(want)
            misses = [k for k, (_, _, lifted) in enumerate(want) if not lifted]
            unlifted += len(misses)
            res = is_orthogonal(a, f, g)
            if misses:
                top, bottom, _ = want[misses[0]]
                assert (res.orthogonal, res.squares_checked) == (False, misses[0] + 1)
                assert (res.counterexample.top, res.counterexample.bottom) == (top, bottom)
            else:
                assert (res.orthogonal, res.squares_checked) == (True, len(want))
    assert (squares, unlifted) == (37147, 13608)


# -- the int tables of composites against Functor composition ---------------

def test_int_tables_match_functor_composition_on_the_axioms_corpus():
    # for every axioms-corpus functor f and base category X, pre(f, X)[k] and
    # post(f, X)[k] are the ids of the Functor.then composites h o f and
    # f o h, and within each table equal ids are equal composites
    a = CatAmbient()
    cats = list(base_corpus().values())
    entries = 0
    for f in axioms_corpus():
        for X in cats:
            for table, composites in (
                    (a.pre(f, X), [f.then(h) for h in a.morphisms_between(f.target, X)]),
                    (a.post(f, X), [h.then(f) for h in a.morphisms_between(X, f.source)])):
                assert table == [a.id_of(c) for c in composites]
                by_value = dict(zip(composites, table))
                assert [by_value[c] for c in composites] == table
                assert len(by_value) == len(set(table))
                entries += len(table)
    assert entries == 4445
    # the section pairs are the index pairs (i, p) with p o i == id
    for x in cats:
        for x2 in cats:
            hom, back = a.morphisms_between(x, x2), a.morphisms_between(x2, x)
            assert a.section_pairs(x, x2) == [
                (k, n) for k, i in enumerate(hom) for n, p in enumerate(back)
                if i.then(p) == identity_functor(x)]


# -- categories with non-invertible endomorphisms ----------------------------

def idempotent_category():
    """E: one object with an idempotent, alpha o alpha = alpha."""
    return diagrams.saturate(CatPresentation(
        jordan_quiver(), [(("v", ("alpha", "alpha")), ("v", ("alpha",)))])).category


def retraction_category():
    """S: r: a -> b with a section s: b -> a, r o s = id_b, so s o r is a
    non-invertible idempotent on a."""
    quiver = Quiver("RS", ["a", "b"], [("r", "a", "b"), ("s", "b", "a")])
    return diagrams.saturate(CatPresentation(quiver, [(("b", ("r", "s")), ("b", ()))])).category


def endomorphism_corpus():
    """The 54 functors among 1, E, S, I and P(A2)."""
    E, S = idempotent_category(), retraction_category()
    assert (len(E.morphisms), len(S.morphisms)) == (2, 5)
    base = base_corpus()
    cats = [base["1"], E, S, base["I"], base["PA2"]]
    return [F for C in cats for D in cats for F in enumerate_functors(C, D)]


def test_table_and_retracts_match_the_search_on_non_invertible_endomorphisms():
    corpus = endomorphism_corpus()
    assert len(corpus) == 54
    a = CatAmbient()
    squares = 0
    for f in corpus:
        for g in corpus:
            want = [(sq.top, sq.bottom, find_lifting(a, sq) is not None)
                    for sq in ref_squares(a, f, g)]
            assert [(sq.top, sq.bottom, lifted)
                    for sq, lifted in lifted_squares(a, f, g)] == want
            squares += len(want)
    assert squares == 8584
    witnesses = 0
    for f in corpus:
        for f2 in corpus:
            want = uncached_retract(a, f, f2)
            w = find_retract(a, f, f2)
            assert (w is None) == (want is None)
            if w is not None:
                assert w.verify() and (w.i, w.p, w.j, w.q) == want
                witnesses += 1
    assert witnesses == 187


# -- natural isomorphism: warm diagrams against cold categories ------------

# The categories shared by every example, so the cylinders and path objects
# kept on them are built once and reused.  At most 8 morphisms keeps the
# path-route searches into Hom(I, D) fast.
_FULL = full_corpus()
SMALL = [n for n, C in _FULL.items() if len(C.morphisms) <= 8]
PARALLEL = {(s, t): fs for s in SMALL for t in SMALL
            if (fs := enumerate_functors(_FULL[s], _FULL[t]))}
HO_HOM = {}     # (source, target) -> ho_hom classes on the shared categories


@st.composite
def parallel_pairs(draw):
    key = draw(st.sampled_from(sorted(PARALLEL)))
    fs = PARALLEL[key]
    return key, draw(st.sampled_from(fs)), draw(st.sampled_from(fs))


def cold_copy(key, F):
    """F on freshly built copies of its source and target."""
    cats = full_corpus()
    return Functor(F.name, cats[key[0]], cats[key[1]], F.obj_map, F.mor_map)


@SETTINGS
@given(parallel_pairs())
def test_cold_copies_hash_equal(pair):
    # the value hash kept on a category or functor is the one a fresh,
    # equal copy computes
    key, F, _ = pair
    G = cold_copy(key, F)
    assert G.source is not F.source and G.target is not F.target
    assert (G.source, G.target, G) == (F.source, F.target, F)
    assert ((hash(G.source), hash(G.target), hash(G))
            == (hash(F.source), hash(F.target), hash(F)))


@SETTINGS
@given(parallel_pairs())
def test_naturally_isomorphic_matches_cold_natural_isos_and_ho_hom(pair):
    key, F, G = pair
    d = naturally_isomorphic(F, G)
    assert d.agree
    assert d.found == (natural_isos(cold_copy(key, F), cold_copy(key, G)) is not None)
    if key not in HO_HOM:
        HO_HOM[key] = ho_hom(*(_FULL[n] for n in key))
    index = lambda H: next(n for n, cls in enumerate(HO_HOM[key]) if H in cls)
    assert d.found == (index(F) == index(G))
    if d.found:
        assert eta_to_path_homotopy(d.eta).target is path_object(F.target).path_cat


@SETTINGS
@given(parallel_pairs())
def test_pinned_path_route_matches_unpinned_scan(pair):
    # the first K: C -> Hom(I, D) over (F, G) in the unpinned search order,
    # or None when there is none
    _, F, G = pair
    path = path_object(F.target)
    want = next((K for K in enumerate_functors(F.source, path.path_cat)
                 if K.then(path.p0) == F and K.then(path.p1) == G), None)
    assert naturally_isomorphic(F, G).K == want


# -- cylinder pushout: pinned mediating maps against the unpinned scan -------

UNIVERSAL = [F for a in ("0", "1", "K0", "K1", "I") for b in ("0", "1", "K0", "K1", "I")
             for F in enumerate_functors(_FULL[a], _FULL[b])]


def ref_pushout_scan(F, fac, H, tests):
    """The mediating maps of every compatible cocone (u, v), in the order
    cylinder_pushout_check visits them, by the scan it replaced: compose
    every w: D' -> T with H and inc."""
    iota0 = cylinder(F.source).iota0
    out = []
    for T in tests:
        ws = enumerate_functors(fac.dprime, T)
        for u in enumerate_functors(H.source, T):
            for v in enumerate_functors(F.target, T):
                if F.then(v) == iota0.then(u):
                    out.append((u, v, [w for w in ws
                                       if H.then(w) == u and fac.inc.then(w) == v]))
    return out


def test_pinned_mediating_maps_match_unpinned_scan():
    tests = [_FULL[n] for n in ("1", "K0", "I")]
    assert len(UNIVERSAL) == 44
    for F in UNIVERSAL:
        fac = functor_cylinder_factorization(F)
        H = _pushout_homotopy(F, fac)
        want = ref_pushout_scan(F, fac, H, tests)
        for u, v, mediating in want:
            assert list(functors_with(fac.dprime, u.target, [(H, u), (fac.inc, v)], [])) == \
                mediating, F
        # the check stops at the first cocone without exactly one map
        bad = next((k for k, (_, _, m) in enumerate(want) if len(m) != 1), None)
        res = cylinder_pushout_check(F, tests)
        assert (res.ok, res.cocones_checked) == (
            (True, len(want)) if bad is None else (False, bad + 1)), F


def ref_pullback_scan(F, fac, K, tests):
    """The mediating maps of every cone (u, v), in the order
    cocylinder_pullback_check visits them, by the scan it replaced: compose
    every v: T -> Hom(I, D) with p0 and every w: T -> C' with pr1 and K."""
    p0 = path_object(F.target).p0
    out = []
    for T in tests:
        us = enumerate_functors(T, F.source)
        vs = enumerate_functors(T, K.target)
        ws = enumerate_functors(T, fac.cprime)
        for u in us:
            uf = u.then(F)
            for v in vs:
                if v.then(p0) == uf:
                    out.append((u, v, [w for w in ws
                                       if w.then(fac.pr1) == u and w.then(K) == v]))
    return out


def test_pinned_pullback_cones_and_mediating_maps_match_the_scan():
    tests = [_FULL[n] for n in ("1", "K0", "I")]
    for F in UNIVERSAL:
        fac = functor_cocylinder_factorization(F)
        path = path_object(F.target)
        K = _pullback_homotopy(F, fac, path)
        want = ref_pullback_scan(F, fac, K, tests)
        got = [(u, v, list(functors_with(T, fac.cprime, [], [(fac.pr1, u), (K, v)])))
               for T in tests for u in enumerate_functors(T, F.source)
               for v in functors_with(T, path.path_cat, [], [(path.p0, u.then(F))])]
        assert got == want, F
        bad = next((k for k, (_, _, m) in enumerate(want) if len(m) != 1), None)
        res = cocylinder_pullback_check(F, tests)
        assert (res.ok, res.cocones_checked) == (
            (True, len(want)) if bad is None else (False, bad + 1)), F


# -- functors with prescribed composites against a filtered enumeration -----

HOMS = {}       # source name -> [(target name, functors)] among SMALL
for (s, t), fs in PARALLEL.items():
    HOMS.setdefault(s, []).append((t, fs))
INTO = {}       # target name -> [(source name, functors)] among SMALL
for (s, t), fs in PARALLEL.items():
    INTO.setdefault(t, []).append((s, fs))


@st.composite
def prescribed_composites(draw):
    """A pair of categories C, D among SMALL, and up to two legs w o a = b
    and up to two legs p o w = u.  A consistent leg is read off one drawn
    w0: C -> D (b = w0 a, u = p w0), so some w exists; an inconsistent one
    has its b or u drawn freely, so it mostly conflicts.  Legs out of 0 or
    1 leave objects of C that no `before` leg reaches."""
    (c, d) = draw(st.sampled_from(sorted(PARALLEL)))
    w0 = draw(st.sampled_from(PARALLEL[(c, d)]))
    consistent = draw(st.booleans())
    before, after = [], []
    for _ in range(draw(st.integers(0, 2))):
        a_src, fs = draw(st.sampled_from(INTO[c]))
        a = draw(st.sampled_from(fs))
        b = (a.then(w0) if consistent or (a_src, d) not in PARALLEL
             else draw(st.sampled_from(PARALLEL[(a_src, d)])))
        before.append((a, b))
    for _ in range(draw(st.integers(0, 2))):
        e, fs = draw(st.sampled_from(HOMS[d]))
        p = draw(st.sampled_from(fs))
        u = (w0.then(p) if consistent or (c, e) not in PARALLEL
             else draw(st.sampled_from(PARALLEL[(c, e)])))
        after.append((p, u))
    return _FULL[c], _FULL[d], before, after


@settings(max_examples=300, deadline=None, derandomize=True)
@given(prescribed_composites())
def test_functors_with_matches_filtered_enumeration(case):
    C, D, before, after = case
    want = [w for w in enumerate_functors(C, D)
            if all(a.then(w) == b for a, b in before)
            and all(w.then(p) == u for p, u in after)]
    assert list(functors_with(C, D, before, after)) == want


# -- maps out of a cell stage: one pinned search against fill-by-composition -

def ref_induced_from_cells(stage, f, bottoms):
    """The fill-by-composition map that the pinned search replaced: pin what
    the legs force, then compose pinned morphisms until every morphism of the
    pushout has an image.  It builds the map without validating it."""
    target = f.target
    pins = forced_images([(stage.inclusion, f)] + list(zip(stage.cell_maps, bottoms)))
    if pins is None:
        raise ValueError("incompatible cell bottoms")
    obj_map, mor_map = pins
    P = stage.result
    missing_obj = [x for x in P.objects if x not in obj_map]
    if missing_obj:
        raise ValueError(f"pushout object not covered by legs: {missing_obj}")
    changed = True
    while changed and len(mor_map) < len(P.morphisms):
        changed = False
        for (g, f1), h in P.compose_table.items():
            if h not in mor_map and g in mor_map and f1 in mor_map:
                mor_map[h] = target.compose(mor_map[g], mor_map[f1])
                changed = True
    if len(mor_map) < len(P.morphisms):
        raise ValueError("pushout morphism not generated by the legs")
    return Functor(f"{f.name}'", P, target, obj_map, mor_map)


class RecordingAmbient(CatAmbient):
    """A CatAmbient that keeps the arguments of every induced_from_cells."""

    def __init__(self):
        super().__init__()
        self.induced = []

    def induced_from_cells(self, stage, f, bottoms):
        self.induced.append((stage, f, list(bottoms)))
        return super().induced_from_cells(stage, f, bottoms)


def test_induced_from_cells_matches_fill_by_composition():
    # every stage the cells workload's 12 factorizations reach; the three
    # into I raise at stage 2, after their first stage is induced
    cats = base_corpus()
    gens = generating_cofibrations()
    functors = [F for a in ("0", "1") for b in ("0", "1", "K0", "K1", "I")
                for F in enumerate_functors(cats[a], cats[b])]
    assert len(functors) == 12
    a = RecordingAmbient()
    for F in functors:
        try:
            small_object_factorization(a, gens, F, max_stages=3)
        except ValueError:
            pass
    incompatible = 0
    for stage, f, bottoms in a.induced:
        got = CatAmbient().induced_from_cells(stage, f, bottoms)
        assert got == ref_induced_from_cells(stage, f, bottoms)
        assert got.validate().ok
        # a bottom whose square does not commute leaves no map
        for k, (gen, att) in enumerate(zip(stage.generators, stage.attachments)):
            for b in enumerate_functors(gen.target, f.target):
                if gen.then(b) != att.then(f):
                    wrong = bottoms[:k] + [b] + bottoms[k + 1:]
                    with pytest.raises(ValueError):
                        CatAmbient().induced_from_cells(stage, f, wrong)
                    incompatible += 1
    assert len(a.induced) > 12 and incompatible > 0


# -- saturation: integer path ids against the tuple-keyed closure -----------

def ref_closure_at(pres, L):
    """The closure on (src, arrows) keys that the integer one replaced:
    (endpoints, find, rank), or None at the first path past PATH_BUDGET."""
    Q = pres.quiver
    out_arrows = {}
    in_arrows = {}
    for (a, s, t) in Q.arrows:
        out_arrows.setdefault(s, []).append((a, t))
        in_arrows.setdefault(t, []).append((a, s))
    frontier = [(v, ()) for v in Q.vertices]
    endpoints = {k: (k[0], k[0]) for k in frontier}
    for _ in range(L):
        nxt = []
        for k in frontier:
            src, arrows = k
            tgt = endpoints[k][1]
            for (a, t2) in out_arrows.get(tgt, ()):
                nk = (src, (a,) + arrows)
                if nk not in endpoints:
                    endpoints[nk] = (src, t2)
                    if len(endpoints) > diagrams.PATH_BUDGET:
                        return None
                    nxt.append(nk)
        frontier = nxt
    parent = {k: k for k in endpoints}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def rank(k):
        return (len(k[1]), k[1], k[0])

    queue = []
    for (pa, pb) in pres.relations:
        ka, kb = (pa[0], tuple(pa[1])), (pb[0], tuple(pb[1]))
        if ka in endpoints and kb in endpoints:
            queue.append((ka, kb))
    while queue:
        ka, kb = queue.pop()
        ra, rb = find(ka), find(kb)
        if ra == rb:
            continue
        if rank(rb) < rank(ra):
            ra, rb = rb, ra
        parent[rb] = ra
        src, tgt = endpoints[ra]
        for (a, _) in out_arrows.get(tgt, ()):
            na, nb = (ra[0], (a,) + ra[1]), (rb[0], (a,) + rb[1])
            if na in endpoints and nb in endpoints:
                queue.append((na, nb))
        for (a, s2) in in_arrows.get(src, ()):
            na, nb = (s2, ra[1] + (a,)), (s2, rb[1] + (a,))
            if na in endpoints and nb in endpoints:
                queue.append((na, nb))
    return endpoints, find, rank


def ref_category(pres, endpoints, find, rank, reps):
    Q = pres.quiver
    classes = sorted(reps.values(), key=rank)
    name_of = {r: diagrams._mor_name(r) for r in classes}
    rep_of_key = {k: reps[find(k)] for k in endpoints}
    mors = [(name_of[r], endpoints[r][0], endpoints[r][1]) for r in classes]
    ident = {v: name_of[rep_of_key[(v, ())]] for v in Q.vertices}
    comp = {}
    for r1 in classes:
        for r2 in classes:
            if endpoints[r2][1] != endpoints[r1][0]:
                continue
            k = (endpoints[r2][0], r1[1] + r2[1])
            if k not in rep_of_key:
                return None
            comp[(name_of[r1], name_of[r2])] = name_of[rep_of_key[k]]
    return FinCat("colim", Q.vertices, mors, ident, comp)


def ref_saturate(pres, max_len=10, fixed_len=None):
    """The horizon loop over `ref_closure_at`."""
    min_len = max([2] + [len(p[1]) for rel in pres.relations for p in rel])
    lengths = [fixed_len] if fixed_len is not None else list(range(min_len, max_len + 1))
    last_count = None
    last_len = 0
    for L in lengths:
        closed = ref_closure_at(pres, L)
        if closed is None:
            break
        last_len = L
        endpoints, find, rank = closed
        classes = {}
        for k in endpoints:
            classes.setdefault(find(k), []).append(k)
        reps = {r: min(members, key=rank) for r, members in classes.items()}
        count = len(reps)
        path_class = {k: reps[find(k)] for k in endpoints}
        if count > diagrams.CLASS_BUDGET:
            return SaturationResult("possibly_infinite", None, count, L)
        if fixed_len is not None:
            return SaturationResult("census", None, count, L,
                                    class_reps=sorted(reps.values(), key=rank))
        M = max((len(r[1]) for r in reps.values()), default=0)
        if M <= L - 1 and 2 * M <= L:
            cat = ref_category(pres, endpoints, find, rank, reps)
            if cat is not None and cat.validate().ok:
                return SaturationResult("total", cat, count, L,
                                        class_reps=sorted(reps.values(), key=rank),
                                        path_class=path_class)
        last_count = count
    return SaturationResult("possibly_infinite", None, last_count or 0, last_len)


@st.composite
def presentations(draw):
    """At most 3 vertices, at most 5 arrows (named out of quiver order, some
    drawn parallel to an earlier one) and, when there is a vertex, 1 to 6
    relations between parallel paths of length <= 3 or between two parallel
    arrows.  Some relations state both sides from another vertex, so that
    a side with an arrow is no longer a path."""
    vertices = [f"v{i}" for i in range(draw(st.integers(0, 3)))]
    names = draw(st.permutations("abcde"))
    ends = st.sampled_from(vertices) if vertices else st.nothing()
    n_arrows = draw(st.integers(0, 5)) if vertices else 0
    arrows = []
    for i in range(n_arrows):
        if arrows and draw(st.booleans()):
            _, s, t = draw(st.sampled_from(arrows))
        else:
            s, t = draw(ends), draw(ends)
        arrows.append((names[i], s, t))
    parallel = {}           # (src, tgt) -> paths of length <= 3
    layer = [(v, (), v) for v in vertices]
    for _ in range(4):
        for (s, path, t) in layer:
            parallel.setdefault((s, t), []).append((s, path))
        layer = [(s, (a,) + path, t2) for (s, path, t) in layer
                 for (a, s2, t2) in arrows if s2 == t]
    relations = []
    if parallel:
        for _ in range(draw(st.integers(1, 6))):
            paths = parallel[draw(st.sampled_from(sorted(parallel)))]
            if draw(st.booleans()):
                paths = [p for p in paths if len(p[1]) == 1] or paths
            pa, pb = draw(st.sampled_from(paths)), draw(st.sampled_from(paths))
            if draw(st.integers(0, 3)) == 0:
                u = draw(st.sampled_from(vertices))
                pa, pb = (u, pa[1]), (u, pb[1])
            relations.append((pa, pb))
    return CatPresentation(Quiver("Q", vertices, arrows), relations)


def same_saturation(got, want):
    assert (got.status, got.class_count, got.explored_len) == (
        want.status, want.class_count, want.explored_len)
    assert got.class_reps == want.class_reps
    assert got.path_class == want.path_class
    assert (got.category is None) == (want.category is None)
    if want.category is not None:
        assert got.category.morphisms == want.category.morphisms
        assert got.category.identity == want.category.identity
        assert got.category.compose_table == want.category.compose_table


@settings(max_examples=300, deadline=None, derandomize=True)
@given(presentations(), st.integers(0, 4))
def test_saturate_matches_tuple_keyed_closure(pres, k):
    # budgets from below the vertex count to past every horizon here
    for budget in (0, 2, 9, 60, 700, 5_000):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(diagrams, "PATH_BUDGET", budget)
            for kwargs in ({}, {"max_len": 4}, {"fixed_len": k}):
                same_saturation(diagrams.saturate(pres, **kwargs), ref_saturate(pres, **kwargs))


# -- linalg: fraction-free rref against Fraction Gauss-Jordan ----------------

def ref_rref(a):
    """Gauss-Jordan elimination in Fraction arithmetic, which the
    fraction-free `rref` replaced: the same pivot choice, with every row
    normalized at its pivot and every other row cleared by it."""
    m, n = shape(a)
    r = [row[:] for row in a]
    pivots = []
    row = 0
    for col in range(n):
        sel = next((i for i in range(row, m) if r[i][col]), None)
        if sel is None:
            continue
        r[row], r[sel] = r[sel], r[row]
        inv = Fraction(1) / r[row][col]
        r[row] = [x * inv for x in r[row]]
        for i in range(m):
            if i != row and r[i][col]:
                c = r[i][col]
                r[i] = [x - c * y for x, y in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return r, pivots


entries = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                   st.builds(Fraction, st.integers(-9, 9), st.integers(1, 8)))


@st.composite
def rational_matrices(draw, rows=None):
    """Up to 6 x 7, or `rows` x up to 7, no rows included, with integer and
    non-integer entries, columns that are zero throughout, and rows that are
    zero or a combination of two earlier rows."""
    m = draw(st.integers(0, 6)) if rows is None else rows
    n = draw(st.integers(0, 7))
    zero_cols = draw(st.sets(st.integers(0, n - 1))) if n else set()
    a = []
    for _ in range(m):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            row = [Fraction(0)] * n
        elif kind == "combination" and a:
            u, v = draw(st.sampled_from(a)), draw(st.sampled_from(a))
            c, e = draw(entries), draw(entries)
            row = [c * x + e * y for x, y in zip(u, v)]
        else:
            row = [Fraction(0) if j in zero_cols else draw(entries) for j in range(n)]
        a.append(row)
    return a


@settings(max_examples=600, deadline=None, derandomize=True)
@given(rational_matrices())
def test_fraction_free_rref_matches_fraction_gauss_jordan(a):
    assert rref(a) == ref_rref(a)


def ref_nullspace(a):
    """One basis vector of ker a per free column of `ref_rref(a)`."""
    r, pivots = ref_rref(a)
    n = shape(a)[1]
    basis = []
    for j in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][j]
        basis.append(v)
    return basis


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rational_matrices())
def test_rank_and_nullspace_match_their_ref_rref_readings(a):
    assert rank(a) == len(ref_rref(a)[1])
    assert nullspace(a) == ref_nullspace(a)


@st.composite
def matrix_products(draw):
    """(a, b) with as many rows in b as a has columns: b is drawn free, or
    its columns are combinations of a basis of ker a, so that a b = 0 and
    products through no rows or no columns arise."""
    a = draw(rational_matrices())
    n = shape(a)[1]
    if draw(st.booleans()):
        return a, draw(rational_matrices(rows=n))
    kernel = ref_nullspace(a)
    cols = []
    for _ in range(draw(st.integers(0, 4))):
        col = [Fraction(0)] * n
        for v in kernel:
            c = draw(entries)
            col = [x + c * y for x, y in zip(col, v)]
        cols.append(col)
    return a, [[c[i] for c in cols] for i in range(n)]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(matrix_products())
def test_integer_products_match_the_fraction_product(pair):
    a, b = pair
    want = ref_mat_mul(a, b)
    got = mat_mul(a, b)
    assert got == want and all(type(x) is Fraction for row in got for x in row)
    # d^1 = a after d^0 = b: validate decides a b = 0 by its zero-product test
    X = Complex((0, 2), {0: shape(b)[1], 1: len(b), 2: len(a)}, {0: b, 1: a})
    zero = not any(any(row) for row in want)
    assert X.validate() == (zero, [] if zero else ["d^1 d^0 != 0"])


# -- complexes: one reduction per matrix against one per vector -------------

def ref_solve(a, b):
    """The single right-hand-side solve that the multi-RHS one replaced."""
    m, n = shape(a)
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    aug = [a[i][:] + [b[i]] for i in range(m)] if m else []
    if m == 0:
        return [Fraction(0)] * n
    r, pivots = ref_rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, pc in enumerate(pivots):
        x[pc] = r[i][n]
    return x


def ref_section_condition(f, n):
    """section_condition with one solve per pair."""
    X, Y = f.source, f.target
    dn1 = X.diff(n + 1)
    fn1 = f.component(n + 1)
    dyn = Y.diff(n)
    rows = []
    dimx, dimy = X.dim(n + 1), Y.dim(n)
    for i in range(X.dim(n + 2)):
        rows.append([dn1[i][j] for j in range(dimx)] + [Fraction(0)] * dimy)
    for i in range(Y.dim(n + 1)):
        rows.append([fn1[i][j] for j in range(dimx)]
                    + [-dyn[i][j] for j in range(dimy)])
    if not rows and (dimx + dimy):
        rows = [[Fraction(0)] * (dimx + dimy)]
    pairs = nullspace(rows) if (dimx + dimy) else []
    span_rows = []
    for i in range(dimx):
        span_rows.append([X.diff(n)[i][j] for j in range(X.dim(n))])
    for i in range(dimy):
        span_rows.append([f.component(n)[i][j] for j in range(X.dim(n))])
    unsolved = [v for v in pairs if ref_solve(span_rows, v) is None]
    return (not unsolved, {"pairs": len(pairs), "unsolved": unsolved})


@st.composite
def linear_systems(draw):
    """A small integer matrix a and right-hand sides that are free, in the
    image of a, or combinations of earlier ones plus an image vector, so
    several dependent inconsistent columns arise (b, 2b, b + a x, ...)."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.integers(-2, 2).map(Fraction)
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    bs = []
    for _ in range(draw(st.integers(0, 6))):
        image = mat_vec(a, [draw(entry) for _ in range(n)]) if m else []
        kind = draw(st.sampled_from(["free", "image", "combination"]))
        if kind == "free":
            b = [draw(entry) for _ in range(m)]
        elif kind == "image" or not bs:
            b = image
        else:
            u, v = draw(st.sampled_from(bs)), draw(st.sampled_from(bs))
            c, e = draw(entry), draw(entry)
            b = [c * x + e * y + z for x, y, z in zip(u, v, image)]
        bs.append(b)
    return a, bs


chain_maps = st.integers(0, 2**32 - 1).map(lambda s: random_bounded_chain_map(random.Random(s)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(linear_systems())
def test_multi_rhs_solve_matches_single_vector_solve(system):
    a, bs = system
    assert solve(a, bs) == [ref_solve(a, b) for b in bs]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chain_maps)
def test_c2_matches_the_general_h_injectivity_formula(f):
    rep = surj_quas_criteria(f)
    assert (rep.c2, rep.details["c2_failure"]) == ref_c2(f)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chain_maps)
def test_rank_formula_quasi_iso_matches_cone_cohomology(f):
    C = cone(f)
    assert is_quasi_iso(f) == all(cohomology(C, n).h_dim == 0 for n in C.degrees())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chain_maps)
def test_integer_cone_matches_the_fraction_cone(f):
    assert is_quasi_iso(f) == ref_is_quasi_iso(f)
    assert_same_complex(cone(f), ref_cone(f))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chain_maps)
def test_batched_section_condition_matches_per_vector(f):
    lo, hi = f.source.window
    for n in range(lo - 1, hi + 1):
        assert section_condition(f, n) == ref_section_condition(f, n)

"""Property-based differential tests: the memoized routes of a long-lived
ambient, and the cylinders and path objects kept on shared categories,
against the uncached routes on fresh ones."""

from hypothesis import given, settings
from hypothesis import strategies as st

from modelbench.catmodel import CatAmbient, ho_hom, naturally_isomorphic, path_object
from modelbench.catmodel.homotopy import _path_route, eta_to_path_homotopy
from modelbench.fincat import Functor, enumerate_functors
from modelbench.fincat.corpus import base_corpus, full_corpus
from modelbench.fincat.enumfun import natural_isos
from modelbench.lifting import find_retract, is_orthogonal

_CATS = list(base_corpus().values())
FUNCTORS = [F for C in _CATS for D in _CATS for F in enumerate_functors(C, D)]

# Shared by every example, so its memos fill up as the examples run.
MEMO = CatAmbient()

functors = st.sampled_from(FUNCTORS)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def uncached_retract(a, f, f2):
    """The retract search without section-pair memo: every (i, p, j, q) in
    the same order as find_retract."""
    x, y, x2, y2 = a.dom(f), a.cod(f), a.dom(f2), a.cod(f2)
    sections = lambda u, v: [
        (i, p) for i in a.morphisms_between(u, v) for p in a.morphisms_between(v, u)
        if a.equal(a.compose(p, i), a.identity(u))]
    for (i, p) in sections(x, x2):
        for (j, q) in sections(y, y2):
            if (a.equal(a.compose(f2, i), a.compose(j, f))
                    and a.equal(a.compose(q, f2), a.compose(f, p))):
                return i, p, j, q
    return None


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
        assert all(MEMO.equal(u, v) for u, v in zip((w.i, w.p, w.j, w.q), want))


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
    assert _path_route(F, G) == want

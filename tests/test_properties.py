"""Property-based differential tests: the memoized routes of a long-lived
ambient against the uncached routes on a fresh one."""

from hypothesis import given, settings
from hypothesis import strategies as st

from modelbench.catmodel import CatAmbient
from modelbench.fincat import enumerate_functors
from modelbench.fincat.corpus import base_corpus
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

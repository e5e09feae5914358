"""Lifting, orthogonality and retract search over functors.

A square from f: A -> B to g: X -> Y (top: A -> X, bottom: B -> Y with
g o top = bottom o f) has a diagonal h: B -> X exactly when some h in
Hom(B, X) has h o f = top and g o h = bottom.  So f has the left lifting
property against g iff the map

    Hom(B, X) -> Hom(A, X) x_{Hom(A, Y)} Hom(B, Y),    h |-> (h o f, g o h)

is onto (Quillen, Homotopical Algebra, 1967; Riehl, Categorical Homotopy
Theory, 2014, 11.1).  `lifted_squares` decides every square of a pair (f, g)
from one pass over Hom(B, X) that records the image of this map, and
`is_orthogonal` and the ambient's `attachment_squares` read it.  Squares and
retracts are compared through the ambient's int tables `pre` and `post` of
composites, so no composite `Functor` is built.
`find_lifting` finds the diagonal of one given square, a witness that no
checker here asks for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import LiftWitness, RetractWitness, Square


@dataclass
class OrthogonalityResult:
    orthogonal: bool
    counterexample: Square | None
    squares_checked: int


def find_lifting(a, square: Square) -> LiftWitness | None:
    """A verified diagonal for the square, or None after exhausting the
    ambient's lift candidates."""
    if not square.commutes():
        raise ValueError("square does not commute")
    for h in a.lift_candidates(square):
        if square.admits(h):
            return LiftWitness(square, h)
    return None


def lifted_squares(a, f, g):
    """Every commuting square from f to g, lexicographic in (top, bottom),
    each paired with whether it has a diagonal.

    A square commutes when post(g, A)[top] == pre(f, Y)[bottom], the ids of
    g o top and bottom o f; the bottoms are bucketed by that id.  The
    answers come from one set, built at the first commuting square: a
    square has a diagonal iff (id top, id bottom) is some
    (pre(f, X)[h], post(g, B)[h]), the ids of (h o f, g o h)."""
    A, B, X, Y = f.source, f.target, g.source, g.target
    tops = a.morphisms_between(A, X)
    bottoms = a.morphisms_between(B, Y)
    by_bf = {}
    for k, bf in enumerate(a.pre(f, Y)):
        by_bf.setdefault(bf, []).append(k)
    lifts = None
    for top, gt in zip(tops, a.post(g, A)):
        for k in by_bf.get(gt, ()):
            if lifts is None:
                lifts = set(zip(a.pre(f, X), a.post(g, B)))
            bottom = bottoms[k]
            yield Square(f, g, top, bottom), (a.id_of(top), a.id_of(bottom)) in lifts


def is_orthogonal(a, f, g) -> OrthogonalityResult:
    """f perp g: every commuting square has a diagonal, that is, h |-> (h o f,
    g o h) maps Hom(cod f, dom g) onto the commuting squares.  Counts the
    squares up to the first one with no diagonal, which is the
    counterexample."""
    checked = 0
    for sq, lifted in lifted_squares(a, f, g):
        checked += 1
        if not lifted:
            return OrthogonalityResult(False, sq, checked)
    return OrthogonalityResult(True, None, checked)


def find_retract(a, f, f2) -> RetractWitness | None:
    """Exhaustive search for a retract presentation of f through f2, in
    the order of the ambient's memoized section pairs.  The two square
    conditions f2 o i == j o f and q o f2 == f o p compare ids from the
    `pre` and `post` tables, so no composite `Functor` is built."""
    x, y, x2, y2 = f.source, f.target, f2.source, f2.target
    xs, ys = a.section_pairs(x, x2), a.section_pairs(y, y2)
    if not (xs and ys):
        return None
    f2i, fp = a.post(f2, x), a.post(f, x2)
    jf, qf2 = a.pre(f, y2), a.pre(f2, y)
    first = {}
    for (j, q) in ys:
        first.setdefault((jf[j], qf2[q]), (j, q))
    for (i, p) in xs:
        jq = first.get((f2i[i], fp[p]))
        if jq is not None:
            j, q = jq
            return RetractWitness(f, f2,
                                  a.morphisms_between(x, x2)[i], a.morphisms_between(x2, x)[p],
                                  a.morphisms_between(y, y2)[j], a.morphisms_between(y2, y)[q])
    return None

"""Lifting, orthogonality and retract search over an ambient.

A square from f: A -> B to g: X -> Y (top: A -> X, bottom: B -> Y with
g o top = bottom o f) has a diagonal h: B -> X exactly when some h in
Hom(B, X) has h o f = top and g o h = bottom.  So f has the left lifting
property against g iff the map

    Hom(B, X) -> Hom(A, X) x_{Hom(A, Y)} Hom(B, Y),    h |-> (h o f, g o h)

is onto (Quillen, Homotopical Algebra, 1967; Riehl, Categorical Homotopy
Theory, 2014, 11.1).  `lifted_squares` decides every square of a pair (f, g)
from one pass over Hom(B, X) that records the image of this map;
`find_lifting` is the per-square route that searches for one diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import LiftWitness, RetractWitness, Square


@dataclass
class OrthogonalityResult:
    orthogonal: bool
    counterexample: Square | None = None
    squares_checked: int = 0


def find_lifting(square: Square) -> LiftWitness | None:
    """A verified diagonal for the square, or None after exhausting the
    ambient's lift candidates."""
    if not square.commutes():
        raise ValueError("square does not commute")
    for h in square.ambient.lift_candidates(square):
        if square.admits(h):
            return LiftWitness(square, h)
    return None


def lifted_squares(a, f, g):
    """Every commuting square from f to g, lexicographic in (top, bottom),
    each paired with whether it has a diagonal.

    The answers come from one table, built at the first commuting square:
    for each h: cod f -> dom g, lifts[h o f] lists every g o h, so a square
    has a diagonal iff its bottom is in the list under its top."""
    tops = a.morphisms_between(a.dom(f), a.dom(g))
    bottoms = a.morphisms_between(a.cod(f), a.cod(g))
    bottoms_f = [(bottom, a.compose(bottom, f)) for bottom in bottoms]
    lifts = None
    for top in tops:
        gt = a.compose(g, top)
        for bottom, bf in bottoms_f:
            if a.equal(gt, bf):
                if lifts is None:
                    lifts = {}
                    for h in a.morphisms_between(a.cod(f), a.dom(g)):
                        lifts.setdefault(a.compose(h, f), []).append(a.compose(g, h))
                yield Square(a, f, g, top, bottom), bottom in lifts.get(top, ())


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
    """Exhaustive search for a retract presentation of f through f2.  The
    section pairs come from the ambient's per-object-pair memo, so only the
    two square conditions are left to test; their composites with f and f2
    are formed once per pair."""
    xs = [(i, p, a.compose(f2, i), a.compose(f, p))
          for (i, p) in a.section_pairs(a.dom(f), a.dom(f2))]
    ys = [(j, q, a.compose(j, f), a.compose(q, f2))
          for (j, q) in a.section_pairs(a.cod(f), a.cod(f2))]
    for (i, p, f2i, fp) in xs:
        for (j, q, jf, qf2) in ys:
            if a.equal(f2i, jf) and a.equal(qf2, fp):
                return RetractWitness(a, f, f2, i, p, j, q)
    return None

"""Lifting, orthogonality and retract search over an ambient."""

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


def enumerate_squares(a, f, g):
    """All commuting squares from f to g, lexicographic in (top, bottom)."""
    tops = a.morphisms_between(a.dom(f), a.dom(g))
    bottoms = a.morphisms_between(a.cod(f), a.cod(g))
    bottoms_f = [(bottom, a.compose(bottom, f)) for bottom in bottoms]
    for top in tops:
        gt = a.compose(g, top)
        for bottom, bf in bottoms_f:
            if a.equal(gt, bf):
                yield Square(a, f, g, top, bottom)


def is_orthogonal(a, f, g) -> OrthogonalityResult:
    """f perp g: every enumerable commuting square admits a lift."""
    checked = 0
    for sq in enumerate_squares(a, f, g):
        checked += 1
        if find_lifting(sq) is None:
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

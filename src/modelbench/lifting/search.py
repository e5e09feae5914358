"""Lifting, orthogonality and retract search over an ambient."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Ambient, LiftWitness, RetractWitness, Square


@dataclass
class OrthogonalityResult:
    orthogonal: bool
    counterexample: Square | None = None
    squares_checked: int = 0


def find_lifting(square: Square, guard=None) -> LiftWitness | None:
    """A verified diagonal for the square, or None after exhausting the
    ambient's lift candidates."""
    if not square.commutes():
        raise ValueError("square does not commute")
    for h in square.ambient.lift_candidates(square, guard=guard):
        if square.admits(h):
            return LiftWitness(square, h)
    return None


def enumerate_squares(a: Ambient, f, g, guard=None):
    """All commuting squares from f to g, lexicographic in (top, bottom)."""
    tops = a.morphisms_between(a.dom(f), a.dom(g), guard=guard)
    bottoms = a.morphisms_between(a.cod(f), a.cod(g), guard=guard)
    for top in tops:
        gt = a.compose(g, top)
        for bottom in bottoms:
            if a.equal(gt, a.compose(bottom, f)):
                yield Square(a, f, g, top, bottom)


def is_orthogonal(a: Ambient, f, g, guard=None) -> OrthogonalityResult:
    """f perp g: every enumerable commuting square admits a lift."""
    checked = 0
    for sq in enumerate_squares(a, f, g, guard=guard):
        checked += 1
        if find_lifting(sq, guard=guard) is None:
            return OrthogonalityResult(False, sq, checked)
    return OrthogonalityResult(True, None, checked)


def find_retract(a: Ambient, f, f2, guard=None) -> RetractWitness | None:
    """Exhaustive search for a retract presentation of f through f2."""
    x, y = a.dom(f), a.cod(f)
    x2, y2 = a.dom(f2), a.cod(f2)
    idx, idy = a.identity(x), a.identity(y)
    section_pairs_x = [
        (i, p)
        for i in a.morphisms_between(x, x2, guard=guard)
        for p in a.morphisms_between(x2, x, guard=guard)
        if a.equal(a.compose(p, i), idx)
    ]
    section_pairs_y = [
        (j, q)
        for j in a.morphisms_between(y, y2, guard=guard)
        for q in a.morphisms_between(y2, y, guard=guard)
        if a.equal(a.compose(q, j), idy)
    ]
    for (i, p) in section_pairs_x:
        for (j, q) in section_pairs_y:
            w = RetractWitness(a, f, f2, i, p, j, q)
            if w.verify():
                return w
    return None

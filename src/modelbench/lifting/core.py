"""Squares, witnesses and the model triple of the lifting checkers.

The checkers read functors directly: `f.source`, `f.target`,
`identity_functor` and `==`.  `catmodel.CatAmbient` supplies only what it
memoizes (the functors between two categories, int tables of composites,
shared composites, the orthogonality and section pairs) and its cell
operations.  Every witness holds functors alone and re-verifies by
composing them with `Functor.then`, so a returned witness keeps no ambient
alive.  `search.lifted_squares` builds the `Square`s of a pair (f, g) and
decides which have a diagonal, which is all the checkers ask;
`search.find_lifting` searches one given square for its diagonal, a witness
that no checker builds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fincat import Functor
from ..fincat.core import identity_functor


@dataclass
class Square:
    """Commuting square of functors: right o top = bottom o left, with
    `left` the functor lifted against `right`.  It holds no ambient, so a
    square kept in an ambient's memo does not keep the ambient alive."""

    left: Functor
    right: Functor
    top: Functor
    bottom: Functor

    def commutes(self) -> bool:
        return self.top.then(self.right) == self.left.then(self.bottom)

    def admits(self, h: Functor) -> bool:
        """Do the two triangles commute for the candidate diagonal h?"""
        return self.left.then(h) == self.top and h.then(self.right) == self.bottom


@dataclass
class LiftWitness:
    square: Square
    h: object

    def verify(self) -> bool:
        return self.square.commutes() and self.square.admits(self.h)


@dataclass
class RetractWitness:
    """f is a retract of f2 via X -i-> X' -p-> X and Y -j-> Y' -q-> Y."""

    f: Functor
    f2: Functor
    i: Functor
    p: Functor
    j: Functor
    q: Functor

    def verify(self) -> bool:
        f, f2 = self.f, self.f2
        return (self.i.then(self.p) == identity_functor(f.source)
                and self.j.then(self.q) == identity_functor(f.target)
                and self.i.then(f2) == f.then(self.j)
                and f2.then(self.q) == self.p.then(f))


@dataclass
class CellStage:
    """One pushout stage: generators attached along maps into the current
    object, producing `inclusion` into the next object."""

    generators: list
    attachments: list
    result: object
    inclusion: object
    cell_maps: list


@dataclass
class ModelTriple:
    """Class membership tests for (Cof, We, Fib)."""

    cof: object
    we: object
    fib: object
    name: str = "triple"

    def acyclic_cof(self, f):
        return self.cof(f) and self.we(f)

    def acyclic_fib(self, f):
        return self.fib(f) and self.we(f)

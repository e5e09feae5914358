"""Squares, witnesses and the model triple of the lifting checkers.

The checkers run over one ambient, `catmodel.CatAmbient`: morphisms are
functors, and it supplies equality, composition, identities, enumeration
of the functors between two categories, int tables of composites, and the
memoized orthogonality and section pairs.  A `Square` and its `LiftWitness`
re-verify by composing functors; the other witnesses hold their ambient
and re-verify against it alone.  `search.lifted_squares` builds the
`Square`s of a pair (f, g) and decides which have a diagonal, which is all
the checkers ask; `search.find_lifting` searches one given square for its
diagonal, a witness that no checker builds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fincat import Functor


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

    ambient: object
    f: object
    f2: object
    i: object
    p: object
    j: object
    q: object

    def verify(self) -> bool:
        a = self.ambient
        idx = a.identity(a.dom(self.f))
        idy = a.identity(a.cod(self.f))
        return (a.equal(a.compose(self.p, self.i), idx)
                and a.equal(a.compose(self.q, self.j), idy)
                and a.equal(a.compose(self.f2, self.i), a.compose(self.j, self.f))
                and a.equal(a.compose(self.q, self.f2), a.compose(self.f, self.p)))


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
class CellComplexWitness:
    ambient: object
    source: object
    stages: list            # list of CellStage

    def composite(self):
        a = self.ambient
        out = None
        for st in self.stages:
            out = st.inclusion if out is None else a.compose(st.inclusion, out)
        return out if out is not None else a.identity(self.source)


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

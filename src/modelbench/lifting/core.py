"""Generic lifting machinery, parameterized over an ambient category.

An Ambient wraps a category of models (so far finite categories, through
`CatAmbient`) behind a small morphism-level interface: equality,
composition, identities, and enumeration of the morphisms between two
objects.  All certificates carry enough data to be re-verified against the
ambient alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class Ambient:
    """Interface consumed by the generic checkers.  Morphisms are opaque
    values; the ambient interprets them.  Morphisms and objects must be
    hashable, with `==` agreeing with `equal`: the derived facts below are
    memoized per value for the life of the ambient."""

    name = "ambient"

    def __init__(self):
        self._orth_memo: dict = {}
        self._section_memo: dict = {}

    def equal(self, f, g) -> bool:
        raise NotImplementedError

    def compose(self, g, f):
        """g after f."""
        raise NotImplementedError

    def identity(self, obj):
        raise NotImplementedError

    def dom(self, f):
        raise NotImplementedError

    def cod(self, f):
        raise NotImplementedError

    def is_iso(self, f) -> bool:
        raise NotImplementedError

    # -- enumeration -----------------------------------------------------

    def morphisms_between(self, x, y):
        raise NotImplementedError

    def lift_candidates(self, square):
        """Candidate diagonals for a commuting square; defaults to all
        morphisms cod(left) -> dom(right)."""
        return self.morphisms_between(self.cod(square.left), self.dom(square.right))

    # -- colimit-flavoured capabilities (bounded) ------------------------

    def attach_cells(self, obj, attachments):
        """Pushout of a coproduct of generating morphisms along attaching
        maps out of their domains.  Returns (new_obj, inclusion, cell_maps)
        where cell_maps[i] is the image of the i-th generator's codomain."""
        raise NotImplementedError

    # -- derived operations (overridable with instance-specific algebra) --

    def orthogonal(self, f, g):
        """f perp g, memoized per (f, g) for as long as this ambient lives;
        a checker that wants fresh answers builds a fresh ambient.  The
        result is shared between callers and must not be mutated.  A search
        that runs out of budget raises and stores nothing.  `is_orthogonal`
        is the uncached primitive."""
        key = (f, g)
        res = self._orth_memo.get(key)
        if res is None:
            from .search import is_orthogonal
            res = self._orth_memo[key] = is_orthogonal(self, f, g)
        return res

    def section_pairs(self, x, x2):
        """All (i: x -> x2, p: x2 -> x) with p o i = id_x, memoized per
        (x, x2) for as long as this ambient lives."""
        key = (x, x2)
        pairs = self._section_memo.get(key)
        if pairs is None:
            idx = self.identity(x)
            pairs = self._section_memo[key] = [
                (i, p)
                for i in self.morphisms_between(x, x2)
                for p in self.morphisms_between(x2, x)
                if self.equal(self.compose(p, i), idx)
            ]
        return pairs

    def in_generators_perp(self, generators, p):
        """Is p in generators^perp?  Default: test each generator."""
        from .search import OrthogonalityResult
        total = 0
        for s in generators:
            res = self.orthogonal(s, p)
            total += res.squares_checked
            if not res.orthogonal:
                return OrthogonalityResult(False, res.counterexample, total)
        return OrthogonalityResult(True, None, total)


@dataclass
class Square:
    """Commuting square: right o top = bottom o left, with `left` the
    morphism lifted against `right`."""

    ambient: Ambient
    left: object
    right: object
    top: object
    bottom: object

    def commutes(self) -> bool:
        a = self.ambient
        return a.equal(a.compose(self.right, self.top),
                       a.compose(self.bottom, self.left))

    def admits(self, h) -> bool:
        """Do the two triangles commute for the candidate diagonal h?"""
        a = self.ambient
        return (a.equal(a.compose(h, self.left), self.top)
                and a.equal(a.compose(self.right, h), self.bottom))


@dataclass
class LiftWitness:
    square: Square
    h: object

    def verify(self) -> bool:
        return self.square.commutes() and self.square.admits(self.h)


@dataclass
class RetractWitness:
    """f is a retract of f2 via X -i-> X' -p-> X and Y -j-> Y' -q-> Y."""

    ambient: Ambient
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
    cell_maps: list = field(default_factory=list)


@dataclass
class CellComplexWitness:
    ambient: Ambient
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

"""The finite-category ambient of the lifting checkers."""

from __future__ import annotations

from ..fincat import FinCat, Functor, enumerate_functors, free_category
from ..fincat.core import identity_functor
from ..fincat.diagrams import CatDiagram, colimit
from ..fincat.enumfun import functors_with
from ..lifting.search import OrthogonalityResult, is_orthogonal, lifted_squares


class CatAmbient:
    """What the lifting checkers memoize, which they otherwise read off the
    functors: the functors of each Hom set, int tables of composites, one
    instance per composite value, the orthogonality results and the section
    pairs, kept per value (functors and categories keep their value hash)
    for the life of the ambient; and the cell operations of the small
    object argument.  No witness or factorization refers back to it.

    The lifting and retract searches compare functors as ints.  `_ids` maps
    each functor's value `key` (its morphism images in source order) to an
    int, which tells functors apart within one Hom set.  Two int tables are
    built from it, memoized per (functor, category):

    - `pre(f, x)[k]`, in `_pre`, is the id of h o f for the k-th h in
      Hom(cod f, x);
    - `post(g, b)[k]`, in `_post`, is the id of g o h for the k-th h in
      Hom(b, dom g).

    Either table composes through the keys alone, so it builds no `Functor`
    and enumerates no Hom set but the one it is indexed by.  `_section_memo`
    keeps the section pairs of each object pair as index pairs, and
    `_composites` keeps one instance per composite value, so facts kept on a
    composite (its classification) are computed once.  `equal` is `==`;
    nothing in the package calls it, but the benchmark's cells workload
    does."""

    def __init__(self):
        self._fun_cache: dict = {}
        self._orth_memo: dict = {}
        self._section_memo: dict = {}
        self._ids: dict = {}
        self._pre: dict = {}
        self._post: dict = {}
        self._composites: dict = {}

    def equal(self, f: Functor, g: Functor) -> bool:
        """f == g; kept because the benchmark's cells check reads it."""
        return f == g

    def compose(self, g: Functor, f: Functor) -> Functor:
        """g o f, one shared instance per value for the life of this
        ambient."""
        if f.target != g.source:
            raise ValueError("functors not composable")
        key = (f.source, g.target, tuple(map(g.mor_map.__getitem__, f.key)))
        gf = self._composites.get(key)
        if gf is None:
            gf = self._composites[key] = f.then(g)
        return gf

    def morphisms_between(self, x: FinCat, y: FinCat):
        key = (x, y)
        if key not in self._fun_cache:
            self._fun_cache[key] = enumerate_functors(x, y)
        return self._fun_cache[key]

    def id_of(self, f: Functor) -> int:
        """The int of f's value; equal ints within one Hom set are equal
        functors."""
        return self._ids.setdefault(f.key, len(self._ids))

    def _ids_of(self, keys):
        ids = self._ids
        return [ids.setdefault(k, len(ids)) for k in keys]

    def pre(self, f: Functor, x: FinCat) -> list:
        """pre(f, x)[k] is the id of h o f for the k-th h in
        Hom(cod f, x), memoized per (f, x)."""
        key = (f, x)
        table = self._pre.get(key)
        if table is None:
            fk = f.key
            table = self._pre[key] = self._ids_of(
                tuple(map(h.mor_map.__getitem__, fk))
                for h in self.morphisms_between(f.target, x))
        return table

    def post(self, g: Functor, b: FinCat) -> list:
        """post(g, b)[k] is the id of g o h for the k-th h in
        Hom(b, dom g), memoized per (g, b)."""
        key = (g, b)
        table = self._post.get(key)
        if table is None:
            gm = g.mor_map.__getitem__
            table = self._post[key] = self._ids_of(
                tuple(map(gm, h.key)) for h in self.morphisms_between(b, g.source))
        return table

    def lift_candidates(self, square):
        """Functors h: cod(left) -> dom(right) with h o left = top, found by
        pinning the images forced on the left leg's image.  Kept for
        `find_lifting`; the benchmark's tracer wraps it."""
        return list(functors_with(square.left.target, square.right.source,
                                  [(square.left, square.top)], []))

    # -- bounded colimits -------------------------------------------------

    def attach_cells(self, obj: FinCat, attachments):
        """Pushout of the coproduct of generating functors along their
        attaching maps, computed by saturating the colimit presentation."""
        ks = range(len(attachments))
        arrows = []
        for k in ks:
            arrows += [(f"att{k}", f"d{k}", "c"), (f"gen{k}", f"d{k}", f"e{k}")]
        shape = free_category("cells", ["c"] + [f"d{k}" for k in ks] + [f"e{k}" for k in ks],
                              arrows)
        nodes = {"c": obj}
        edges = {}
        for k, (gen, att) in enumerate(attachments):
            nodes[f"d{k}"] = gen.source
            nodes[f"e{k}"] = gen.target
            edges[f"att{k}"] = att
            edges[f"gen{k}"] = gen
        diagram = CatDiagram("cell-stage", shape, nodes, edges)
        pres, result, injections = colimit(diagram)
        if not result.total:
            raise ValueError("cell pushout did not saturate to a finite category")
        inclusion = injections["c"]
        cell_maps = [injections[f"e{k}"] for k in range(len(attachments))]
        return result.category, inclusion, cell_maps

    def attachment_squares(self, generators, f: Functor):
        """The commuting squares from the generators into f that have no
        diagonal, as (generator, top, bottom) in generator order and then
        `lifted_squares` order (the bounded index set of the small object
        argument)."""
        return [(gen, sq.top, sq.bottom)
                for gen in generators
                for sq, lifted in lifted_squares(self, gen, f) if not lifted]

    # -- derived operations, memoized per ambient ----------------------------

    def orthogonal(self, f, g):
        """f perp g, memoized per (f, g) for as long as this ambient lives;
        a checker that wants fresh answers builds a fresh ambient.  The
        result is shared between callers and must not be mutated.  A search
        that runs out of budget raises and stores nothing.  `is_orthogonal`
        is the uncached primitive."""
        key = (f, g)
        res = self._orth_memo.get(key)
        if res is None:
            res = self._orth_memo[key] = is_orthogonal(self, f, g)
        return res

    def section_pairs(self, x, x2):
        """Every (i: x -> x2, p: x2 -> x) with p o i = id_x, as index pairs
        into `morphisms_between(x, x2)` and `morphisms_between(x2, x)`,
        memoized per (x, x2) for as long as this ambient lives."""
        key = (x, x2)
        pairs = self._section_memo.get(key)
        if pairs is None:
            idx = self.id_of(identity_functor(x))
            pairs = self._section_memo[key] = [
                (k, n)
                for k, i in enumerate(self.morphisms_between(x, x2))
                for n, pi in enumerate(self.pre(i, x))
                if pi == idx
            ]
        return pairs

    def in_generators_perp(self, generators, p):
        """Is p in generators^perp?  Tests each generator in turn."""
        total = 0
        for s in generators:
            res = self.orthogonal(s, p)
            total += res.squares_checked
            if not res.orthogonal:
                return OrthogonalityResult(False, res.counterexample, total)
        return OrthogonalityResult(True, None, total)

    def induced_from_cells(self, stage, f: Functor, bottoms):
        """The unique map out of the pushout agreeing with f on the old part
        and with the chosen bottoms on the new cells; ValueError unless
        exactly one functor does."""
        legs = [(stage.inclusion, f)] + list(zip(stage.cell_maps, bottoms))
        maps = list(functors_with(stage.result, f.target, legs, []))
        if len(maps) != 1:
            raise ValueError(f"{len(maps)} maps out of the cell pushout agree with its legs")
        return maps[0]

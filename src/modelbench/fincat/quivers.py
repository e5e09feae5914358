"""Quivers, bounded path categories and the path/forgetful adjunction."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import FinCat, Functor
from .enumfun import enumerate_functors


class Quiver:
    """Directed multigraph: vertices and arrows (id, source, target)."""

    def __init__(self, name, vertices, arrows):
        self.name = name
        self.vertices = list(vertices)
        self.arrows = [(a, s, t) for (a, s, t) in arrows]
        for (a, s, t) in self.arrows:
            if s not in self.vertices or t not in self.vertices:
                raise ValueError(f"arrow {a} has endpoints outside the vertex set")

    def is_acyclic(self) -> bool:
        color = {v: 0 for v in self.vertices}
        out = {v: [] for v in self.vertices}
        for (a, s, t) in self.arrows:
            out[s].append(t)

        def dfs(v):
            color[v] = 1
            for w in out[v]:
                if color[w] == 1 or (color[w] == 0 and dfs(w)):
                    return True
            color[v] = 2
            return False

        return not any(color[v] == 0 and dfs(v) for v in self.vertices)

    def longest_path_length(self):
        """Length of the longest path; None when the quiver has a cycle."""
        if not self.is_acyclic():
            return None
        order = []
        indeg = {v: 0 for v in self.vertices}
        for (a, s, t) in self.arrows:
            indeg[t] += 1
        stack = [v for v in self.vertices if indeg[v] == 0]
        while stack:
            v = stack.pop(0)
            order.append(v)
            for (a, s, t) in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        stack.append(t)
        dist = {v: 0 for v in self.vertices}
        for v in order:
            for (a, s, t) in self.arrows:
                if s == v:
                    dist[t] = max(dist[t], dist[v] + 1)
        return max(dist.values()) if dist else 0


def path_name(src, arrows) -> str:
    return f"e_{src}" if not arrows else "*".join(arrows)


@dataclass
class PathCategory:
    """Paths of length <= max_len.  `total` means the quiver is acyclic and
    no composite overflows the cap, so `category` is the honest path
    category; otherwise `overflow` lists composable pairs beyond the cap."""

    quiver: Quiver
    max_len: int
    total: bool
    category: FinCat
    paths: dict = field(default_factory=dict)   # name -> (src, tgt, arrows)
    overflow: set = field(default_factory=set)

    @property
    def morphism_names(self):
        return [m for (m, _, _) in self.category.morphisms]


def path_category(Q: Quiver, max_len: int) -> PathCategory:
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    paths = {}       # name -> (src, tgt, arrows-in-composition-order)
    by_len = [[(path_name(v, ()), v, v, ()) for v in Q.vertices]]
    for (name, s, t, arrows) in by_len[0]:
        paths[name] = (s, t, arrows)
    for ln in range(1, max_len + 1):
        layer = []
        for (pname, ps, pt, parrows) in by_len[ln - 1]:
            for (a, s, t) in Q.arrows:
                if s == pt:   # extend on the left: a o p
                    arrows = (a,) + parrows
                    name = path_name(ps, arrows)
                    layer.append((name, ps, t, arrows))
                    paths[name] = (ps, t, arrows)
        by_len.append(layer)

    mors = [(name, s, t) for name, (s, t, _) in paths.items()]
    ident = {v: path_name(v, ()) for v in Q.vertices}
    comp = {}
    overflow = set()
    for gname, (gs, gt, ga) in paths.items():
        for fname, (fs, ft, fa) in paths.items():
            if ft != gs:
                continue
            arrows = ga + fa
            if len(arrows) <= max_len:
                comp[(gname, fname)] = path_name(fs, arrows)
            else:
                overflow.add((gname, fname))
    longest = Q.longest_path_length()
    total = longest is not None and longest <= max_len and not overflow
    cat = FinCat(f"P({Q.name})<= {max_len}", list(Q.vertices), mors, ident, comp)
    return PathCategory(quiver=Q, max_len=max_len, total=total,
                        category=cat, paths=paths, overflow=overflow)


def quiver_morphisms(Q: Quiver, C: FinCat):
    """All quiver maps Q -> U(C): a vertex map plus a compatible arrow map."""
    results = []

    def assign_vertices(k, vmap):
        if k == len(Q.vertices):
            assign_arrows(0, dict(vmap), {})
            return
        for y in C.objects:
            vmap[Q.vertices[k]] = y
            assign_vertices(k + 1, vmap)
            del vmap[Q.vertices[k]]

    def assign_arrows(k, vmap, amap):
        if k == len(Q.arrows):
            results.append((dict(vmap), dict(amap)))
            return
        (a, s, t) = Q.arrows[k]
        for m in C.hom(vmap[s], vmap[t]):
            amap[a] = m
            assign_arrows(k + 1, vmap, amap)
            del amap[a]

    if not Q.vertices:
        return [({}, {})]
    assign_vertices(0, {})
    return results


@dataclass
class AdjunctionWitness:
    functor_count: int
    quiver_map_count: int
    bijection_ok: bool
    pairs: list


def adjunction_check(Q: Quiver, C: FinCat) -> AdjunctionWitness:
    """Explicit bijection Cat(P(Q), C) ~= Quiv(Q, U(C)), both sides fully
    enumerated.  Requires an acyclic quiver (finite path category)."""
    longest = Q.longest_path_length()
    if longest is None:
        raise ValueError("cyclic quiver: the path category is infinite")
    pq = path_category(Q, longest)
    assert pq.total
    functors = enumerate_functors(pq.category, C)
    qmaps = quiver_morphisms(Q, C)

    def to_quiver_map(F: Functor):
        vmap = {v: F.obj_map[v] for v in Q.vertices}
        amap = {a: F.mor_map[path_name(s, (a,))] for (a, s, t) in Q.arrows}
        return (vmap, amap)

    images = [to_quiver_map(F) for F in functors]
    seen = []
    injective = True
    for im in images:
        if im in seen:
            injective = False
        seen.append(im)
    surjective = all(qm in images for qm in qmaps)
    ok = injective and surjective and len(functors) == len(qmaps)
    return AdjunctionWitness(len(functors), len(qmaps), ok,
                             list(zip(functors, images)))

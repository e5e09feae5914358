"""Quivers and their path categories truncated at a path length."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import FinCat


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

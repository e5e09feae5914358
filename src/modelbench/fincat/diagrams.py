"""Diagrams of finite categories: colimit presentations and their
saturation to honest finite categories.

The colimit of a diagram in Cat can be infinite (freely generated loops), so
colimits are returned as quiver presentations; `saturate` runs a bounded
congruence closure on paths and certifies the result exactly when the
closure provably stabilizes (every path reduces to a strictly shorter
representative and representative composites stay inside the horizon).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import FinCat, Functor, ValidationReport, identity_functor
from .quivers import Quiver, path_name

# Paths of length <= L that one congruence closure may hold before
# `saturate` stops growing the horizon.
PATH_BUDGET = 200_000
# Morphism classes past which `saturate` reports "possibly_infinite".
CLASS_BUDGET = 10_000


class CatDiagram:
    """A shape-indexed diagram: nodes are finite categories, edges functors."""

    def __init__(self, name, shape: FinCat, nodes, edges):
        self.name = name
        self.shape = shape
        self.nodes = dict(nodes)    # shape object -> FinCat
        self.edges = dict(edges)    # shape morphism -> Functor
        for x in shape.objects:     # identity edges may be left implicit
            i = shape.identity[x]
            if i not in self.edges and x in self.nodes:
                self.edges[i] = identity_functor(self.nodes[x])

    def validate(self) -> ValidationReport:
        failures = []
        for x in self.shape.objects:
            if x not in self.nodes:
                failures.append(f"missing node {x}")
        for (m, d, c) in self.shape.morphisms:
            F = self.edges.get(m)
            if F is None:
                failures.append(f"missing edge {m}")
                continue
            if F.source != self.nodes.get(d) or F.target != self.nodes.get(c):
                failures.append(f"edge {m} has wrong endpoints")
        if failures:
            return ValidationReport(False, failures)
        for x in self.shape.objects:
            if self.edges[self.shape.identity[x]] != identity_functor(self.nodes[x]):
                failures.append(f"identity edge at {x} is not the identity functor")
        for (f, fd, fc) in self.shape.morphisms:
            for (g, gd, gc) in self.shape.morphisms:
                if gd != fc:
                    continue
                gf = self.shape.compose(g, f)
                if self.edges[f].then(self.edges[g]) != self.edges[gf]:
                    failures.append(f"functoriality fails at ({g}, {f})")
                    return ValidationReport(False, failures)
        return ValidationReport(not failures, failures)


@dataclass
class CatPresentation:
    """Category presented by a quiver with path relations; class quotients of
    colimits land here before saturation."""

    quiver: Quiver
    relations: list            # pairs of (src_vertex, arrows tuple)
    object_class: dict = field(default_factory=dict)   # tagged object -> vertex
    arrow_tag: dict = field(default_factory=dict)       # tagged morphism -> arrow


def colimit_presentation(D: CatDiagram) -> CatPresentation:
    """Quiver-with-relations presentation of the colimit: arrows are all
    node morphisms over object classes; relations collapse node composition,
    node identities and edge transport."""
    shape = D.shape
    # object classes: union-find over tagged objects
    tags = [(i, x) for i in shape.objects for x in D.nodes[i].objects]
    parent = {t: t for t in tags}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            # deterministic: keep the earlier tag
            if tags.index(rb) < tags.index(ra):
                ra, rb = rb, ra
            parent[rb] = ra

    for (m, d, c) in shape.morphisms:
        F = D.edges[m]
        for x in D.nodes[d].objects:
            union((d, x), (c, F.obj_map[x]))

    def cls(i, x):
        r = find((i, x))
        return f"[{r[0]}/{r[1]}]"

    vertices = []
    for t in tags:
        v = cls(*t)
        if v not in vertices:
            vertices.append(v)

    arrows = []
    arrow_tag = {}
    for i in shape.objects:
        for (m, d, c) in D.nodes[i].morphisms:
            a = f"{i}/{m}"
            arrows.append((a, cls(i, d), cls(i, c)))
            arrow_tag[(i, m)] = a
    Q = Quiver(f"Q({D.name})", vertices, arrows)

    relations = []
    for i in shape.objects:
        C = D.nodes[i]
        for (gf_pair, h) in C.compose_table.items():
            g, f = gf_pair
            src = cls(i, C.dom[f])
            relations.append(((src, (arrow_tag[(i, h)],)),
                              (src, (arrow_tag[(i, g)], arrow_tag[(i, f)]))))
        for x in C.objects:
            v = cls(i, x)
            relations.append(((v, (arrow_tag[(i, C.identity[x])],)), (v, ())))
    for (m, d, c) in shape.morphisms:
        F = D.edges[m]
        for h in D.nodes[d].morphism_ids:
            src = cls(d, D.nodes[d].dom[h])
            relations.append(((src, (arrow_tag[(d, h)],)),
                              (src, (arrow_tag[(c, F.mor_map[h])],))))
    return CatPresentation(
        quiver=Q, relations=relations,
        object_class={t: cls(*t) for t in tags}, arrow_tag=arrow_tag)


@dataclass
class SaturationResult:
    status: str                      # "total", "possibly_infinite" or "census"
    category: FinCat | None
    class_count: int
    explored_len: int                # the last horizon whose closure completed
    class_reps: list = field(default_factory=list)
    path_class: dict = field(default_factory=dict)   # path key -> class rep key

    @property
    def total(self):
        return self.status == "total"


def _path_key(src, arrows):
    return (src, tuple(arrows))


def _closure_at(pres: CatPresentation, L: int):
    """Congruence closure of the relation on all paths of length <= L.
    Returns (endpoints, find, rank), or None at the first path past
    PATH_BUDGET."""
    Q = pres.quiver
    out_arrows = {}
    in_arrows = {}
    for (a, s, t) in Q.arrows:
        out_arrows.setdefault(s, []).append((a, t))
        in_arrows.setdefault(t, []).append((a, s))
    frontier = [_path_key(v, ()) for v in Q.vertices]
    endpoints = {k: (k[0], k[0]) for k in frontier}
    for _ in range(L):
        nxt = []
        for k in frontier:
            src, arrows = k
            tgt = endpoints[k][1]
            for (a, t2) in out_arrows.get(tgt, ()):   # extend: a o path
                nk = _path_key(src, (a,) + arrows)
                if nk not in endpoints:
                    endpoints[nk] = (src, t2)
                    if len(endpoints) > PATH_BUDGET:
                        return None
                    nxt.append(nk)
        frontier = nxt
    parent = {k: k for k in endpoints}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def rank(k):
        return (len(k[1]), k[1], k[0])

    queue = []
    for (pa, pb) in pres.relations:
        ka, kb = _path_key(*pa), _path_key(*pb)
        if ka in endpoints and kb in endpoints:
            queue.append((ka, kb))
    while queue:
        ka, kb = queue.pop()
        ra, rb = find(ka), find(kb)
        if ra == rb:
            continue
        if rank(rb) < rank(ra):
            ra, rb = rb, ra
        parent[rb] = ra
        # propagate: extend both sides by one arrow on either end
        src, tgt = endpoints[ra][0], endpoints[ra][1]
        for (a, _) in out_arrows.get(tgt, ()):
            na = _path_key(ra[0], (a,) + ra[1])
            nb = _path_key(rb[0], (a,) + rb[1])
            if na in endpoints and nb in endpoints:
                queue.append((na, nb))
        for (a, s2) in in_arrows.get(src, ()):
            na = _path_key(s2, ra[1] + (a,))
            nb = _path_key(s2, rb[1] + (a,))
            if na in endpoints and nb in endpoints:
                queue.append((na, nb))
    return endpoints, find, rank


def saturate(pres: CatPresentation, max_len=10, fixed_len=None) -> SaturationResult:
    """Try to realize a CatPresentation as a finite category.

    With `fixed_len` the closure is run once at that path length and the
    class census is reported without attempting a categorical structure.
    Otherwise the horizon grows until the closure stabilizes (then the
    result is exact) or a budget trips (then "possibly_infinite"): more
    than PATH_BUDGET paths, more than CLASS_BUDGET classes, or `max_len`.
    """
    min_len = max([2] + [len(p[1]) for rel in pres.relations for p in rel])
    lengths = [fixed_len] if fixed_len is not None else list(range(min_len, max_len + 1))
    last_count = None
    last_len = 0            # the last horizon whose closure completed
    for L in lengths:
        closed = _closure_at(pres, L)
        if closed is None:
            break
        last_len = L
        endpoints, find, rank = closed
        classes: dict = {}
        for k in endpoints:
            classes.setdefault(find(k), []).append(k)
        reps = {r: min(members, key=rank) for r, members in classes.items()}
        count = len(reps)
        path_class = {k: reps[find(k)] for k in endpoints}
        if count > CLASS_BUDGET:
            return SaturationResult("possibly_infinite", None, count, L)
        if fixed_len is not None:
            return SaturationResult("census", None, count, L,
                                    class_reps=sorted(reps.values(), key=rank),
                                    path_class=path_class)
        M = max((len(r[1]) for r in reps.values()), default=0)
        if M <= L - 1 and 2 * M <= L:
            cat = _category_from_closure(pres, endpoints, find, rank, reps)
            if cat is not None and cat.validate().ok:
                return SaturationResult("total", cat, count, L,
                                        class_reps=sorted(reps.values(), key=rank),
                                        path_class=path_class)
        last_count = count
    return SaturationResult("possibly_infinite", None, last_count or 0, last_len)


def _mor_name(rep_key):
    return f"[{path_name(rep_key[0], rep_key[1])}]"


def _category_from_closure(pres, endpoints, find, rank, reps):
    Q = pres.quiver
    classes = sorted(reps.values(), key=rank)
    name_of = {r: _mor_name(r) for r in classes}
    rep_of_key = {k: reps[find(k)] for k in endpoints}
    mors = [(name_of[r], endpoints[r][0], endpoints[r][1]) for r in classes]
    ident = {v: name_of[rep_of_key[_path_key(v, ())]] for v in Q.vertices}
    comp = {}
    for r1 in classes:          # r1 = g: v -> w
        for r2 in classes:      # r2 = f: u -> v
            if endpoints[r2][1] != endpoints[r1][0]:
                continue
            k = _path_key(endpoints[r2][0], r1[1] + r2[1])
            if k not in rep_of_key:
                return None
            comp[(name_of[r1], name_of[r2])] = name_of[rep_of_key[k]]
    return FinCat("colim", Q.vertices, mors, ident, comp)


def discrete_shape(labels):
    from .build import discrete_category
    return discrete_category(list(labels), name="shape")


def span_shape() -> FinCat:
    objs = ["s", "l", "r"]
    mors = [("id_s", "s", "s"), ("id_l", "l", "l"), ("id_r", "r", "r"),
            ("f", "s", "l"), ("g", "s", "r")]
    comp = {}
    for (m, d, c) in mors:
        comp[(m, f"id_{d}")] = m
        comp[(f"id_{c}", m)] = m
    return FinCat("span", objs, mors, {o: f"id_{o}" for o in objs}, comp)


def parallel_pair_shape() -> FinCat:
    objs = ["a", "b"]
    mors = [("id_a", "a", "a"), ("id_b", "b", "b"), ("u", "a", "b"), ("v", "a", "b")]
    comp = {}
    for (m, d, c) in mors:
        comp[(m, f"id_{d}")] = m
        comp[(f"id_{c}", m)] = m
    return FinCat("pair", objs, mors, {"a": "id_a", "b": "id_b"}, comp)


def pushout_diagram(F: Functor, G: Functor, name="pushout") -> CatDiagram:
    """Diagram for the pushout of B <-F- A -G-> C."""
    if F.source != G.source:
        raise ValueError("pushout legs must share their source")
    return CatDiagram(name, span_shape(),
                      {"s": F.source, "l": F.target, "r": G.target},
                      {"f": F, "g": G})


def coequalizer_diagram(F: Functor, G: Functor, name="coeq") -> CatDiagram:
    if F.source != G.source or F.target != G.target:
        raise ValueError("parallel functors required")
    return CatDiagram(name, parallel_pair_shape(),
                      {"a": F.source, "b": F.target}, {"u": F, "v": G})


def colimit(D: CatDiagram, max_len=10):
    """Convenience: presentation plus saturation attempt, and (when total)
    the cocone functors from each node."""
    pres = colimit_presentation(D)
    result = saturate(pres, max_len=max_len)
    injections = {}
    if result.total:
        cat = result.category
        for i in D.shape.objects:
            C = D.nodes[i]
            omap = {x: pres.object_class[(i, x)] for x in C.objects}
            mmap = {}
            for m in C.morphism_ids:
                a = pres.arrow_tag[(i, m)]
                src = pres.object_class[(i, C.dom[m])]
                key = result.path_class[_path_key(src, (a,))]
                mmap[m] = _mor_name(key)
            injections[i] = Functor(f"in_{i}", C, cat, omap, mmap)
    return pres, result, injections

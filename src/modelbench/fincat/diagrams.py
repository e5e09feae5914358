"""Diagrams of finite categories: colimit presentations and their
saturation to honest finite categories.

The colimit of a diagram in Cat can be infinite (freely generated loops), so
colimits are returned as quiver presentations; `saturate` runs a bounded
congruence closure on paths and certifies the result exactly when the
closure provably stabilizes (every path reduces to a strictly shorter
representative and representative composites stay inside the horizon).
The closure first merges the arrows that a relation between two one-arrow
paths makes equal, then numbers the paths of this arrow quotient with
integer ids and runs its union-find on them.  The paths of a horizon of
the presentation's own quiver are counted against PATH_BUDGET before any
is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .build import free_category
from .core import FinCat, Functor, ValidationReport, identity_functor
from .quivers import Quiver, path_name

# Paths of length <= L of the presentation's quiver (not of its arrow
# quotient) that one congruence closure may cover before `saturate` stops
# growing the horizon.
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
    # object classes: union-find over the indices of the tagged objects,
    # each class rooted at its earliest tag
    tags = [(i, x) for i in shape.objects for x in D.nodes[i].objects]
    tix = {t: k for k, t in enumerate(tags)}
    parent = list(range(len(tags)))
    for (m, d, c) in shape.morphisms:
        F = D.edges[m]
        for x in D.nodes[d].objects:
            ra, rb = _find(parent, tix[(d, x)]), _find(parent, tix[(c, F.obj_map[x])])
            parent[max(ra, rb)] = min(ra, rb)

    def cls(i, x):
        r = tags[_find(parent, tix[(i, x)])]
        return f"[{r[0]}/{r[1]}]"

    vertices = list(dict.fromkeys(cls(*t) for t in tags))

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
    # path key -> class rep key, for every path of the quiver; only a
    # "total" result builds it, a census reports the class reps alone
    path_class: dict = field(default_factory=dict)

    @property
    def total(self):
        return self.status == "total"


def _rank(key):
    """Order of path keys: shorter first, then arrows, then source."""
    return (len(key[1]), key[1], key[0])


def _count_paths(Q: Quiver, L: int) -> int:
    """Number of paths of length <= L, from the number of paths of each
    length that end at each vertex."""
    ending = dict.fromkeys(Q.vertices, 1)
    total = len(ending)
    for _ in range(L):
        longer = dict.fromkeys(ending, 0)
        for (_, s, t) in Q.arrows:
            longer[t] += ending[s]
        ending = longer
        total += sum(ending.values())
    return total


def _find(parent, p):
    while parent[p] != p:
        parent[p] = parent[parent[p]]
        p = parent[p]
    return p


class _Closure:
    """A congruence closure on integer path ids of the arrow quotient.

    Path p runs from vertex src[p] to vertex tgt[p] (indices into
    `vertices`) and has arrows (first[p],) + the arrows of tail[p]: first[p]
    (an index into `names`, the quotient arrows) is the arrow applied last.
    Ids below len(vertices) are the identity paths, whose first and tail are
    -1.  The root of each class in `parent` is its least member by `_rank`.
    `leaving[v]` lists the arrows of the quiver out of vertex v, in quiver
    order, as (name, quotient arrow)."""

    def __init__(self, L, vertices, names, src, tgt, length, first, tail, parent,
                 child, place, leaving):
        self.L, self.vertices, self.names, self.src, self.tgt = L, vertices, names, src, tgt
        self.length, self.first, self.tail, self.parent = length, first, tail, parent
        self.child, self.place, self.leaving = child, place, leaving

    def roots(self):
        return [p for p, q in enumerate(self.parent) if p == q]

    def key(self, p):
        """The (src, arrows) key of path p: the least path of the quiver
        that maps to p."""
        v, arrows = self.vertices[self.src[p]], []
        while p >= len(self.vertices):
            arrows.append(self.names[self.first[p]])
            p = self.tail[p]
        return (v, tuple(arrows))

    def lifts(self):
        """(key, id of its image) for every path of the quiver of length
        <= L, in breadth-first order."""
        layer = [((v, ()), p) for p, v in enumerate(self.vertices)]
        out = list(layer)
        for _ in range(self.L):
            layer = [((v, (name,) + arrows), self.child[p] + self.place[a])
                     for ((v, arrows), p) in layer for (name, a) in self.leaving[self.tgt[p]]]
            out += layer
        return out


def _arrow_quotient(names, ends, vix, relations):
    """The class of each arrow, as the index of its least-named member,
    under the relations between two one-arrow paths of the quiver from the
    stated vertex whose sides are parallel: the relations that the closure
    queues at every horizon L >= 1.  (At L = 0 no path holds an arrow.)"""
    aix = {a: i for i, a in enumerate(names)}
    parent = list(range(len(names)))
    for (pa, pb) in relations:
        if len(pa[1]) != 1 or len(pb[1]) != 1 or pa[0] != pb[0]:
            continue
        a, b = aix.get(pa[1][0]), aix.get(pb[1][0])
        if a is None or b is None or ends[a] != ends[b] or ends[a][0] != vix.get(pa[0]):
            continue
        ra, rb = _find(parent, a), _find(parent, b)
        if names[rb] < names[ra]:
            ra, rb = rb, ra
        parent[rb] = ra
    return [_find(parent, a) for a in range(len(names))]


def _closure_at(pres: CatPresentation, L: int):
    """Congruence closure of the relations on all paths of length <= L.

    The closure runs on the paths of the arrow quotient (`_arrow_quotient`),
    which has one arrow per class, named by its least arrow name.  A
    one-arrow relation whiskered step by step has sides of equal length, so
    it never leaves the horizon: the closure on the quiver's paths is the
    preimage of the closure on the quotient's, with the same class count,
    and the least member of a class lifts to the least path of the quiver.
    Merging an identity arrow into the empty path (a ~ ()) would change
    path lengths, so that is left to the closure.

    Paths are integer ids in breadth-first order: the identities in vertex
    order, then each layer of the extensions a o p of the layer before, by
    p and then by the quiver order of the quotient arrow a.  So the
    extensions of a path p shorter than L are the ids child[p] + place[a].
    Returns a `_Closure`, or None when more than PATH_BUDGET paths of the
    quiver, not of the quotient, have length <= L; they are counted before
    any is built.

    Arrow names must be distinct and relation pairs parallel.  The pairs
    are queued in order and popped last in, first out.  A merge makes the
    root of lesser `_rank` the root of both, then queues both sides
    whiskered by each arrow on either end when both whiskered paths are
    within the horizon."""
    Q = pres.quiver
    names = [a for (a, _, _) in Q.arrows]
    if len(set(names)) != len(names):      # path keys name their arrows
        raise ValueError("arrow names must be distinct")
    vertices = list(dict.fromkeys(Q.vertices))
    n_paths = _count_paths(Q, L)
    # counted as each path is added, so the identity paths alone never trip it
    if n_paths > PATH_BUDGET and n_paths > len(vertices):
        return None
    V = len(vertices)
    vix = {v: i for i, v in enumerate(vertices)}
    ends = [(vix[s], vix[t]) for (_, s, t) in Q.arrows]
    cls = _arrow_quotient(names, ends, vix, pres.relations)
    kept = [a for a in range(len(names)) if cls[a] == a]    # in quiver order
    qix = {a: k for k, a in enumerate(kept)}
    pi = {names[a]: qix[cls[a]] for a in range(len(names))}     # name -> quotient arrow
    a_src, a_tgt, place = [], [], []
    out = [[] for _ in vertices]     # quotient arrows leaving each vertex, in order
    into = [[] for _ in vertices]    # quotient arrows entering each vertex, in order
    for i, a in enumerate(kept):
        s, t = ends[a]
        a_src.append(s)
        a_tgt.append(t)
        place.append(len(out[s]))
        out[s].append(i)
        into[t].append(i)
    q_names = [names[a] for a in kept]
    name_rank = [0] * len(q_names)
    for r, i in enumerate(sorted(range(len(q_names)), key=q_names.__getitem__)):
        name_rank[i] = r
    out_tgt = [[a_tgt[a] for a in arrows] for arrows in out]

    src, tgt = list(range(V)), list(range(V))
    length, first, tail = [0] * V, [-1] * V, [-1] * V
    child = []          # id of the first extension of each path shorter than L
    full = 0            # paths with smaller ids are shorter than L
    for n in range(1, L + 1):
        layer_end = len(src)
        for p in range(full, layer_end):
            child.append(len(src))
            v = tgt[p]
            d = len(out[v])
            src.extend([src[p]] * d)
            tgt.extend(out_tgt[v])
            length.extend([n] * d)
            first.extend(out[v])
            tail.extend([p] * d)
        full = layer_end

    def path_id(v, arrows):
        """The id of the image of the path (v, arrows), or None when it is
        not a path of the quiver within the horizon."""
        p = vix.get(v)
        for name in reversed(arrows):
            a = pi.get(name)
            if p is None or p >= full or a is None or a_src[a] != tgt[p]:
                return None
            p = child[p] + place[a]
        return p

    def lower(p, q):
        """_rank(p) < _rank(q) for distinct parallel paths p and q."""
        if length[p] != length[q]:
            return length[p] < length[q]
        while first[p] == first[q]:
            p, q = tail[p], tail[q]
        return name_rank[first[p]] < name_rank[first[q]]

    def places(p):
        """The places of the arrows of p, innermost first."""
        ks = []
        while p >= V:
            ks.append(place[first[p]])
            p = tail[p]
        ks.reverse()
        return ks

    queue = []
    for (pa, pb) in pres.relations:
        ia, ib = path_id(*pa), path_id(*pb)
        if ia is not None and ib is not None:
            if (src[ia], tgt[ia]) != (src[ib], tgt[ib]):
                raise ValueError(f"relation between non-parallel paths {pa} and {pb}")
            queue.append((ia, ib))
    parent = list(range(len(src)))
    while queue:
        ia, ib = queue.pop()
        ra, rb = _find(parent, ia), _find(parent, ib)
        if ra == rb:
            continue
        if lower(rb, ra):
            ra, rb = rb, ra
        parent[rb] = ra
        if ra < full and rb < full:     # both have every one-arrow extension
            ca, cb = child[ra], child[rb]
            for k in range(len(out[tgt[ra]])):
                queue.append((ca + k, cb + k))
            ka, kb = places(ra), places(rb)
            for a in into[src[ra]]:    # ra o a and rb o a
                qa = qb = child[a_src[a]] + place[a]
                for k in ka:
                    qa = child[qa] + k
                for k in kb:
                    qb = child[qb] + k
                queue.append((qa, qb))
    leaving = [[] for _ in vertices]
    for (a, s, _) in Q.arrows:
        leaving[vix[s]].append((a, pi[a]))
    return _Closure(L, vertices, q_names, src, tgt, length, first, tail, parent,
                    child, place, leaving)


def saturate(pres: CatPresentation, max_len=10, fixed_len=None) -> SaturationResult:
    """Try to realize a CatPresentation as a finite category.

    With `fixed_len` the closure is run once at that path length and the
    class census is reported without attempting a categorical structure.
    Otherwise the horizon grows until the closure stabilizes (then the
    result is exact) or a budget trips (then "possibly_infinite"): more
    than PATH_BUDGET paths, more than CLASS_BUDGET classes, or `max_len`.

    The closure runs on integer path ids of the arrow quotient, and the
    paths of the quiver within a horizon are counted against PATH_BUDGET
    before any is built.  Class roots become (src, arrows) keys only for a
    census or a category attempt, and only a category attempt maps every
    path of the quiver through the quotient into `path_class`; a census
    reports the class reps alone, and a horizon that does not stabilize
    needs only the roots of its classes.
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
        roots = closed.roots()      # one per class, its least member by _rank
        count = len(roots)
        if count > CLASS_BUDGET:
            return SaturationResult("possibly_infinite", None, count, L)
        M = max((closed.length[r] for r in roots), default=0)
        # 2M <= L: every composite of two reps is a path within the horizon
        if fixed_len is not None or 2 * M <= L:
            rep_key = {r: closed.key(r) for r in roots}
            reps = sorted(rep_key.values(), key=_rank)
            if fixed_len is not None:
                return SaturationResult("census", None, count, L, class_reps=reps)
            path_class = {k: rep_key[_find(closed.parent, p)] for k, p in closed.lifts()}
            ends = {rep_key[r]: (closed.vertices[closed.src[r]], closed.vertices[closed.tgt[r]])
                    for r in roots}
            cat = _category_from_closure(pres.quiver, reps, ends, path_class)
            if cat.validate().ok:
                return SaturationResult("total", cat, count, L,
                                        class_reps=reps, path_class=path_class)
        last_count = count
    return SaturationResult("possibly_infinite", None, last_count or 0, last_len)


def _mor_name(rep_key):
    return f"[{path_name(rep_key[0], rep_key[1])}]"


def _category_from_closure(Q, reps, ends, path_class):
    """The category, named after the quiver Q, on the class representatives
    `reps` (in `_rank` order); every composite of two of them is a path in
    `path_class`."""
    name_of = {r: _mor_name(r) for r in reps}
    mors = [(name_of[r], *ends[r]) for r in reps]
    ident = {v: name_of[path_class[(v, ())]] for v in Q.vertices}
    comp = {}
    for r1 in reps:             # r1 = g: v -> w
        for r2 in reps:         # r2 = f: u -> v
            if ends[r2][1] != ends[r1][0]:
                continue
            comp[(name_of[r1], name_of[r2])] = name_of[path_class[(r2[0], r1[1] + r2[1])]]
    return FinCat(Q.name, Q.vertices, mors, ident, comp)


def parallel_pair_shape() -> FinCat:
    return free_category("pair", ["a", "b"], [("u", "a", "b"), ("v", "a", "b")])


def coequalizer_diagram(F: Functor, G: Functor) -> CatDiagram:
    if F.source != G.source or F.target != G.target:
        raise ValueError("parallel functors required")
    return CatDiagram("coeq", parallel_pair_shape(),
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
                key = result.path_class[(src, (a,))]
                mmap[m] = _mor_name(key)
            injections[i] = Functor(f"in_{i}", C, cat, omap, mmap)
    return pres, result, injections

"""Brute-force enumeration of functors and natural transformations.

These enumerators are the oracle layer for everything else: lifting search,
equivalence checks and homotopy decisions all reduce to them.  Results come
back in a deterministic order (source order x target hom-list order).
`functors_with` is the one search for functors with prescribed composites
(w o a = b, p o w = u): mediating maps of pushouts and pullbacks, homotopies
with given ends, and maps out of a cell stage.

`enumerate_functors` counts one search node per object image tried at each
object level, over every object map (Σₖ Πᵢ≤ₖ |candidatesᵢ|, counted before
the search), and at each morphism level entered, its number of candidates,
every one of which is tried.  GuardExceeded is raised as soon as the count
passes NODE_BUDGET, so exactly when the whole search would visit more.
"""

from __future__ import annotations

from itertools import product

from .core import FinCat, Functor, NatTransf, identity_functor


# Search nodes one enumeration may visit (an object or morphism image tried,
# or a component tried for a natural isomorphism) before it gives up with
# GuardExceeded.  Read at call time, so a test can lower it.
NODE_BUDGET = 2_000_000


class GuardExceeded(Exception):
    """Raised when an enumeration would visit more than NODE_BUDGET nodes."""


def _search_plan(C: FinCat):
    """What the functor search needs of C, kept on C (immutable) after the
    first call.  Images are held in one value list in the order of `names`:
    the n non-identity morphisms in order, then each object's identity.
    `ends[p]` gives the positions in C.objects of morphism p's ends, and
    `checks[p]` the composable (g, f, g∘f) over non-identity g, f that become
    checkable once p is assigned, as value positions."""
    kept = getattr(C, "_search_plan", None)
    if kept is None:
        at = {x: k for k, x in enumerate(C.objects)}
        free = [(m, d, c) for (m, d, c) in C.morphisms if m != C.identity[d]]
        names = [m for m, _, _ in free] + [C.identity[x] for x in C.objects]
        n = len(free)
        pos = {m: p for p, m in enumerate(names)}
        checks = [[] for _ in free]
        for (g, f), h in C.compose_table.items():
            pg, pf, ph = pos[g], pos[f], pos[h]
            if pg < n and pf < n:
                checks[max(pg, pf, ph if ph < n else -1)].append((pg, pf, ph))
        kept = C._search_plan = (names, [(at[d], at[c]) for _, d, c in free], checks)
    return kept


def forced_images(legs):
    """The images that w o a = b forces on a functor w, for each (a, b) in
    `legs`, as (fixed_obj, fixed_mor) for `enumerate_functors`; None when two
    legs force different images of one object or morphism, so no w exists."""
    fixed_obj, fixed_mor = {}, {}
    for a, b in legs:
        for fixed, amap, bmap in ((fixed_obj, a.obj_map, b.obj_map),
                                  (fixed_mor, a.mor_map, b.mor_map)):
            for x, y in amap.items():
                if fixed.setdefault(y, bmap[x]) != bmap[x]:
                    return None
    return fixed_obj, fixed_mor


def enumerate_functors(C: FinCat, D: FinCat, fixed_obj=None, fixed_mor=None):
    """All functors C -> D: each object map in `product` order over D's
    objects, then backtracking over the morphism images in C's order, each
    tried in D's hom-list order.

    fixed_obj / fixed_mor pre-pin images (used to enumerate under
    constraints, e.g. liftings).  Raises GuardExceeded past NODE_BUDGET
    search nodes, counted as the module docstring says."""
    names, ends, checks = _search_plan(C)
    n = len(ends)
    fixed_obj = fixed_obj or {}
    budget = NODE_BUDGET
    columns = [[fixed_obj[x]] if x in fixed_obj else D.objects for x in C.objects]
    nodes, width = 0, 1
    for column in columns:
        width *= len(column)
        nodes += width
    if nodes > budget:
        raise GuardExceeded(f"functor enumeration exceeded {budget} nodes")
    # a pinned level has its one candidate from the start; pinned images
    # must sit in the right hom sets and pinned identities be identities
    pins, pinned = [None] * n, []
    if fixed_mor:
        pins = [(fixed_mor[m],) if m in fixed_mor else None for m in names[:n]]
        pinned = [(p, fixed_mor[m]) for p, m in enumerate(names) if m in fixed_mor]
    homs, unit = D._hom, D.identity
    walk = (n, ends, checks, D.compose_table, homs, budget)
    count = [nodes]
    results = []
    for ys in product(*columns):
        vals = [None] * n + [unit[y] for y in ys]
        if pinned and not all(v == vals[p] if p >= n else v in homs.get(
                (ys[ends[p][0]], ys[ends[p][1]]), ()) for p, v in pinned):
            continue
        for images in _morphism_images(0, ys, vals, pins.copy(), walk, count) if n else (vals,):
            results.append(Functor(f"F{len(results)}", C, D, zip(C.objects, ys),
                                   zip(names, images)))
    return results


def _morphism_images(p, ys, vals, level, walk, count):
    """Yield `vals` each time positions p.. hold a functor's images under the
    object map ys.  level[p] keeps the candidates of p once it is entered,
    count[0] the node count; a level with one candidate stays in this frame."""
    n, ends, checks, comp, homs, budget = walk
    while p < n:
        cands = level[p]
        if cands is None:
            d, c = ends[p]
            cands = level[p] = homs.get((ys[d], ys[c]), ())
        count[0] += len(cands)
        if count[0] > budget:
            raise GuardExceeded(f"functor enumeration exceeded {budget} nodes")
        if len(cands) != 1:
            for v in cands:
                vals[p] = v
                for g, f, h in checks[p]:
                    if comp[vals[g], vals[f]] != vals[h]:
                        break
                else:
                    yield from _morphism_images(p + 1, ys, vals, level, walk, count)
            return
        vals[p] = cands[0]
        for g, f, h in checks[p]:
            if comp[vals[g], vals[f]] != vals[h]:
                return
        p += 1
    yield vals


def functors_with(C: FinCat, D: FinCat, before, after):
    """Every functor w: C -> D with w o a = b for each (a, b) in `before` and
    p o w = u for each (p, u) in `after`, in `enumerate_functors` order.

    `before` pins the images it forces (`forced_images`); legs that force
    two images of one object or morphism leave no w.  The search honours
    pins exactly, so every candidate has w o a = b.  `after` pins each
    object x to the y with p(y) = u(x) for every leg, tried in `product`
    order over D's object order, which is the order the unpinned search
    assigns objects in; with no `after` leg an object that `before` does
    not reach is left to the search.  Those pins give p(w(x)) = u(x) on
    objects, so each candidate is checked against every `after` leg on
    morphisms only."""
    pins = forced_images(before)
    if pins is None:
        return
    fixed_obj, fixed_mor = pins
    if after:
        fibres = [[y for y in ([fixed_obj[x]] if x in fixed_obj else D.objects)
                   if all(p.obj_map[y] == u.obj_map[x] for p, u in after)]
                  for x in C.objects]
        object_pins = (dict(zip(C.objects, ys)) for ys in product(*fibres))
    else:
        object_pins = [fixed_obj]
    legs = [(p.mor_map, u.mor_map) for p, u in after]
    for objs in object_pins:
        for w in enumerate_functors(C, D, objs, fixed_mor):
            if all(pm[v] == um[m] for pm, um in legs for m, v in w.mor_map.items()):
                yield w


def natural_isos(F: Functor, G: Functor) -> NatTransf | None:
    """The first natural isomorphism F => G found by backtracking over
    iso components, or None when there is none."""
    C, D = F.source, F.target
    objs = list(C.objects)
    nodes = 0
    budget = NODE_BUDGET

    # each morphism under the position of its later endpoint, where its
    # naturality square becomes checkable
    mors_between: dict[int, list] = {}
    pos = {x: i for i, x in enumerate(objs)}
    for (f, x, y) in C.morphisms:
        mors_between.setdefault(max(pos[x], pos[y]), []).append((f, x, y))

    def naturality_ok(k, comp):
        for (f, x, y) in mors_between.get(k, ()):
            lhs = D.compose(comp[y], F.mor_map[f])
            rhs = D.compose(G.mor_map[f], comp[x])
            if lhs != rhs:
                return False
        return True

    def assign(k, comp):
        nonlocal nodes
        if k == len(objs):
            return NatTransf(F, G, dict(comp))
        x = objs[k]
        for c in D.hom(F.obj_map[x], G.obj_map[x]):
            if not D.is_iso(c):
                continue
            nodes += 1
            if nodes > budget:
                raise GuardExceeded(f"natural iso search exceeded {budget} nodes")
            comp[x] = c
            if naturality_ok(k, comp):
                found = assign(k + 1, comp)
                if found is not None:
                    return found
            del comp[x]
        return None

    return assign(0, {})


def find_category_isomorphism(C: FinCat, D: FinCat):
    """An isomorphism of categories C ~= D (bijective on objects and
    morphisms), or None: the first such functor of `enumerate_functors`.
    Categories with different object or morphism counts, or different hom
    profiles, are told apart before any enumeration."""
    if len(C.objects) != len(D.objects) or len(C.morphisms) != len(D.morphisms):
        return None
    homprofile = lambda E: sorted(
        len(E.hom(x, y)) for x in E.objects for y in E.objects)
    if homprofile(C) != homprofile(D):
        return None
    return next((F for F in enumerate_functors(C, D)
                 if len(set(F.obj_map.values())) == len(D.objects)
                 and len(set(F.mor_map.values())) == len(D.morphisms)), None)


def find_quasi_inverse(F: Functor):
    """A quasi-inverse (G, eta: GF => Id_C iso, eps: FG => Id_D iso), by
    brute force.  Returns None when no candidate works."""
    C, D = F.source, F.target
    for G in enumerate_functors(D, C):
        eps = natural_isos(G.then(F), identity_functor(D))
        if eps is None:
            continue
        eta = natural_isos(F.then(G), identity_functor(C))
        if eta is not None:
            return G, eta, eps
    return None

"""Brute-force enumeration of functors and natural transformations.

These enumerators are the oracle layer for everything else: lifting search,
equivalence checks and homotopy decisions all reduce to them.  Results come
back in a deterministic order (source order x target hom-list order).
`functors_with` is the one search for functors with prescribed composites
(w o a = b, p o w = u): mediating maps of pushouts and pullbacks, homotopies
with given ends, and maps out of a cell stage.
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


def _composition_buckets(C: FinCat):
    """The non-identity morphisms of C in order, and for each position p in
    that order the composable triples (g, f, h=g∘f) over non-identity g, f
    that become checkable once position p is assigned.  They depend only on
    C, which is immutable, so they are kept on C as `_comp_buckets` after
    the first call."""
    kept = getattr(C, "_comp_buckets", None)
    if kept is None:
        idents = set(C.identity.values())
        free_mors = [m for m in C.morphism_ids if m not in idents]
        order_index = {m: i for i, m in enumerate(free_mors)}
        buckets: dict[int, list] = {}
        for (g, f), h in C.compose_table.items():
            if g in idents or f in idents:
                continue
            ready = max(order_index[g], order_index[f],
                        order_index[h] if h not in idents else -1)
            buckets.setdefault(ready, []).append((g, f, h))
        kept = C._comp_buckets = (free_mors, buckets)
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
    """All functors C -> D, via backtracking over object and morphism images.

    fixed_obj / fixed_mor pre-pin images (used to enumerate under
    constraints, e.g. liftings).  Raises GuardExceeded past NODE_BUDGET
    search nodes.
    """
    idents = set(C.identity.values())
    free_mors, buckets = _composition_buckets(C)
    fixed_obj = dict(fixed_obj or {})
    fixed_mor = dict(fixed_mor or {})

    results = []
    nodes = 0
    budget = NODE_BUDGET
    obj_list = list(C.objects)

    def check_bucket(p, obj_map, mor_map):
        for (g, f, h) in buckets.get(p, ()):
            expected = (D.identity[obj_map[C.dom[h]]] if h in idents
                        else mor_map[h])
            if D.compose(mor_map[g], mor_map[f]) != expected:
                return False
        return True

    def assign_mors(p, obj_map, mor_map):
        nonlocal nodes
        if p == len(free_mors):
            full_mor = dict(mor_map)
            for x in C.objects:
                full_mor[C.identity[x]] = D.identity[obj_map[x]]
            results.append(Functor(f"F{len(results)}", C, D, obj_map, full_mor))
            return
        m = free_mors[p]
        candidates = ([fixed_mor[m]] if m in fixed_mor
                      else D.hom(obj_map[C.dom[m]], obj_map[C.cod[m]]))
        for c in candidates:
            nodes += 1
            if nodes > budget:
                raise GuardExceeded(f"functor enumeration exceeded {budget} nodes")
            mor_map[m] = c
            if check_bucket(p, obj_map, mor_map):
                assign_mors(p + 1, obj_map, dict(mor_map))
            del mor_map[m]

    def assign_objs(k, obj_map):
        nonlocal nodes
        if k == len(obj_list):
            # fixed morphisms must sit in the right hom sets
            for m, v in fixed_mor.items():
                if m in idents:
                    if v != D.identity[obj_map[C.dom[m]]]:
                        return
                elif v not in D.hom(obj_map[C.dom[m]], obj_map[C.cod[m]]):
                    return
            assign_mors(0, dict(obj_map), {})
            return
        x = obj_list[k]
        candidates = [fixed_obj[x]] if x in fixed_obj else D.objects
        for y in candidates:
            nodes += 1
            if nodes > budget:
                raise GuardExceeded(f"functor enumeration exceeded {budget} nodes")
            obj_map[x] = y
            assign_objs(k + 1, obj_map)
            del obj_map[x]

    assign_objs(0, {})
    return results


def functors_with(C: FinCat, D: FinCat, before, after):
    """Every functor w: C -> D with w o a = b for each (a, b) in `before` and
    p o w = u for each (p, u) in `after`, in `enumerate_functors` order.

    `before` pins the images it forces (`forced_images`); legs that force
    two images of one object or morphism leave no w.  The search honours
    pins exactly, so every candidate has w o a = b.  `after` pins each
    object x to the y with p(y) = u(x) for every leg, tried in `product`
    order over D's object order, which is the order the unpinned search
    assigns objects in; with no `after` leg an object that `before` does
    not reach is left to the search.  Those pins fix objects only, so each
    candidate is checked against every `after` leg."""
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
    for objs in object_pins:
        for w in enumerate_functors(C, D, objs, fixed_mor):
            if all(w.then(p) == u for p, u in after):
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
                 if F.is_injective_on_objects() and F.is_surjective_on_objects()
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

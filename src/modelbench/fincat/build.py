"""Standard finite categories, binary (co)products and induced categories.

Naming: product cells are "(x,y)"; disjoint unions rename through "left/"
and "right/" prefixes so textual collisions are impossible; a morphism
s -> t of an induced category over d is "s>t:d".
"""

from __future__ import annotations

from .core import FinCat


def free_category(name, objects, arrows) -> FinCat:
    """The category on `objects` with the identity id_x of each object x and
    the given (id, dom, cod) arrows, no two of which compose.  Morphisms are
    the identities in object order, then the arrows; the composition table
    lists each morphism m: d -> c as m o id_d, then id_c o m."""
    objs = list(objects)
    mors = [(f"id_{x}", x, x) for x in objs] + list(arrows)
    comp = {}
    for (m, d, c) in mors:
        comp[(m, f"id_{d}")] = m
        comp[(f"id_{c}", m)] = m
    return FinCat(name, objs, mors, {x: f"id_{x}" for x in objs}, comp)


def empty_category() -> FinCat:
    return free_category("0", [], [])


def unit_category() -> FinCat:
    return free_category("1", ["*"], [])


def k_category(n: int) -> FinCat:
    """K_n: objects 0 and 1 with n parallel morphisms a1..an from 1 to 0.
    K_0 is the discrete category on two objects."""
    return free_category(f"K{n}", ["0", "1"], [(f"a{i}", "1", "0") for i in range(1, n + 1)])


def interval_category() -> FinCat:
    """The interval I: two objects joined by an isomorphism a with inverse."""
    objs = ["0", "1"]
    mors = [("id_0", "0", "0"), ("id_1", "1", "1"), ("a", "0", "1"), ("a_inv", "1", "0")]
    comp = {
        ("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
        ("a", "id_0"): "a", ("id_1", "a"): "a",
        ("a_inv", "id_1"): "a_inv", ("id_0", "a_inv"): "a_inv",
        ("a_inv", "a"): "id_0", ("a", "a_inv"): "id_1",
    }
    return FinCat("I", objs, mors, {"0": "id_0", "1": "id_1"}, comp)


def _pair(x, y):
    return f"({x},{y})"


def product(C: FinCat, D: FinCat, name=None) -> FinCat:
    objs = [_pair(x, y) for x in C.objects for y in D.objects]
    mors, pair = [], {}
    for (f, fd, fc) in C.morphisms:
        for (g, gd, gc) in D.morphisms:
            pair[f, g] = m = _pair(f, g)
            mors.append((m, _pair(fd, gd), _pair(fc, gc)))
    ident = {_pair(x, y): pair[C.identity[x], D.identity[y]]
             for x in C.objects for y in D.objects}
    comp = {(pair[f2, g2], pair[f1, g1]): pair[fc, gc]
            for (f2, f1), fc in C.compose_table.items()
            for (g2, g1), gc in D.compose_table.items()}
    return FinCat(name or f"{C.name}x{D.name}", objs, mors, ident, comp)


def coproduct(C: FinCat, D: FinCat) -> FinCat:
    lo = {x: f"left/{x}" for x in C.objects}
    lm = {m: f"left/{m}" for m in C.morphism_ids}
    ro = {x: f"right/{x}" for x in D.objects}
    rm = {m: f"right/{m}" for m in D.morphism_ids}
    objs = [lo[x] for x in C.objects] + [ro[x] for x in D.objects]
    mors = ([(lm[m], lo[d], lo[c]) for (m, d, c) in C.morphisms]
            + [(rm[m], ro[d], ro[c]) for (m, d, c) in D.morphisms])
    ident = {lo[x]: lm[C.identity[x]] for x in C.objects}
    ident.update({ro[x]: rm[D.identity[x]] for x in D.objects})
    comp = {(lm[g], lm[f]): lm[h] for (g, f), h in C.compose_table.items()}
    comp.update({(rm[g], rm[f]): rm[h] for (g, f), h in D.compose_table.items()})
    return FinCat(f"{C.name}+{D.name}", objs, mors, ident, comp)


def induced_mor(x, y, d):
    return f"{x}>{y}:{d}"


def induced_category(name, objects, phi, E: FinCat) -> tuple[FinCat, dict]:
    """The category on `objects` with Hom(s, t) = E(phi(s), phi(t)), and
    identities and composition taken in E.  The morphism s -> t over d is
    named induced_mor(s, t, d); the returned dict maps it to d."""
    objs = list(objects)
    base = {x: phi(x) for x in objs}
    mors, under, named = [], {}, {}
    for x in objs:
        for y in objs:
            for d in E.hom(base[x], base[y]):
                named[x, y, d] = m = induced_mor(x, y, d)
                mors.append((m, x, y))
                under[m] = d
    ident = {x: named[x, x, E.identity[base[x]]] for x in objs}
    # each composite e o d of E gives x -> y -> z for x, y, z over its ends
    over = {}
    for x in objs:
        over.setdefault(base[x], []).append(x)
    comp = {}
    for (e, d), ed in E.compose_table.items():
        for x in over.get(E.dom[d], ()):
            for y in over.get(E.cod[d], ()):
                f = named[x, y, d]
                for z in over.get(E.cod[e], ()):
                    comp[(named[y, z, e], f)] = named[x, z, ed]
    return FinCat(name, objs, mors, ident, comp), under

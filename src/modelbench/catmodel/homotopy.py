"""Homotopy of functors: three independent decision routes (direct natural
isomorphism search, a cylinder homotopy through C x I, a path homotopy into
Hom(I, D)), plus Hom sets of the homotopy category."""

from __future__ import annotations

from itertools import islice, product
from math import prod

from ..fincat import Functor, GuardExceeded, NatTransf, enumerate_functors, enumfun
from ..fincat.build import induced_mor
from ..fincat.core import Record
from ..fincat.enumfun import functors_with, natural_isos
from .interval import cylinder, path_object, _pair, _triple


class NatIsoDecision(Record):
    __slots__ = ("found", "eta", "H", "K", "routes")

    def __init__(self, found: bool, eta: NatTransf | None, H: Functor | None,
                 K: Functor | None, routes: tuple):
        self.found = found
        self.eta = eta
        self.H = H              # cylinder homotopy C x I -> D
        self.K = K              # path homotopy C -> Hom(I, D)
        self.routes = routes    # the three booleans, in the order above

    @property
    def agree(self):
        return len(set(self.routes)) == 1


def eta_to_cylinder_homotopy(eta: NatTransf) -> Functor:
    """The explicit H with H(., 0) = F, H(., 1) = G and H(f, a) determined
    by the naturality square of eta."""
    F, G = eta.F, eta.G
    C, D = F.source, F.target
    cyl = cylinder(C).cyl
    obj = {}
    for x in C.objects:
        obj[_pair(x, "0")] = F.obj_map[x]
        obj[_pair(x, "1")] = G.obj_map[x]
    mor = {}
    for m in C.morphism_ids:
        y = C.cod[m]
        mor[_pair(m, "id_0")] = F.mor_map[m]
        mor[_pair(m, "id_1")] = G.mor_map[m]
        mor[_pair(m, "a")] = D.compose(eta.at(y), F.mor_map[m])
        mor[_pair(m, "a_inv")] = D.compose(F.mor_map[m], D.inverse_of(eta.at(C.dom[m])))
    H = Functor("H(eta)", cyl, D, obj, mor)
    if not H.validate().ok:
        raise AssertionError("cylinder homotopy built from eta is not a functor")
    return H


def eta_to_path_homotopy(eta: NatTransf) -> Functor:
    """The explicit K sending C to the triple (F(C), eta_C, G(C))."""
    F, G = eta.F, eta.G
    C, D = F.source, F.target
    path_cat = path_object(D).path_cat
    obj = {x: _triple(F.obj_map[x], eta.at(x), G.obj_map[x]) for x in C.objects}
    mor = {m: induced_mor(obj[C.dom[m]], obj[C.cod[m]], F.mor_map[m])
           for m in C.morphism_ids}
    K = Functor("K(eta)", C, path_cat, obj, mor)
    if not K.validate().ok:
        raise AssertionError("path homotopy built from eta is not a functor")
    return K


def naturally_isomorphic(F: Functor, G: Functor) -> NatIsoDecision:
    """Decide F ~= G three independent ways and insist the answers agree."""
    if F.source != G.source or F.target != G.target:
        raise ValueError("parallel functors required")
    cyl, path = cylinder(F.source), path_object(F.target)
    eta = natural_isos(F, G)
    H = next(functors_with(cyl.cyl, F.target, [(cyl.iota0, F), (cyl.iota1, G)], []), None)
    K = next(functors_with(F.source, path.path_cat, [], [(path.p0, F), (path.p1, G)]), None)
    routes = (eta is not None, H is not None, K is not None)
    decision = NatIsoDecision(found=all(routes), eta=eta, H=H, K=K, routes=routes)
    if not decision.agree:
        raise AssertionError(
            f"natural-isomorphism routes disagree for {F.name}, {G.name}: {routes}")
    if eta is not None:
        # transport checks: eta induces valid cylinder and path homotopies
        eta_to_cylinder_homotopy(eta)
        eta_to_path_homotopy(eta)
    return decision


def ho_hom(C, D):
    """Hom in the homotopy category: functors C -> D up to natural
    isomorphism, as a deterministic list of classes.

    The skeleton theorem (Mac Lane, CWM IV.4): the reflection r of D onto
    its skeleton of first objects (`FinCat.reflection`) is an equivalence,
    so F ~= G iff r F ~= r G.  In the skeleton isomorphic objects are equal,
    so a natural iso r F => r G has components alpha_x in Aut(rep F(x)):
    r F ~= r G iff both send each x to the same rep and
    r G(m) = alpha_y o r F(m) o alpha_x^-1 for every m: x -> y, for one
    alpha in the product over x in C of Aut(rep F(x)).  F is keyed by its
    reps and the least such conjugate of its r F(m) over that orbit, so
    F ~= G iff their keys are equal and no iso search is needed.  When every
    rep has only its identity as an automorphism the orbit is r F itself.
    The orbits' sizes are counted against `enumfun.NODE_BUDGET` over the
    whole call before each is searched; past it, GuardExceeded is raised
    and no class is returned.

    Classes are numbered by their first member and list their members in
    `enumerate_functors` order, as testing each functor against every class
    found so far would."""
    sk = D.reflection()
    comp, inv = D.compose_table, D.inverse_of
    mors = C.morphisms
    budget, nodes = enumfun.NODE_BUDGET, 0
    rigid = all(len(a) == 1 for a in sk.auts.values())
    classes: dict[tuple, list] = {}
    for F in enumerate_functors(C, D):
        reps = tuple(sk.rep[F.obj_map[x]] for x in C.objects)
        base = key = tuple(sk.r[F.mor_map[m]] for (m, _, _) in mors)
        orbit = 1 if rigid else prod(len(sk.auts[p]) for p in reps)
        nodes += orbit
        if nodes > budget:
            raise GuardExceeded(f"ho_hom orbit search exceeded {budget} nodes")
        if orbit > 1:
            # the first conjugate, by the identities, is base itself
            for alpha in islice(product(*(sk.auts[p] for p in reps)), 1, None):
                a = dict(zip(C.objects, alpha))
                key = min(key, tuple(comp[(comp[(a[y], u)], inv(a[x]))]
                                     for u, (_, x, y) in zip(base, mors)))
        classes.setdefault((reps, key), []).append(F)
    return list(classes.values())

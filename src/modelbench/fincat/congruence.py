"""Hom congruences, factor categories and the two canonical factorizations
of a functor (through its quotient / through its essential image)."""

from __future__ import annotations

from dataclasses import dataclass

from .build import induced_category, induced_mor
from .core import FinCat, Functor
from .enumfun import is_equivalence_structural


class HomCongruence:
    """Equivalence relations on every Hom set, closed under pre/post
    composition.  Built from generating pairs by fixpoint closure; the
    closure is computed eagerly and deterministically (union by least
    morphism-list index)."""

    def __init__(self, base: FinCat, generating_pairs):
        self.base = base
        self.generating_pairs = list(generating_pairs)
        for (a, b) in self.generating_pairs:
            if base.dom[a] != base.dom[b] or base.cod[a] != base.cod[b]:
                raise ValueError(f"congruence pair ({a}, {b}) has mismatched endpoints")
        self._index = {m: i for i, m in enumerate(base.morphism_ids)}
        self._parent = {m: m for m in base.morphism_ids}
        self._close()

    def _find(self, m):
        p = self._parent
        while p[m] != m:
            p[m] = p[p[m]]
            m = p[m]
        return m

    def _union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return False
        if self._index[rb] < self._index[ra]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        return True

    def _close(self):
        C = self.base
        queue = list(self.generating_pairs)
        while queue:
            a, b = queue.pop()
            if not self._union(a, b):
                continue
            d, c = C.dom[a], C.cod[a]
            for (f, _, fc) in C.morphisms:
                if fc == d:
                    queue.append((C.compose(a, f), C.compose(b, f)))
            for (g, gd, _) in C.morphisms:
                if gd == c:
                    queue.append((C.compose(g, a), C.compose(g, b)))

    def classes(self):
        out: dict[str, list[str]] = {}
        for m in self.base.morphism_ids:
            out.setdefault(self._find(m), []).append(m)
        return out


def congruence_from_functor(F: Functor) -> HomCongruence:
    """R(F): morphisms are identified exactly when their images agree."""
    C = F.source
    pairs = []
    for x in C.objects:
        for y in C.objects:
            hom = C.hom(x, y)
            for i, a in enumerate(hom):
                for b in hom[i + 1:]:
                    if F.mor_map[a] == F.mor_map[b]:
                        pairs.append((a, b))
    return HomCongruence(C, pairs)


def factor_category(C: FinCat, R: HomCongruence):
    """The factor category C/R and its canonical functor (full, dense and
    the identity on objects)."""
    if R.base != C:
        raise ValueError("congruence is based on a different category")
    classes = R.classes()
    cname = {m: f"[{rep}]" for rep, members in classes.items() for m in members}
    mors = [(f"[{rep}]", C.dom[rep], C.cod[rep]) for rep in classes]
    ident = {x: cname[C.identity[x]] for x in C.objects}
    comp = {}
    for rep_g in classes:
        for rep_f in classes:
            if C.dom[rep_g] != C.cod[rep_f]:
                continue
            value = cname[C.compose(rep_g, rep_f)]
            # well-definedness across all representative pairs
            for g in classes[rep_g]:
                for f in classes[rep_f]:
                    if cname[C.compose(g, f)] != value:
                        raise ValueError(
                            f"composition not well defined on classes ({rep_g}, {rep_f})")
            comp[(cname[rep_g], cname[rep_f])] = value
    quotient = FinCat(f"{C.name}/R", list(C.objects), mors, ident, comp)
    can = Functor(f"can_{C.name}", C, quotient,
                  {x: x for x in C.objects}, cname)
    return quotient, can


@dataclass
class StandardFactorization:
    can: Functor          # C -> C/R(F)
    quotient: FinCat
    f_tilde: Functor      # C/R(F) -> Im(F)
    image: FinCat
    inc: Functor          # Im(F) -> D
    f_tilde_faithful: bool
    f_tilde_dense: bool
    f_tilde_equivalence: bool
    f_full: bool

    def recompose(self) -> Functor:
        return self.can.then(self.f_tilde).then(self.inc)


def standard_factorization(F: Functor) -> StandardFactorization:
    """F = inc o F~ o can with F~ faithful and dense; F~ is an equivalence
    exactly when F is full."""
    C, D = F.source, F.target
    R = congruence_from_functor(F)
    quotient, can = factor_category(C, R)
    image = F.essential_image()
    inc = Functor(f"inc_{image.name}", image, D,
                  {x: x for x in image.objects},
                  {m: m for m in image.morphism_ids})
    f_tilde = Functor(
        f"{F.name}~", quotient, image,
        {x: F.obj_map[x] for x in quotient.objects},
        {cm: F.mor_map[rep] for cm, rep in
         ((can.mor_map[m], m) for m in C.morphism_ids)},
    )
    return StandardFactorization(
        can=can, quotient=quotient, f_tilde=f_tilde, image=image, inc=inc,
        f_tilde_faithful=f_tilde.is_faithful(),
        f_tilde_dense=f_tilde.is_dense(),
        f_tilde_equivalence=is_equivalence_structural(f_tilde),
        f_full=F.is_full(),
    )


@dataclass
class ImageFactorization:
    c_f: FinCat
    f1: Functor           # C -> C_F, identity on objects
    f2: Functor           # C_F -> D, identity on underlying morphisms
    f2_equivalence_onto_image: bool

    def recompose(self) -> Functor:
        return self.f1.then(self.f2)


def image_factorization(F: Functor) -> ImageFactorization:
    """F = F2 o F1 through C_F, which has Obj(C) and the target's Hom sets
    between images; F2 lands equivalently onto the essential image."""
    C, D = F.source, F.target
    objs = list(C.objects)
    c_f, under = induced_category(f"C_{F.name}", objs, lambda x: F.obj_map[x], D)
    f1 = Functor(f"{F.name}_1", C, c_f,
                 {x: x for x in objs},
                 {m: induced_mor(C.dom[m], C.cod[m], F.mor_map[m]) for m in C.morphism_ids})
    f2 = Functor(f"{F.name}_2", c_f, D,
                 {x: F.obj_map[x] for x in objs}, dict(under))
    image = F.essential_image()
    corestriction = Functor(f"{F.name}_2|", c_f, image,
                            f2.obj_map, f2.mor_map)
    return ImageFactorization(
        c_f=c_f, f1=f1, f2=f2,
        f2_equivalence_onto_image=is_equivalence_structural(corestriction),
    )

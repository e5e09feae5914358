"""Structural classification of functors for the natural model structure:
injections are the cofibrations, equivalences the weak equivalences and
isofibrations the fibrations."""

from __future__ import annotations

from ..fincat import Functor
from ..fincat.core import Record


class FunctorClassification(Record):
    __slots__ = ("injection", "equivalence", "isofibration", "full", "faithful", "dense",
                 "surjective_on_objects")

    def __init__(self, injection: bool, equivalence: bool, isofibration: bool, full: bool,
                 faithful: bool, dense: bool, surjective_on_objects: bool):
        self.injection = injection
        self.equivalence = equivalence
        self.isofibration = isofibration
        self.full = full
        self.faithful = faithful
        self.dense = dense
        self.surjective_on_objects = surjective_on_objects

    @property
    def acyclic_injection(self):
        return self.injection and self.equivalence

    @property
    def acyclic_isofibration(self):
        return self.isofibration and self.equivalence


def classify(F: Functor) -> FunctorClassification:
    """The classification of F, computed and invariant-checked on the first
    call and then kept on the (immutable) functor instance, in one pass:
    full and faithful from the image of each hom set, dense (essentially
    surjective) when the isos out of the images reach every target object,
    isofibration when the images of the isos out of each c cover the isos
    out of F(c).  F is an equivalence exactly when it is full, faithful and
    dense; the test suite checks this against quasi-inverse search."""
    cached = getattr(F, "_classification", None)
    if cached is not None:
        return cached
    C, D = F.source, F.target
    obj, mor = F.obj_map, F.mor_map
    full = faithful = True
    for x in C.objects:
        for y in C.objects:
            hom = C.hom(x, y)
            image = {mor[f] for f in hom}
            faithful = faithful and len(image) == len(hom)
            full = full and image.issuperset(D.hom(obj[x], obj[y]))
    images = {obj[x] for x in C.objects}
    dense = len({D.cod[f] for y in images for f in D.isos_out(y)}) == len(D.objects)
    cls = FunctorClassification(
        injection=len(images) == len(C.objects),
        equivalence=full and faithful and dense,
        isofibration=all({mor[h] for h in C.isos_out(c)}.issuperset(D.isos_out(obj[c]))
                         for c in C.objects),
        full=full,
        faithful=faithful,
        dense=dense,
        surjective_on_objects=len(images) == len(D.objects),
    )
    # acyclic isofibration <=> fully faithful + surjective on objects
    ff_so = cls.full and cls.faithful and cls.surjective_on_objects
    if cls.acyclic_isofibration != ff_so:
        raise AssertionError(
            f"classification invariant violated for {F.name}: "
            f"acyclic isofibration != fully faithful + surjective on objects")
    F._classification = cls
    return cls

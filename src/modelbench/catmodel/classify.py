"""Structural classification of functors for the natural model structure:
injections are the cofibrations, equivalences the weak equivalences and
isofibrations the fibrations."""

from __future__ import annotations

from dataclasses import dataclass

from ..fincat import Functor


@dataclass
class FunctorClassification:
    injection: bool
    equivalence: bool
    isofibration: bool
    full: bool
    faithful: bool
    dense: bool
    surjective_on_objects: bool

    @property
    def acyclic_injection(self):
        return self.injection and self.equivalence

    @property
    def acyclic_isofibration(self):
        return self.isofibration and self.equivalence


def is_isofibration(F: Functor) -> bool:
    """Every isomorphism out of an image object lifts to an isomorphism."""
    C, D = F.source, F.target
    for c in C.objects:
        fc = F.obj_map[c]
        for d in D.objects:
            for g in D.hom(fc, d):
                if not D.is_iso(g):
                    continue
                if not any(
                    C.is_iso(h) and F.mor_map[h] == g
                    for c2 in C.objects
                    for h in C.hom(c, c2)
                ):
                    return False
    return True


def classify(F: Functor) -> FunctorClassification:
    """The classification of F, computed and invariant-checked on the first
    call and then kept on the (immutable) functor instance.  F is an
    equivalence exactly when it is full, faithful and dense (essentially
    surjective); the test suite checks this against quasi-inverse search."""
    cached = getattr(F, "_classification", None)
    if cached is not None:
        return cached
    full, faithful, dense = F.is_full(), F.is_faithful(), F.is_dense()
    cls = FunctorClassification(
        injection=F.is_injective_on_objects(),
        equivalence=full and faithful and dense,
        isofibration=is_isofibration(F),
        full=full,
        faithful=faithful,
        dense=dense,
        surjective_on_objects=F.is_surjective_on_objects(),
    )
    # acyclic isofibration <=> fully faithful + surjective on objects
    ff_so = cls.full and cls.faithful and cls.surjective_on_objects
    if cls.acyclic_isofibration != ff_so:
        raise AssertionError(
            f"classification invariant violated for {F.name}: "
            f"acyclic isofibration != fully faithful + surjective on objects")
    F._classification = cls
    return cls

from .classify import FunctorClassification, classify
from .generators import empty_to_unit, inc0, k0_to_k1, k2_to_k1, generating_cofibrations
from .ambient import CatAmbient
from .interval import CylinderDiagram, PathDiagram, cylinder, path_object
from .factor import (
    CylinderFactorization,
    CocylinderFactorization,
    functor_cylinder_factorization,
    functor_cocylinder_factorization,
    cylinder_pushout_check,
    cocylinder_pullback_check,
)
from .homotopy import NatIsoDecision, naturally_isomorphic, ho_hom

__all__ = [
    "FunctorClassification", "classify",
    "empty_to_unit", "inc0", "k0_to_k1", "k2_to_k1", "generating_cofibrations",
    "CatAmbient",
    "CylinderDiagram", "PathDiagram", "cylinder", "path_object",
    "CylinderFactorization", "CocylinderFactorization",
    "functor_cylinder_factorization", "functor_cocylinder_factorization",
    "cylinder_pushout_check", "cocylinder_pullback_check",
    "NatIsoDecision", "naturally_isomorphic", "ho_hom",
]

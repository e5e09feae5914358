from .core import FinCat, Functor, NatTransf, ValidationReport
from .build import (
    empty_category,
    unit_category,
    discrete_category,
    k_category,
    interval_category,
    product,
    coproduct,
)
from .enumfun import (
    GuardExceeded,
    enumerate_functors,
    natural_isos,
    find_category_isomorphism,
    is_equivalence_structural,
    find_quasi_inverse,
)
from .congruence import HomCongruence, factor_category, standard_factorization, image_factorization
from .quivers import Quiver, PathCategory, path_category, adjunction_check
from .diagrams import CatDiagram, CatPresentation, limit, colimit_presentation, saturate

__all__ = [
    "FinCat", "Functor", "NatTransf", "ValidationReport",
    "empty_category", "unit_category", "discrete_category", "k_category",
    "interval_category", "product", "coproduct",
    "GuardExceeded", "enumerate_functors", "natural_isos",
    "find_category_isomorphism", "is_equivalence_structural",
    "find_quasi_inverse",
    "HomCongruence", "factor_category", "standard_factorization", "image_factorization",
    "Quiver", "PathCategory", "path_category", "adjunction_check",
    "CatDiagram", "CatPresentation", "limit", "colimit_presentation", "saturate",
]

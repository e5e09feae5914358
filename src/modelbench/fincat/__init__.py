from .core import FinCat, Functor, NatTransf, ValidationReport
from .build import (
    empty_category,
    unit_category,
    free_category,
    k_category,
    interval_category,
    product,
    coproduct,
)
from .enumfun import (
    GuardExceeded,
    enumerate_functors,
    natural_isos,
)
from .quivers import Quiver
from .diagrams import CatDiagram, CatPresentation, colimit_presentation, saturate

__all__ = [
    "FinCat", "Functor", "NatTransf", "ValidationReport",
    "empty_category", "unit_category", "free_category", "k_category",
    "interval_category", "product", "coproduct",
    "GuardExceeded", "enumerate_functors", "natural_isos",
    "Quiver",
    "CatDiagram", "CatPresentation", "colimit_presentation", "saturate",
]

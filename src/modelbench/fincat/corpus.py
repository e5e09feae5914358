"""The shared desk-scale corpus of finite categories used by the checkers
and the acceptance suite."""

from __future__ import annotations

from .build import empty_category, interval_category, k_category, product, unit_category
from .diagrams import CatPresentation, saturate
from .quivers import Quiver


def a2_quiver() -> Quiver:
    return Quiver("A2", ["1", "2"], [("alpha", "1", "2")])


def jordan_quiver() -> Quiver:
    return Quiver("Jordan", ["v"], [("alpha", "v", "v")])


def a2_path_category():
    """P(A2), the free category on 1 -alpha-> 2, saturated from the A2
    quiver with no relations.  Its morphisms are [e_1], [e_2] and [alpha],
    in that order."""
    return saturate(CatPresentation(a2_quiver(), [])).category


def base_corpus() -> dict:
    """The eight base categories: empty, unit, K0..K3, I, P(A2)."""
    return {
        "0": empty_category(),
        "1": unit_category(),
        "K0": k_category(0),
        "K1": k_category(1),
        "K2": k_category(2),
        "K3": k_category(3),
        "I": interval_category(),
        "PA2": a2_path_category(),
    }


def full_corpus() -> dict:
    """Base corpus together with the cylinders C x I."""
    cats = base_corpus()
    I = cats["I"]
    out = dict(cats)
    for name, C in cats.items():
        out[f"{name}xI"] = product(C, I, name=f"{name}xI")
    return out

"""Left/right homotopy checks through a chosen cylinder or path diagram."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Ambient


@dataclass
class CylinderData:
    """A cylinder for A: i0, i1: A -> cyl and a weak-equivalence leg
    w: cyl -> A with w i0 = Id = w i1."""

    i0: object
    i1: object
    w: object


@dataclass
class PathData:
    """A path object for X: const: X -> path and p0, p1: path -> X with
    p0 const = Id = p1 const."""

    const: object
    p0: object
    p1: object


@dataclass
class HomotopyWitness:
    kind: str          # "left" or "right"
    map: object        # H: cyl -> X  or  K: A -> path
    diagram: object


def _check_cylinder(a: Ambient, cyl: CylinderData):
    ida = a.identity(a.dom(cyl.i0))
    if not (a.equal(a.compose(cyl.w, cyl.i0), ida)
            and a.equal(a.compose(cyl.w, cyl.i1), ida)):
        raise ValueError("cylinder legs do not factor the codiagonal")


def cylinder_homotopy_check(a: Ambient, F, G, cyl: CylinderData) -> HomotopyWitness | None:
    """Search for H with H i0 = F and H i1 = G."""
    _check_cylinder(a, cyl)
    target = a.cod(F)
    for H in a.morphisms_between(a.cod(cyl.i0), target):
        if a.equal(a.compose(H, cyl.i0), F) and a.equal(a.compose(H, cyl.i1), G):
            return HomotopyWitness("left", H, cyl)
    return None


def path_homotopy_check(a: Ambient, F, G, path: PathData) -> HomotopyWitness | None:
    """Search for K with p0 K = F and p1 K = G."""
    idx = a.identity(a.dom(path.const))
    if not (a.equal(a.compose(path.p0, path.const), idx)
            and a.equal(a.compose(path.p1, path.const), idx)):
        raise ValueError("path legs do not factor the diagonal")
    for K in a.morphisms_between(a.dom(F), a.dom(path.p0)):
        if a.equal(a.compose(path.p0, K), F) and a.equal(a.compose(path.p1, K), G):
            return HomotopyWitness("right", K, path)
    return None

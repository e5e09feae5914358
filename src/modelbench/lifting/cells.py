"""Bounded cell complexes and the staged small-object factorization.

Transfinite composition is truncated at finitely many stages; each stage is
a pushout of a coproduct of generating functors, attached by
`catmodel.CatAmbient.attach_cells`.
"""

from __future__ import annotations

from ..fincat import Functor
from ..fincat.core import Record, identity_functor
from .core import CellStage


def cell_step(a, obj, attachments) -> CellStage:
    """One pushout stage.  `attachments` is a list of (generator, attach)
    with attach: generator.source -> obj.  The returned stage carries the
    inclusion obj -> result and the pushed-forward cell maps, and the
    defining squares are re-checked to commute."""
    result, inclusion, cell_maps = a.attach_cells(obj, attachments)
    for (gen, att), cmap in zip(attachments, cell_maps):
        if a.compose(cmap, gen) != a.compose(inclusion, att):
            raise AssertionError("pushout square of a cell stage does not commute")
    return CellStage(generators=[g for (g, _) in attachments],
                     attachments=[t for (_, t) in attachments],
                     result=result, inclusion=inclusion, cell_maps=cell_maps)


class FactorizationResult(Record):
    """Outcome of the staged factorization f = p o i, with i the composite
    of the stage inclusions."""

    __slots__ = ("i", "p", "stages", "status")

    def __init__(self, i: Functor, p: Functor, stages: list, status: str):
        self.i = i
        self.p = p
        self.stages = stages        # list of CellStage
        self.status = status        # "factored" | "partial" | "stuck"

    @property
    def stages_used(self) -> int:
        return len(self.stages)


def small_object_factorization(a, generators, f, max_stages) -> FactorizationResult:
    """Stagewise factorization of the functor f through pushouts of
    generator cells, in the `CatAmbient` a.

    Each stage attaches one cell per square from `a.attachment_squares`
    (the commuting squares from a generator into the current right leg that
    admit no lift, the bounded stand-in for the index set of the small
    object argument), pushes them out with `a.attach_cells` and takes the
    induced right leg from `a.induced_from_cells`.  Stops early once the
    right leg tests orthogonal to the generators (`factored`); `stuck` when
    no square is left to attach, `partial` after `max_stages`.  A cell
    pushout that does not saturate to a finite category raises ValueError.
    """
    stages = []
    i = None
    current = f
    status = "partial"
    report = a.in_generators_perp(generators, current)
    if report.orthogonal:
        status = "factored"
    else:
        for _ in range(max_stages):
            squares = a.attachment_squares(generators, current)
            if not squares:
                status = "stuck"
                break
            stage = cell_step(a, current.source, [(g, att) for (g, att, _b) in squares])
            nxt = a.induced_from_cells(stage, current, [b for (_g, _a, b) in squares])
            if a.compose(nxt, stage.inclusion) != current:
                raise AssertionError("stage-induced map does not restrict to f_i")
            stages.append(stage)
            i = stage.inclusion if i is None else a.compose(stage.inclusion, i)
            current = nxt
            report = a.in_generators_perp(generators, current)
            if report.orthogonal:
                status = "factored"
                break
    result = FactorizationResult(i if i is not None else identity_functor(f.source),
                                 current, stages, status)
    # composite of the tower followed by p must give back f
    if a.compose(result.p, result.i) != f:
        raise AssertionError("factorization does not recompose to f")
    return result

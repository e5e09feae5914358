"""Quivers, the generators of a `CatPresentation`.  `diagrams.saturate`
realizes a quiver with relations as a finite category and names each
morphism by `path_name` of its least path, in brackets."""

from __future__ import annotations


class Quiver:
    """Directed multigraph: vertices and arrows (id, source, target)."""

    def __init__(self, name, vertices, arrows):
        self.name = name
        self.vertices = list(vertices)
        self.arrows = [(a, s, t) for (a, s, t) in arrows]
        for (a, s, t) in self.arrows:
            if s not in self.vertices or t not in self.vertices:
                raise ValueError(f"arrow {a} has endpoints outside the vertex set")


def path_name(src, arrows) -> str:
    return f"e_{src}" if not arrows else "*".join(arrows)

"""Finite categories by total composition table.

A FinCat stores every morphism explicitly, so all predicates downstream are
decidable by enumeration.  Object and morphism ids are strings and equality
is literal.  Values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ValidationReport:
    ok: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class Reflection:
    """The reflection of a category onto a skeleton (Mac Lane, CWM IV.4).

    rep[x] is the first object isomorphic to x, and theta[x]: x -> rep[x]
    an isomorphism (the identity when x is its own rep).  r sends each
    u: x -> y to theta[y] o u o theta[x]^-1: rep[x] -> rep[y], a functor onto
    the full subcategory of reps that is an equivalence.  auts[p] lists the
    automorphisms of each rep p, identity first."""

    rep: dict
    theta: dict
    r: dict
    auts: dict


class FinCat:
    """Finite category: objects, morphisms (id, dom, cod), identity table and
    a total composition table on composable pairs.

    Immutable after construction: the tables are copied in and never
    written again, so facts derived from a category stay valid for its life
    and are kept on the instance: `_hash` (the value hash, taken once
    because every memo key hashes categories), `_iso_cache` (the inverse of
    each isomorphism and the isomorphisms out of each object, found in one
    pass by `inverse_of` or `isos_out`), `_reflection` (the skeleton, filled
    by `reflection`), from `enumfun` the functor search plan `_search_plan`,
    and from `catmodel` the cylinder `_cylinder` and the path object
    `_path_object`."""

    def __init__(self, name, objects, morphisms, identity, compose):
        self.name = name
        self.objects = list(objects)
        # morphisms: list of (mor_id, dom, cod) in a fixed, deterministic order
        self.morphisms = [(m, d, c) for (m, d, c) in morphisms]
        self.dom = {m: d for (m, d, c) in self.morphisms}
        self.cod = {m: c for (m, d, c) in self.morphisms}
        self.identity = dict(identity)
        self.compose_table = dict(compose)
        self._hom: dict[tuple[str, str], list[str]] = {}
        for (m, d, c) in self.morphisms:
            self._hom.setdefault((d, c), []).append(m)
        self._hash = hash((tuple(self.objects), tuple(self.morphisms)))
        self._iso_cache: tuple[dict, dict] | None = None
        self._reflection: Reflection | None = None

    # -- basic access ---------------------------------------------------

    @property
    def morphism_ids(self):
        return [m for (m, _, _) in self.morphisms]

    def hom(self, x, y):
        return self._hom.get((x, y), [])

    def compose(self, g, f):
        """g after f; raises KeyError when not composable."""
        if self.cod[f] != self.dom[g]:
            raise KeyError(f"not composable: {g} o {f}")
        return self.compose_table[(g, f)]

    def __repr__(self):
        return f"FinCat({self.name!r}, {len(self.objects)} objects, {len(self.morphisms)} morphisms)"

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinCat):
            return NotImplemented
        return (self.objects == other.objects
                and self.morphisms == other.morphisms
                and self.identity == other.identity
                and self.compose_table == other.compose_table)

    def __hash__(self):
        return self._hash

    # -- structure ------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check identity laws and associativity on all composable triples,
        walked from the morphisms out of each object in morphism order;
        reports the first failing instance of each kind."""
        failures = []
        for x in self.objects:
            i = self.identity.get(x)
            if i is None or self.dom.get(i) != x or self.cod.get(i) != x:
                failures.append(f"identity of {x} missing or has wrong endpoints")
        for (m, d, c) in self.morphisms:
            left = self.compose_table.get((m, self.identity[d]))
            right = self.compose_table.get((self.identity[c], m))
            if left != m or right != m:
                failures.append(f"identity law fails at {m}")
                break
        out, table = {}, self.compose_table
        for (m, d, c) in self.morphisms:
            out.setdefault(d, []).append((m, c))
        for (f, fd, fc) in self.morphisms:
            for (g, gc) in out.get(fc, ()):
                if (g, f) not in table:
                    failures.append(f"composition table misses ({g}, {f})")
                    return ValidationReport(False, failures)
                gf = table[(g, f)]
                if self.dom.get(gf) != fd or self.cod.get(gf) != gc:
                    failures.append(f"composite {g} o {f} = {gf} has wrong endpoints")
                    return ValidationReport(False, failures)
        if failures:
            return ValidationReport(False, failures)
        for (f, _, fc) in self.morphisms:
            for (g, gc) in out.get(fc, ()):
                gf = table[(g, f)]
                for (h, _) in out.get(gc, ()):
                    if table[(h, gf)] != table[(table[(h, g)], f)]:
                        failures.append(f"associativity fails at triple ({h}, {g}, {f})")
                        return ValidationReport(False, failures)
        return ValidationReport(True, [])

    def _find_isos(self):
        """The inverse of each iso and the isos out of each object, in one pass."""
        inverse, out = {}, {x: [] for x in self.objects}
        for (f, d, c) in self.morphisms:
            for g in self.hom(c, d):
                if (self.compose(g, f) == self.identity[d]
                        and self.compose(f, g) == self.identity[c]):
                    inverse[f] = g
                    out[d].append(f)
                    break
        self._iso_cache = (inverse, out)

    def inverse_of(self, f):
        """Two-sided inverse of f, or None."""
        if self._iso_cache is None:
            self._find_isos()
        return self._iso_cache[0].get(f)

    def isos_out(self, x):
        """The isomorphisms with domain x, in morphism order."""
        if self._iso_cache is None:
            self._find_isos()
        return self._iso_cache[1][x]

    def reflection(self) -> Reflection:
        """The reflection onto the skeleton of first objects, built on the
        first call and kept on the instance as `_reflection`."""
        if self._reflection is None:
            rep, theta, auts = {}, {}, {}
            for x in self.objects:
                # the first object isomorphic to x is a rep found earlier
                t = next((f for p in auts for f in self.hom(x, p) if self.is_iso(f)), None)
                if t is None:
                    t = self.identity[x]
                    auts[x] = [t] + [f for f in self.hom(x, x) if f != t and self.is_iso(f)]
                rep[x], theta[x] = self.cod[t], t
            r = {u: self.compose(theta[c], self.compose(u, self.inverse_of(theta[d])))
                 for (u, d, c) in self.morphisms}
            self._reflection = Reflection(rep, theta, r, auts)
        return self._reflection

    def is_iso(self, f) -> bool:
        return self.inverse_of(f) is not None

    def isomorphic_objects(self, x, y) -> bool:
        return any(self.is_iso(f) for f in self.hom(x, y))

    def iso_classes_of_objects(self):
        classes = []
        seen = set()
        for x in self.objects:
            if x in seen:
                continue
            cls = [y for y in self.objects if self.isomorphic_objects(x, y) and self.isomorphic_objects(y, x)]
            seen.update(cls)
            classes.append(cls)
        return classes


class Functor:
    """A functor given by its object and morphism maps.  Immutable after
    construction: the maps are copied in and never written again, so facts
    derived from a functor stay valid for its life and are kept on the
    instance: its value `key` (`_key`), which the ambient's int tables
    read, and its value hash `_hash`, which every memo key reads, both taken
    on first use; and the classification that `catmodel.classify` keeps as
    `_classification`."""

    def __init__(self, name, source: FinCat, target: FinCat, obj_map, mor_map):
        self.name = name
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)
        self._key = None
        self._hash = None

    @property
    def key(self) -> tuple:
        """The morphism images in source order.  Between one source and
        target it determines the functor, since each object goes where its
        identity goes."""
        if self._key is None:
            self._key = tuple(self.mor_map.get(m) for m in self.source.morphism_ids)
        return self._key

    def __repr__(self):
        return f"Functor({self.name!r}: {self.source.name} -> {self.target.name})"

    def __eq__(self, other):
        if not isinstance(other, Functor):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.obj_map == other.obj_map and self.mor_map == other.mor_map)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source, self.target, self.key))
        return self._hash

    def validate(self) -> ValidationReport:
        failures = []
        C, D = self.source, self.target
        for x in C.objects:
            if self.obj_map.get(x) not in D.objects:
                failures.append(f"object {x} has no valid image")
                return ValidationReport(False, failures)
        for (m, d, c) in C.morphisms:
            fm = self.mor_map.get(m)
            if fm is None or D.dom.get(fm) != self.obj_map[d] or D.cod.get(fm) != self.obj_map[c]:
                failures.append(f"morphism {m} image breaks dom/cod")
                return ValidationReport(False, failures)
        for x in C.objects:
            if self.mor_map[C.identity[x]] != D.identity[self.obj_map[x]]:
                failures.append(f"identity of {x} not preserved")
        mor, comp = self.mor_map, D.compose_table
        for (g, f), h in C.compose_table.items():
            if mor[h] != comp[(mor[g], mor[f])]:
                failures.append(f"composition not preserved at ({g}, {f})")
                return ValidationReport(False, failures)
        return ValidationReport(not failures, failures)

    def then(self, other: "Functor") -> "Functor":
        """other o self (self applied first)."""
        if self.target != other.source:
            raise ValueError("functors not composable")
        return Functor(
            f"{other.name}.{self.name}", self.source, other.target,
            {x: other.obj_map[y] for x, y in self.obj_map.items()},
            {m: other.mor_map[n] for m, n in self.mor_map.items()},
        )


def identity_functor(C: FinCat) -> Functor:
    return Functor(f"Id_{C.name}", C, C,
                   {x: x for x in C.objects},
                   {m: m for m in C.morphism_ids})


class NatTransf:
    """Natural transformation F => G given by a component at every source
    object; naturality is checked by validate()."""

    def __init__(self, F: Functor, G: Functor, components):
        if F.source != G.source or F.target != G.target:
            raise ValueError("parallel functors required")
        self.F = F
        self.G = G
        self.components = dict(components)

    def at(self, x):
        return self.components[x]

    def validate(self) -> ValidationReport:
        failures = []
        C, D = self.F.source, self.F.target
        for x in C.objects:
            cx = self.components.get(x)
            if cx is None or D.dom.get(cx) != self.F.obj_map[x] or D.cod.get(cx) != self.G.obj_map[x]:
                failures.append(f"component at {x} has wrong endpoints")
                return ValidationReport(False, failures)
        for (f, x, y) in C.morphisms:
            lhs = D.compose(self.components[y], self.F.mor_map[f])
            rhs = D.compose(self.G.mor_map[f], self.components[x])
            if lhs != rhs:
                failures.append(f"naturality fails at {f}")
                return ValidationReport(False, failures)
        return ValidationReport(True, [])

    def is_iso(self) -> bool:
        D = self.F.target
        return all(D.is_iso(c) for c in self.components.values())

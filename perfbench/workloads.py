"""Seeded inputs, operations and verdict checks for the benchmark workloads.

A workload instance is built from a seed and holds a fresh list of
operations.  Each operation is a ``(key, thunk)`` pair; calling the thunk is
the timed call into modelbench.  The thunks look modelbench functions up in
this module's globals when they run, so the traced run can wrap them here.

Each verdict is checked right after its operation, outside the timing.
``verify(key, value)`` returns ``None`` for an operation that ended with a
verdict, a reason string for one that ended without a verdict (a budget ran
out), and raises ``WrongVerdict`` when the verdict disagrees with the answer
pinned in ``pins.json`` or with an independent route.  ``verify_pass()``
runs the checks that span several operations of the pass.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

from modelbench import catmodel
from modelbench.catmodel import (
    CatAmbient,
    cocylinder_pullback_check,
    cylinder_pushout_check,
    generating_cofibrations,
    ho_hom,
    naturally_isomorphic,
)
from modelbench.complexes import ChainMap, Complex, surj_quas_criteria
from modelbench.fincat import Functor, enumerate_functors, unit_category
from modelbench.fincat.corpus import a2_path_category, base_corpus, full_corpus
from modelbench.fincat.diagrams import colimit, colimit_presentation, coequalizer_diagram, saturate
from modelbench.lifting import ModelTriple, check_model_axioms, small_object_factorization
from modelbench.linalg import mat_mul, nullspace, transpose, zeros

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")) as _f:
    PINS = json.load(_f)

# The seed whose seeded answers (natural-iso count, surjective quasi-iso
# count) are pinned in pins.json.
DEFAULT_SEED = PINS["default_seed"]["seed"]


class WrongVerdict(Exception):
    """A verdict that disagrees with a pinned answer or a second route."""


def _expect(cond, message):
    if not cond:
        raise WrongVerdict(message)


def _head(seq, limit):
    return list(seq) if limit is None else list(seq)[:limit]


def functor_key(F):
    """Value of a functor within one known pair of categories."""
    return (tuple(sorted(F.obj_map.items())), tuple(sorted(F.mor_map.items())))


# -- axioms ---------------------------------------------------------------


def natural_triple():
    return ModelTriple(
        cof=lambda F: catmodel.classify(F).injection,
        we=lambda F: catmodel.classify(F).equivalence,
        fib=lambda F: catmodel.classify(F).isofibration,
        name="natural",
    )


def mc5_factorizations(F):
    cf = catmodel.functor_cylinder_factorization(F)
    ccf = catmodel.functor_cocylinder_factorization(F)
    return (cf.j, cf.p), (ccf.iota, ccf.q)


def _leading_count(detail):
    head = detail.split(" ", 1)[0]
    return int(head) if head.isdigit() else None


class Axioms:
    """check_model_axioms on the 21 two-category sub-corpora of CATS and on
    the whole 105-functor corpus; the seed shuffles each corpus."""

    name = "axioms"
    CATS = ["0", "1", "K0", "K1", "I", "K2", "PA2"]
    WARMUP = ("0+1",)

    def __init__(self, seed, limit=None):
        rng = random.Random(seed)
        cats = base_corpus()
        groups = [("+".join(p), p) for p in itertools.combinations(self.CATS, 2)]
        groups = _head(groups, limit) if limit is not None else groups + [("all", self.CATS)]
        triple = natural_triple()
        self.ops = []
        for key, names in groups:
            corpus = [F for a in names for b in names
                      for F in enumerate_functors(cats[a], cats[b])]
            rng.shuffle(corpus)
            self.ops.append((key, lambda c=corpus: check_model_axioms(
                CatAmbient(), triple, c, factorizations=mc5_factorizations)))

    def verify(self, key, report):
        got = {e.axiom: [e.status, _leading_count(e.detail)] for e in report.entries}
        _expect(got == PINS["axioms"][key], f"axiom report {got}")
        return None

    def verify_pass(self):
        pass


# -- homotopy -------------------------------------------------------------


class Homotopy:
    """ho_hom on all ordered pairs of full_corpus(), naturally_isomorphic on
    a seeded sample of parallel pairs, and the cylinder pushout / cocylinder
    pullback checks on the functors among UNIVERSAL_CATS."""

    name = "homotopy"
    SOURCES = ["1", "K0", "K1", "I", "PA2", "K2"]
    TARGETS = ["I", "K1", "K0xI", "1xI", "IxI", "K1xI"]
    NATISO_PAIRS = 300
    UNIVERSAL_CATS = ["0", "1", "K0", "K1", "I"]
    TEST_CATS = ["1", "K0", "I"]
    WARMUP = ("hohom:1>I", "pushout:1>I#0")

    def __init__(self, seed, limit=None):
        rng = random.Random(seed)
        self.seed, self.limited = seed, limit is not None
        cats = full_corpus()
        self.ops = []
        for a, b in _head(itertools.product(cats, cats), limit):
            self.ops.append((f"hohom:{a}>{b}",
                             lambda C=cats[a], D=cats[b]: ho_hom(C, D)))

        functors = {(s, t): enumerate_functors(cats[s], cats[t])
                    for s in self.SOURCES for t in self.TARGETS}
        self.natiso = {}
        self.found = {}             # natiso key -> verdict, filled by verify
        self.classes = {}           # "s>t" -> {functor value: ho_hom class index}
        for k, (pair, i, j) in enumerate(_head(self.sample(rng, functors), limit)):
            key = f"natiso:{k}"
            F, G = functors[pair][i], functors[pair][j]
            self.natiso[key] = (f"{pair[0]}>{pair[1]}", F, G)
            self.ops.append((key, lambda F=F, G=G: naturally_isomorphic(F, G)))

        tests = [cats[n] for n in self.TEST_CATS]
        universal = [(f"{a}>{b}#{i}", F)
                     for a in self.UNIVERSAL_CATS for b in self.UNIVERSAL_CATS
                     for i, F in enumerate(enumerate_functors(cats[a], cats[b]))]
        for label, F in _head(universal, limit):
            self.ops.append((f"pushout:{label}",
                             lambda F=F: cylinder_pushout_check(F, tests)))
            self.ops.append((f"pullback:{label}",
                             lambda F=F: cocylinder_pullback_check(F, tests)))

    def sample(self, rng, functors):
        """NATISO_PAIRS parallel pairs (F, G), stratified: every (source,
        target) pair gets the same share and the seed places the remainder.
        Pairs into IxI cost about ten times the others, so a plain uniform
        draw would make the pass time swing by 10-15% from seed to seed."""
        combos = list(functors)
        per, extra = divmod(self.NATISO_PAIRS, len(combos))
        counts = dict.fromkeys(combos, per)
        for c in rng.sample(combos, extra):
            counts[c] += 1
        out = [(c, rng.randrange(len(functors[c])), rng.randrange(len(functors[c])))
               for c in combos for _ in range(counts[c])]
        rng.shuffle(out)
        return out

    def verify(self, key, value):
        kind, label = key.split(":", 1)
        if kind == "hohom":
            got = [sum(len(c) for c in value), len(value)]
            _expect(got == PINS["hohom"][label], f"[functors, classes] = {got}")
            self.classes[label] = {functor_key(H): n for n, c in enumerate(value) for H in c}
        elif kind == "natiso":
            _, F, G = self.natiso[key]
            d = value
            self.found[key] = d.found
            _expect(d.agree, f"routes disagree: {d.routes}")
            if d.found:
                _expect(d.eta.F is F and d.eta.G is G, "eta is not F => G")
                _expect(d.eta.validate().ok and d.eta.is_iso(), "eta does not validate")
                _expect(d.H.validate().ok and d.H.target == F.target, "H does not validate")
                _expect(d.K.validate().ok and d.K.source == F.source, "K does not validate")
            else:
                _expect((d.eta, d.H, d.K) == (None, None, None), "witness on a 'no'")
        else:
            _expect(value.ok, f"{kind} check failed: {value.detail}")
            _expect(value.cocones_checked == PINS["universal"][key],
                    f"cocones_checked = {value.cocones_checked}")
        return None

    def verify_pass(self):
        """naturally_isomorphic must agree with the ho_hom classes computed in
        the same pass (a second route: natural_isos alone)."""
        for key, found in self.found.items():
            label, F, G = self.natiso[key]
            cls = self.classes.get(label)
            if cls is not None:
                same = cls[functor_key(F)] == cls[functor_key(G)]
                _expect(found == same,
                        f"{key}: naturally_isomorphic says {found}, ho_hom says {same}")
        if self.seed == DEFAULT_SEED and not self.limited and len(self.found) == len(self.natiso):
            found, pin = sum(self.found.values()), PINS["default_seed"]["natiso_found"]
            _expect(found == pin, f"{found} isomorphic pairs at the default seed, pinned {pin}")


# -- complexes ------------------------------------------------------------
# Random bounded chain maps: a port of the generator in the complexes tests.


def random_complex(rng, window=(-3, 3), max_dim=4):
    """Each d^{n+1} is drawn from the left annihilator of d^n, so d^2 = 0."""
    lo, hi = window
    dims = {n: rng.randrange(max_dim + 1) for n in range(lo, hi + 1)}
    d = {}
    prev = None
    for n in range(lo, hi):
        rows, cols = dims.get(n + 1, 0), dims.get(n, 0)
        if rows == 0 or cols == 0:
            prev = d[n] = zeros(rows, cols)
            continue
        if prev is None or not any(any(r) for r in prev):
            m = [[Fraction(rng.randrange(-2, 3)) for _ in range(cols)] for _ in range(rows)]
        else:
            ann = nullspace(transpose(prev))
            m = []
            for _ in range(rows):
                row = [Fraction(0)] * cols
                for v in ann:
                    c = Fraction(rng.randrange(-2, 3))
                    row = [x + c * y for x, y in zip(row, v)]
                m.append(row)
        prev = d[n] = m
    return Complex(window, dims, d)


def null_homotopic_map(rng, X, Y):
    """f = d_Y h + h d_X for a random degree -1 map h."""
    h = {n: [[Fraction(rng.randrange(-2, 3)) for _ in range(X.dim(n))]
             for _ in range(Y.dim(n - 1))] for n in X.degrees()}
    comps = {}
    for n in X.degrees():
        m = zeros(Y.dim(n), X.dim(n))
        if Y.dim(n - 1) and Y.dim(n) and X.dim(n):
            for i, row in enumerate(mat_mul(Y.diff(n - 1), h[n])):
                m[i] = [a + b for a, b in zip(m[i], row)]
        hn1 = h.get(n + 1, zeros(Y.dim(n), X.dim(n + 1)))
        if X.dim(n + 1) and Y.dim(n) and X.dim(n):
            for i, row in enumerate(mat_mul(hn1, X.diff(n))):
                m[i] = [a + b for a, b in zip(m[i], row)]
        comps[n] = m
    return ChainMap(X, Y, comps)


def projection_map(A, B):
    """A + B -> A."""
    dims = {n: A.dim(n) + B.dim(n) for n in A.degrees()}
    d = {}
    for n in range(A.lo, A.hi):
        m = zeros(dims.get(n + 1, 0), dims.get(n, 0))
        for i in range(A.dim(n + 1)):
            for j in range(A.dim(n)):
                m[i][j] = A.diff(n)[i][j]
        for i in range(B.dim(n + 1)):
            for j in range(B.dim(n)):
                m[A.dim(n + 1) + i][A.dim(n) + j] = B.diff(n)[i][j]
        d[n] = m
    S = Complex(A.window, dims, d)
    comps = {}
    for n in S.degrees():
        m = zeros(A.dim(n), S.dim(n))
        for i in range(A.dim(n)):
            m[i][i] = Fraction(1)
        comps[n] = m
    return ChainMap(S, A, comps)


def random_bounded_chain_map(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return null_homotopic_map(rng, random_complex(rng), random_complex(rng))
    A = random_complex(rng, max_dim=2)
    B = random_complex(rng, max_dim=2)
    p = projection_map(A, B)
    if kind == 1:
        return p
    h = null_homotopic_map(rng, p.source, A)
    comps = {n: [[a + b for a, b in zip(r1, r2)]
                 for r1, r2 in zip(p.component(n), h.component(n))]
             for n in p.source.degrees()}
    return ChainMap(p.source, A, comps)


class Complexes:
    """surj_quas_criteria on MAPS seeded random bounded chain maps."""

    name = "complexes"
    MAPS = 1000
    WARMUP = tuple(f"map:{k}" for k in range(10))

    def __init__(self, seed, limit=None):
        rng = random.Random(seed)
        self.seed, self.limited = seed, limit is not None
        self.ops = []
        for k in range(self.MAPS if limit is None else limit):
            f = random_bounded_chain_map(rng)
            ok, failures = f.validate()
            if not ok:
                raise RuntimeError(f"generated map {k} is not a chain map: {failures}")
            self.ops.append((f"map:{k}", lambda f=f: surj_quas_criteria(f)))
        self.verdicts = []          # c1 of each checked report

    def verify(self, key, report):
        _expect(report.all_equal(),
                f"criteria disagree: c1={report.c1} c2={report.c2} c3={report.c3}")
        self.verdicts.append(report.c1)
        return None

    def verify_pass(self):
        if self.seed == DEFAULT_SEED and not self.limited and len(self.verdicts) == len(self.ops):
            surj = sum(self.verdicts)
            pin = PINS["default_seed"]["surj_quas"]
            _expect(surj == pin, f"{surj} surjective quasi-isos at the default seed, pinned {pin}")


# -- cells ----------------------------------------------------------------


def point_of(C, obj):
    return Functor(f"pick_{obj}", unit_category(), C, {"*": obj}, {"id_*": C.identity[obj]})


class Cells:
    """small_object_factorization of every functor out of 0 and 1 into
    TARGETS, plus colimit and saturate on the Jordan coequalizer."""

    name = "cells"
    TARGETS = ["0", "1", "K0", "K1", "I"]
    CENSUS = range(2, 7)
    WARMUP = ("soa:0>K1#0", "census:2")

    def __init__(self, seed, limit=None):
        rng = random.Random(seed)
        cats = base_corpus()
        gens = generating_cofibrations()
        functors = [(f"soa:{a}>{b}#{i}", F) for a in ("0", "1") for b in self.TARGETS
                    for i, F in enumerate(enumerate_functors(cats[a], cats[b]))]
        self.functors = dict(functors)
        self.ops = [(key, lambda F=F: small_object_factorization(
            CatAmbient(), gens, F, max_stages=3)) for key, F in _head(functors, limit)]
        PA2 = a2_path_category()
        D = coequalizer_diagram(point_of(PA2, "1"), point_of(PA2, "2"))
        pres = colimit_presentation(D)
        self.ops.append(("colimit:jordan", lambda: colimit(D, max_len=6)))
        self.ops += [(f"census:{k}", lambda k=k: saturate(pres, fixed_len=k))
                     for k in self.CENSUS]
        rng.shuffle(self.ops)
        self.gens = gens

    def verify(self, key, value):
        kind, label = key.split(":", 1)
        if kind == "soa":
            pin = PINS["cells"][key]
            if isinstance(pin, list):
                got = [value.status, value.stages_used]
                _expect(got == pin, f"[status, stages_used] = {got}")
            else:
                # Raised at the pinned commit: check any answer on its own.
                a, F = CatAmbient(), self.functors[key]
                _expect(a.equal(a.compose(value.p, value.i), F), "p o i != F")
                if value.status == "factored":
                    _expect(a.in_generators_perp(self.gens, value.p).orthogonal,
                            "right leg not orthogonal to the generators")
            return None if value.status == "factored" else value.status
        if kind == "colimit":
            pres, result, _ = value
            _expect(len(pres.quiver.vertices) == 1, "Jordan colimit has more than one object")
            _expect(result.status == "possibly_infinite", f"Jordan colimit is {result.status}")
            return result.status
        k = int(label)
        _expect(value.status == "census" and value.class_count == k + 1,
                f"census at {k}: {value.status}, {value.class_count} classes")
        return None

    def verify_pass(self):
        pass


WORKLOADS = {w.name: w for w in (Axioms, Homotopy, Complexes, Cells)}

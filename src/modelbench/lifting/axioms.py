"""Finite-corpus verification of the model axioms MC1-MC5.

A corpus is a finite list of functors.  MC1-MC4 are checked exhaustively
over the corpus; MC5 through the supplied factorization constructors with
class membership re-verified.  The orthogonality description of
cofibrations is sampled against the corpus (a finite corpus can confirm
failures of Cof membership only when it happens to separate)."""

from __future__ import annotations

from ..fincat.core import Record, identity_functor
from .core import ModelTriple
from .search import find_retract


class AxiomReport(Record):
    __slots__ = ("axiom", "status", "detail", "counterexample")

    def __init__(self, axiom: str, status: str, detail: str = "",
                 counterexample: object = None):
        self.axiom = axiom
        self.status = status        # "ok" | "fail" | "sampled"
        self.detail = detail
        self.counterexample = counterexample

    @property
    def ok(self):
        return self.status in ("ok", "sampled")


class ModelAxiomReport(Record):
    __slots__ = ("entries",)

    def __init__(self):
        self.entries = []

    def add(self, *args, **kwargs):
        self.entries.append(AxiomReport(*args, **kwargs))

    @property
    def ok(self):
        return all(e.ok for e in self.entries)


def _classes(triple: ModelTriple):
    return [("Cof", triple.cof), ("We", triple.we), ("Fib", triple.fib)]


def check_model_axioms(a, triple: ModelTriple, corpus,
                       factorizations=None) -> ModelAxiomReport:
    """corpus: finite list of functors.  `factorizations(f)` returns
    ((i, p), (j, q)) realizing MC5 for f, or None to skip MC5 for f."""
    report = ModelAxiomReport()

    # MC1: identities and closure under composition
    objs = []
    for f in corpus:
        for ob in (f.source, f.target):
            if all(ob is not o for o in objs):
                objs.append(ob)
    bad = None
    for ob in objs:
        idm = identity_functor(ob)
        for cname, ctest in _classes(triple):
            if not ctest(idm):
                bad = (cname, ob)
                break
        if bad:
            break
    if bad:
        report.add("MC1-identities", "fail",
                   f"identity not in {bad[0]}", bad[1])
    else:
        report.add("MC1-identities", "ok", f"{len(objs)} objects")

    # The triple's predicates, asked once per corpus functor: one row of
    # (Cof, We, Fib) memberships per functor, in corpus order.
    classes = _classes(triple)
    rows = [tuple(ctest(f) for _, ctest in classes) for f in corpus]

    # One pass over the composable pairs builds each g o f once for both
    # MC1-composition and MC3 (two out of three for weak equivalences), and
    # keeps each axiom's first counterexample.  The ambient keeps one
    # instance per composite value, so each distinct g o f is classified
    # once.
    comp_fail = None
    two_of_three_fail = None
    pairs = 0
    for f, rf in zip(corpus, rows):
        for g, rg in zip(corpus, rows):
            if f.target is not g.source and f.target != g.source:
                continue
            gf = a.compose(g, f)
            pairs += 1
            if comp_fail is None:
                for (cname, ctest), in_f, in_g in zip(classes, rf, rg):
                    if in_f and in_g and not ctest(gf):
                        comp_fail = (cname, f, g)
                        break
            if (two_of_three_fail is None
                    and rf[1] + rg[1] + triple.we(gf) == 2):
                two_of_three_fail = (f, g)
            if comp_fail and two_of_three_fail:
                break
        if comp_fail and two_of_three_fail:
            break
    if comp_fail:
        report.add("MC1-composition", "fail",
                   f"{comp_fail[0]} not closed under composition",
                   (comp_fail[1], comp_fail[2]))
    else:
        report.add("MC1-composition", "ok", f"{pairs} composable pairs")

    # MC2: closure under retracts
    fail = None
    checked = 0
    for f, rf in zip(corpus, rows):
        for f2, rf2 in zip(corpus, rows):
            if f is f2:
                continue
            needed = [cname for (cname, _), in_f, in_f2 in zip(classes, rf, rf2)
                      if in_f2 and not in_f]
            if not needed:
                continue
            w = find_retract(a, f, f2)
            checked += 1
            if w is not None:
                fail = (needed[0], f, f2, w)
                break
        if fail:
            break
    if fail:
        report.add("MC2-retracts", "fail",
                   f"{fail[0]} not closed under retracts", (fail[1], fail[2]))
    else:
        report.add("MC2-retracts", "ok", f"{checked} candidate pairs searched")

    # MC3, decided in the composition pass above
    if two_of_three_fail:
        report.add("MC3-two-of-three", "fail", "exactly two of three in We",
                   two_of_three_fail)
    else:
        report.add("MC3-two-of-three", "ok")

    # MC4: lifting axiom on the corpus pairs (acyclic cofibration,
    # fibration) and (cofibration, acyclic fibration)
    fail = None
    tested = 0
    for f, (cof_f, we_f, _) in zip(corpus, rows):
        for g, (_, we_g, fib_g) in zip(corpus, rows):
            if not (cof_f and fib_g and (we_f or we_g)):
                continue
            res = a.orthogonal(f, g)
            tested += 1
            if not res.orthogonal:
                fail = (f, g, res.counterexample)
                break
        if fail:
            break
    if fail:
        report.add("MC4-lifting", "fail", "square without lift", fail)
    else:
        report.add("MC4-lifting", "ok", f"{tested} orthogonal pairs verified")

    # MC5: factorizations with class re-checks
    if factorizations is not None:
        fail = None
        done = 0
        for f in corpus:
            facts = factorizations(f)
            if facts is None:
                continue
            (i, p), (j, q) = facts
            done += 1
            if a.compose(p, i) != f or a.compose(q, j) != f:
                fail = (f, "composite mismatch")
                break
            if not (triple.cof(i) and triple.acyclic_fib(p)):
                fail = (f, "first factorization classes")
                break
            if not (triple.acyclic_cof(j) and triple.fib(q)):
                fail = (f, "second factorization classes")
                break
        if fail:
            report.add("MC5-factorization", "fail", fail[1], fail[0])
        else:
            report.add("MC5-factorization", "ok", f"{done} morphisms factored")
    else:
        report.add("MC5-factorization", "sampled", "no factorization constructor supplied")

    # Cof = perp(We cap Fib), sampled against the corpus
    acyclic_fibs = [g for g, (_, we, fib) in zip(corpus, rows) if fib and we]
    fail = None
    unseparated = 0
    for f, (cof_f, _, _) in zip(corpus, rows):
        ortho_all = all(a.orthogonal(f, g).orthogonal for g in acyclic_fibs)
        if cof_f and not ortho_all:
            fail = f
            break
        if ortho_all and not cof_f:
            unseparated += 1
    if fail is not None:
        report.add("Cof-orthogonality", "fail", "cofibration fails lifting", fail)
    else:
        status = "sampled" if unseparated else "ok"
        report.add("Cof-orthogonality", status,
                   f"{unseparated} non-cofibrations not separated by the corpus")
    return report

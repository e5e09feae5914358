"""Differential tests of the planned functor search and the composition-table
walks against the pairwise code they replaced.

`ref_enumerate` is the backtracking search that tried every candidate of a
level at every object leaf, kept with its node count: the planned
`enumerate_functors` must return the same functors (names, maps and order)
and run out of budget exactly when that count exceeds `NODE_BUDGET`.  The
pairwise `FinCat.validate`, `Functor.validate`, `product`,
`induced_category` and the four predicates that `classify` read are kept
here too, and compared with the walks over the composition table on the
corpus and on categories and functors with one entry changed."""

import random

import pytest

from modelbench.catmodel import classify, path_object
from modelbench.catmodel.factor import functor_cocylinder_factorization
from modelbench.catmodel.interval import _iso_triples
from modelbench.fincat import FinCat, Functor, GuardExceeded, enumerate_functors, enumfun
from modelbench.fincat.build import induced_category, induced_mor, product
from modelbench.fincat.core import ValidationReport, identity_functor
from modelbench.fincat.corpus import full_corpus
from test_catmodel import axioms_corpus
from test_fincat_core import automorphism_corpus
from test_properties import idempotent_category, retraction_category


# -- the pairwise references --------------------------------------------------

def ref_enumerate(C, D, fixed_obj=None, fixed_mor=None):
    """All functors C -> D and the number of search nodes the unplanned
    backtracking visits: one per object image tried and one per morphism
    image tried, every candidate of a level being tried."""
    idents = set(C.identity.values())
    free_mors = [m for m in C.morphism_ids if m not in idents]
    order_index = {m: i for i, m in enumerate(free_mors)}
    buckets = {}
    for (g, f), h in C.compose_table.items():
        if g in idents or f in idents:
            continue
        ready = max(order_index[g], order_index[f], order_index[h] if h not in idents else -1)
        buckets.setdefault(ready, []).append((g, f, h))
    fixed_obj = dict(fixed_obj or {})
    fixed_mor = dict(fixed_mor or {})
    results = []
    nodes = 0
    obj_list = list(C.objects)

    def check_bucket(p, obj_map, mor_map):
        for (g, f, h) in buckets.get(p, ()):
            expected = D.identity[obj_map[C.dom[h]]] if h in idents else mor_map[h]
            if D.compose(mor_map[g], mor_map[f]) != expected:
                return False
        return True

    def assign_mors(p, obj_map, mor_map):
        nonlocal nodes
        if p == len(free_mors):
            full_mor = dict(mor_map)
            for x in C.objects:
                full_mor[C.identity[x]] = D.identity[obj_map[x]]
            results.append(Functor(f"F{len(results)}", C, D, obj_map, full_mor))
            return
        m = free_mors[p]
        candidates = ([fixed_mor[m]] if m in fixed_mor
                      else D.hom(obj_map[C.dom[m]], obj_map[C.cod[m]]))
        for c in candidates:
            nodes += 1
            mor_map[m] = c
            if check_bucket(p, obj_map, mor_map):
                assign_mors(p + 1, obj_map, dict(mor_map))
            del mor_map[m]

    def assign_objs(k, obj_map):
        nonlocal nodes
        if k == len(obj_list):
            for m, v in fixed_mor.items():
                if m in idents:
                    if v != D.identity[obj_map[C.dom[m]]]:
                        return
                elif v not in D.hom(obj_map[C.dom[m]], obj_map[C.cod[m]]):
                    return
            assign_mors(0, dict(obj_map), {})
            return
        x = obj_list[k]
        for y in [fixed_obj[x]] if x in fixed_obj else D.objects:
            nodes += 1
            obj_map[x] = y
            assign_objs(k + 1, obj_map)
            del obj_map[x]

    assign_objs(0, {})
    return results, nodes


def ref_category_validate(C):
    """FinCat.validate over all pairs and triples of morphisms."""
    failures = []
    for x in C.objects:
        i = C.identity.get(x)
        if i is None or C.dom.get(i) != x or C.cod.get(i) != x:
            failures.append(f"identity of {x} missing or has wrong endpoints")
    for (m, d, c) in C.morphisms:
        if (C.compose_table.get((m, C.identity[d])) != m
                or C.compose_table.get((C.identity[c], m)) != m):
            failures.append(f"identity law fails at {m}")
            break
    for (f, fd, fc) in C.morphisms:
        for (g, gd, gc) in C.morphisms:
            if gd != fc:
                continue
            if (g, f) not in C.compose_table:
                failures.append(f"composition table misses ({g}, {f})")
                return ValidationReport(False, failures)
            gf = C.compose_table[(g, f)]
            if C.dom.get(gf) != fd or C.cod.get(gf) != gc:
                failures.append(f"composite {g} o {f} = {gf} has wrong endpoints")
                return ValidationReport(False, failures)
    if failures:
        return ValidationReport(False, failures)
    for (f, fd, fc) in C.morphisms:
        for (g, gd, gc) in C.morphisms:
            if gd != fc:
                continue
            for (h, hd, hc) in C.morphisms:
                if hd != gc:
                    continue
                if C.compose(h, C.compose(g, f)) != C.compose(C.compose(h, g), f):
                    failures.append(f"associativity fails at triple ({h}, {g}, {f})")
                    return ValidationReport(False, failures)
    return ValidationReport(True, [])


def ref_functor_validate_ok(F):
    """Functor.validate().ok over all composable pairs of morphisms."""
    C, D = F.source, F.target
    if any(F.obj_map.get(x) not in D.objects for x in C.objects):
        return False
    for (m, d, c) in C.morphisms:
        fm = F.mor_map.get(m)
        if fm is None or D.dom.get(fm) != F.obj_map[d] or D.cod.get(fm) != F.obj_map[c]:
            return False
    if any(F.mor_map[C.identity[x]] != D.identity[F.obj_map[x]] for x in C.objects):
        return False
    return all(F.mor_map[C.compose(g, f)] == D.compose(F.mor_map[g], F.mor_map[f])
               for (f, _, fc) in C.morphisms for (g, gd, _) in C.morphisms if gd == fc)


def ref_product(C, D):
    pair = lambda x, y: f"({x},{y})"
    objs = [pair(x, y) for x in C.objects for y in D.objects]
    mors = [(pair(f, g), pair(fd, gd), pair(fc, gc))
            for (f, fd, fc) in C.morphisms for (g, gd, gc) in D.morphisms]
    ident = {pair(x, y): pair(C.identity[x], D.identity[y])
             for x in C.objects for y in D.objects}
    comp = {}
    for (f1, _, f1c) in C.morphisms:
        for (f2, f2d, _) in C.morphisms:
            if f2d != f1c:
                continue
            for (g1, _, g1c) in D.morphisms:
                for (g2, g2d, _) in D.morphisms:
                    if g2d == g1c:
                        comp[(pair(f2, g2), pair(f1, g1))] = pair(C.compose(f2, f1),
                                                                  D.compose(g2, g1))
    return FinCat(f"{C.name}x{D.name}", objs, mors, ident, comp)


def ref_induced_category(name, objects, phi, E):
    objs = list(objects)
    base = {x: phi(x) for x in objs}
    mors, under = [], {}
    for x in objs:
        for y in objs:
            for d in E.hom(base[x], base[y]):
                m = induced_mor(x, y, d)
                mors.append((m, x, y))
                under[m] = d
    ident = {x: induced_mor(x, x, E.identity[base[x]]) for x in objs}
    comp = {}
    for (g, gd, gc) in mors:
        for (f, fd, fc) in mors:
            if fc == gd:
                comp[(g, f)] = induced_mor(fd, gc, E.compose(under[g], under[f]))
    return FinCat(name, objs, mors, ident, comp), under


def ref_flags(F):
    """The seven classification flags from the separate predicates."""
    C, D = F.source, F.target
    full = all(set(D.hom(F.obj_map[x], F.obj_map[y])) <= {F.mor_map[f] for f in C.hom(x, y)}
               for x in C.objects for y in C.objects)
    faithful = all(len({F.mor_map[f] for f in C.hom(x, y)}) == len(C.hom(x, y))
                   for x in C.objects for y in C.objects)
    image = [F.obj_map[x] for x in C.objects]
    dense = all(any(D.isomorphic_objects(i, y) for i in image) for y in D.objects)
    isofibration = all(
        any(C.is_iso(h) and F.mor_map[h] == g for c2 in C.objects for h in C.hom(c, c2))
        for c in C.objects for d in D.objects
        for g in D.hom(F.obj_map[c], d) if D.is_iso(g))
    return (len(set(image)) == len(image), full and faithful and dense, isofibration,
            full, faithful, dense, set(image) == set(D.objects))


# -- the corpus -----------------------------------------------------------------

FULL = full_corpus()
EXTRA = {**automorphism_corpus(), "E": idempotent_category(), "S": retraction_category()}
CATS = {**FULL, **EXTRA}
PAIRS = ([(s, t) for s in FULL for t in FULL]
         + [(s, t) for s in EXTRA for t in CATS] + [(s, t) for s in FULL for t in EXTRA])


def corpus_functors():
    return [F for s, t in PAIRS for F in enumerate_functors(CATS[s], CATS[t])]


def pin_cases(rng, C, D, functors):
    """Seeded pins on C -> D: the object and morphism images of a functor
    (so some functor meets them), and images drawn freely from D, which
    mostly sit in the wrong hom set or contradict each other."""
    cases = []
    for _ in range(3):
        if functors:
            F = rng.choice(functors)
            objs = rng.sample(C.objects, rng.randrange(len(C.objects) + 1))
            mors = rng.sample(C.morphism_ids, rng.randrange(len(C.morphism_ids) + 1))
            cases.append(({x: F.obj_map[x] for x in objs}, {m: F.mor_map[m] for m in mors}))
        if C.objects and D.objects:
            x, m = rng.choice(C.objects), rng.choice(C.morphism_ids)
            cases.append(({x: rng.choice(D.objects)}, {m: rng.choice(D.morphism_ids)}))
            cases.append(({}, {rng.choice(C.morphism_ids): rng.choice(D.morphism_ids)
                               for _ in range(2)}))
    return cases


def same_functors(got, want):
    return ([(F.name, F.source, F.target, F.obj_map, F.mor_map) for F in got]
            == [(F.name, F.source, F.target, F.obj_map, F.mor_map) for F in want])


def assert_same_search(monkeypatch, C, D, fixed_obj=None, fixed_mor=None):
    want, count = ref_enumerate(C, D, fixed_obj, fixed_mor)
    got = enumerate_functors(C, D, fixed_obj, fixed_mor)
    assert same_functors(got, want)
    assert [list(F.obj_map) for F in got] == [list(F.obj_map) for F in want]
    assert [list(F.mor_map) for F in got] == [list(F.mor_map) for F in want]
    if count:
        monkeypatch.setattr(enumfun, "NODE_BUDGET", count - 1)
        with pytest.raises(GuardExceeded):
            enumerate_functors(C, D, fixed_obj, fixed_mor)
        monkeypatch.setattr(enumfun, "NODE_BUDGET", count)
        assert same_functors(enumerate_functors(C, D, fixed_obj, fixed_mor), want)
        monkeypatch.undo()
    return len(want), count


# -- the planned search ------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 7])
def test_planned_search_matches_the_unplanned_one_with_its_node_count(monkeypatch, seed):
    rng = random.Random(seed)
    cases = 0
    pinned_results = 0
    for s, t in PAIRS:
        C, D = CATS[s], CATS[t]
        assert_same_search(monkeypatch, C, D)
        for fixed_obj, fixed_mor in pin_cases(rng, C, D, enumerate_functors(C, D)):
            pinned_results += assert_same_search(monkeypatch, C, D, fixed_obj, fixed_mor)[0]
            cases += 1
    assert cases > 2 * len(PAIRS) and pinned_results > 0


def test_planned_search_node_counts_on_the_homotopy_pairs():
    # the 256 ordered pairs of full_corpus() that ho_hom is asked about
    totals = [0, 0]
    for s in FULL:
        for t in FULL:
            results, nodes = ref_enumerate(FULL[s], FULL[t])
            totals[0] += len(results)
            totals[1] += nodes
    assert totals == [5022, 77451]


# -- the composition-table walks -----------------------------------------------------

def corruptions(C):
    """Copies of C with one composition-table entry changed to each other
    morphism, or dropped."""
    for key, h in C.compose_table.items():
        for other in [None] + [m for m in C.morphism_ids if m != h]:
            table = dict(C.compose_table)
            if other is None:
                del table[key]
            else:
                table[key] = other
            yield FinCat(C.name, C.objects, C.morphisms, C.identity, table)


def parallel_corruptions(C):
    """Copies of C with one composite swapped for a parallel morphism."""
    for key, h in C.compose_table.items():
        for other in C.hom(C.dom[h], C.cod[h]):
            if other != h:
                yield FinCat(C.name, C.objects, C.morphisms, C.identity,
                             {**C.compose_table, key: other})


def test_category_validate_walk_matches_the_pairwise_loops():
    checked = failed = 0
    for C in CATS.values():
        for bad in [C, *corruptions(C)]:
            want = ref_category_validate(bad)
            got = bad.validate()
            assert (got.ok, got.failures) == (want.ok, want.failures)
            checked += 1
            failed += not want.ok
    assert failed > 0 and checked > failed


def test_functor_validate_walk_matches_the_pairwise_loops():
    # every corpus functor, and up to three seeded copies of each with one
    # morphism image swapped for a parallel morphism
    rng = random.Random(3)
    checked = failed = 0
    for F in corpus_functors():
        C, D = F.source, F.target
        swaps = [(m, other) for m, n in F.mor_map.items()
                 for other in D.hom(D.dom[n], D.cod[n]) if other != n]
        changed = [F] + [Functor(F.name, C, D, F.obj_map, {**F.mor_map, m: other})
                         for m, other in rng.sample(swaps, min(3, len(swaps)))]
        for G in changed:
            ok = G.validate().ok
            assert ok == ref_functor_validate_ok(G)
            checked += 1
            failed += not ok
    # identity maps between a category and a copy with one composite
    # swapped for a parallel morphism
    for C in CATS.values():
        for bad in parallel_corruptions(C):
            for src, tgt in ((bad, C), (C, bad)):
                G = Functor("id", src, tgt, {x: x for x in C.objects},
                            {m: m for m in C.morphism_ids})
                ok = G.validate().ok
                assert ok == ref_functor_validate_ok(G)
                checked += 1
                failed += not ok
    assert failed > 0 and checked > failed


def test_product_walk_matches_the_pairwise_product():
    for C in FULL.values():
        for D in list(FULL.values())[:8] + list(EXTRA.values()):
            got, want = product(C, D), ref_product(C, D)
            assert got == want and got.morphisms == want.morphisms and got.name == want.name


def test_induced_category_walk_matches_the_pairwise_one():
    built = 0
    for F in axioms_corpus():
        C, D = F.source, F.target
        objs = [f"src/{x}" for x in C.objects] + [f"tgt/{y}" for y in D.objects]

        def lower(o):
            return F.obj_map[o[4:]] if o.startswith("src/") else o[4:]

        for args in (("cyl", objs, lower, D),
                     ("twice", [f"{y}#{k}" for y in D.objects for k in (0, 1)],
                      lambda o: o.rsplit("#", 1)[0], D),
                     ("fibres", C.objects, F.obj_map.get, D)):
            got, want = induced_category(*args), ref_induced_category(*args)
            assert got[0] == want[0] and got[0].morphisms == want[0].morphisms
            assert got[1] == want[1]
            built += 1
    assert built == 3 * 105


# -- classify in one pass ---------------------------------------------------------

def test_classify_flags_match_the_separate_predicates():
    checked = 0
    for F in corpus_functors():
        c = classify(F)
        assert (c.injection, c.equivalence, c.isofibration, c.full, c.faithful, c.dense,
                c.surjective_on_objects) == ref_flags(F), F
        checked += 1
    assert checked == 9513


# -- the identity's cocylinder is the kept path object ------------------------------

@pytest.mark.parametrize("name", list(FULL))
def test_identity_cocylinder_is_the_kept_path_object(name):
    D = FULL[name]
    Id = identity_functor(D)
    fac, path = functor_cocylinder_factorization(Id), path_object(D)
    assert fac.cprime is path.path_cat and fac.triple_data is path.triple_data
    assert (fac.iota, fac.pr1, fac.q) == (path.const, path.p0, path.p1)
    # equal by value, arrow names included, to the cocylinder built afresh
    cat, data, iota, pr1, q = _iso_triples(Id, "fresh")
    assert (cat, cat.morphisms, data) == (fac.cprime, fac.cprime.morphisms, fac.triple_data)
    assert (iota, pr1, q) == (fac.iota, fac.pr1, fac.q)
    assert classify(iota).acyclic_injection and classify(q).isofibration
    # functors out of another category get a cocylinder of their own
    for F in enumerate_functors(FULL["K1"] if name == "K0" else FULL["K0"], D):
        other = functor_cocylinder_factorization(F)
        assert other.cprime is not path.path_cat and other.iota.then(other.q) == F

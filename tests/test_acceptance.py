"""Acceptance suite: one test per headline guarantee, each printing a single
pass/fail line (run with -s to see them) and enforcing its runtime budget.
"""

import itertools
import time

import numpy as np
import pytest

from mvpolytopes import bz, lusztig, polytope, primes, rep, sln
from mvpolytopes.cartan import build_cartan, pairing
from mvpolytopes.weyl import weyl_group
from test_assembly_oracle import coweight_of, edge_pairs, edge_row
from test_sln import collapse_relations_hold
from test_weyl import braid_adjacency


def report(name, ok, detail):
    print(f"{name}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"{name}: {detail}"


def coweights_with_sum(group, bound):
    for coords in itertools.product(range(bound + 1), repeat=group.rank):
        if sum(coords) <= bound:
            yield group.cartan.coweight(coords)


def dominant_box(group, bound):
    for coords in itertools.product(range(bound + 1), repeat=group.rank):
        mu = group.cartan.coweight(coords)
        if mu.is_dominant():
            yield mu


def test_count_identity():
    t0 = time.perf_counter()
    checked = 0
    for family, rank in [("A", 2), ("B", 2), ("A", 3)]:
        g = weyl_group(build_cartan(family, rank))
        for mu in coweights_with_sum(g, 4):
            assert len(polytope.enumerate_mv(g, mu)) == g.kpf(mu), (family, mu.coords)
            checked += 1
    dt = time.perf_counter() - t0
    report(
        "count identity",
        dt < 30,
        f"A2/B2/A3 polytope counts equal kpf on {checked} coweights in {dt:.2f}s (budget 30s)",
    )


def test_braid_coherence():
    t0 = time.perf_counter()
    g = weyl_group(build_cartan("A", 3))
    ref = g.reference_word
    graph = g.braid_graph()
    adjacency = braid_adjacency(graph)
    rng = np.random.default_rng(7)
    edges = [e for word in graph.words for e in adjacency[word]]
    for _ in range(200):
        n = tuple(int(v) for v in rng.integers(0, 5, size=g.m))
        mu = coweight_of(g, ref, n).coords
        at = {word: lusztig.transport(g, ref, word, n) for word in graph.words}
        for e in edges:
            stepped = lusztig.braid_transition(g, e, at[e.src])
            # path independence: one step along any edge lands on the
            # transported value at the target word
            assert stepped == at[e.dst]
            back = next(
                b for b in adjacency[e.dst] if b.dst == e.src and b.k == e.k
            )
            assert lusztig.braid_transition(g, back, stepped) == at[e.src]
            assert coweight_of(g, e.dst, stepped).coords == mu
        bz.from_lusztig(g, ref, n)  # raises on any assembly inconsistency
    dt = time.perf_counter() - t0
    report(
        "braid coherence",
        True,
        f"200 random A3 Lusztig data: transitions path-independent, involutive, "
        f"coweight-preserving across {len(edges)} edges in {dt:.2f}s",
    )


def test_sl3_classification():
    t0 = time.perf_counter()
    g = weyl_group(build_cartan("A", 2))

    def width(datum, plus, minus):
        return -(datum.value(plus) + datum.value(minus))

    n_polytopes = 0
    for mu in coweights_with_sum(g, 5):
        for d in polytope.enumerate_mv(g, mu):
            mid = width(d, (-1, 1), (1, -1))
            first = width(d, (1, 0), (-1, 0))
            second = width(d, (0, 1), (0, -1))
            assert mid == max(first, second), (mu.coords, d.values)
            n_polytopes += 1

    # the three pseudo-Weyl completions of Lusztig datum (2, 1, 1)
    fixed = {(1, 0): 0, (0, 1): 0, (-1, 1): -2, (-1, 0): -3, (0, -1): -2}
    pseudo = []
    valid = []
    for x in range(-12, 12):
        d = bz.make_bz(g, {**fixed, (1, -1): x})
        rpt = bz.validate(g, d)
        if not rpt.edge_violations:
            pseudo.append(x)
            if rpt.is_valid:
                valid.append(x)
    assert len(pseudo) == 3, pseudo
    assert len(valid) == 1, valid
    assert bz.from_lusztig(g, (1, 2, 1), (2, 1, 1)).value((1, -1)) == valid[0]
    dt = time.perf_counter() - t0
    report(
        "sl3 classification",
        True,
        f"middle-width = max(other widths) on {n_polytopes} hexagons; "
        f"(2,1,1) family: 3 pseudo-Weyl completions, exactly 1 valid, in {dt:.2f}s",
    )


def test_b2_prime_catalog():
    t0 = time.perf_counter()
    g = weyl_group(build_cartan("B", 2))
    cat = primes.build_catalog(g)
    dt = time.perf_counter() - t0
    common = set(cat.clusters[0].labels)
    for c in cat.clusters[1:]:
        common &= set(c.labels)
    ok = (
        cat.n_choices == 9
        and cat.n_maximal == 4
        and sorted(len(c.labels) for c in cat.clusters) == [4, 4, 5, 5]
        and len(cat.primes) == 8
        and len(common) == 2
        and dt < 60
    )
    report(
        "B2 primes",
        ok,
        f"9 choices, 4 maximal, generator counts 4/4/5/5, 8 primes, "
        f"{len(common)} common to all clusters, in {dt:.2f}s (budget 60s)",
    )


def test_a3_prime_catalog():
    t0 = time.perf_counter()
    g = weyl_group(build_cartan("A", 3))
    cat = primes.build_catalog(g)
    dt = time.perf_counter() - t0
    sizes = sorted(len(c.labels) for c in cat.clusters)
    ok = (
        cat.n_choices == 256
        and cat.n_maximal == 13
        and sizes == [6] * 12 + [7]
        and len(cat.primes) == 12
        and dt < 900
    )
    report(
        "A3 primes",
        ok,
        f"256 choices, {cat.n_maximal} maximal, generator counts "
        f"{sizes}, {len(cat.primes)} primes, in {dt:.2f}s (budget 900s)",
    )


def test_multiplicity_triangle():
    t0 = time.perf_counter()
    checked = 0
    for family, rank, span in [("A", 2, 5), ("B", 2, 5), ("A", 3, 5)]:
        g = weyl_group(build_cartan(family, rank))
        for lam in dominant_box(g, 2):
            for coords in itertools.product(range(-span, span + 1), repeat=rank):
                mu = g.cartan.coweight(coords)
                m = rep.weight_mult_mv(g, lam, mu)
                assert m == rep.weight_mult_canonical(g, lam, mu), (family, lam, mu)
                assert m == rep.kostant_weight_mult(g, lam, mu), (family, lam, mu)
                checked += 1
    dt = time.perf_counter() - t0
    report(
        "multiplicity triangle",
        dt < 300,
        f"polytope = canonical-subset = alternating-sum on {checked} (lambda, mu) "
        f"pairs over A2/B2/A3 in {dt:.2f}s (budget 300s)",
    )


def test_tensor_multiplicities():
    t0 = time.perf_counter()
    checked = 0
    for family, rank in [("A", 2), ("B", 2)]:
        g = weyl_group(build_cartan(family, rank))
        doms = list(dominant_box(g, 2))
        for lam, mu, nu in itertools.product(doms, repeat=3):
            got = rep.tensor_mult_mv(g, lam, mu, nu)
            want = rep.steinberg_tensor_mult(g, lam, mu, nu)
            assert got == want, (family, lam.coords, mu.coords, nu.coords)
            checked += 1
    g = weyl_group(build_cartan("A", 2))
    theta = g.cartan.coweight((1, 1))
    spot = rep.tensor_mult_mv(g, theta, theta, theta)
    assert spot == 2
    dt = time.perf_counter() - t0
    report(
        "tensor multiplicities",
        True,
        f"polytope count = Steinberg on {checked} triples (A2, B2); "
        f"adjoint^3 contains adjoint twice; in {dt:.2f}s",
    )


def test_collapse_equivalence():
    t0 = time.perf_counter()
    g3 = weyl_group(build_cartan("A", 2))
    pairs3 = sln.all_pairs(3)
    count = 0
    for vals in itertools.product(range(4), repeat=3):
        picture = dict(zip(pairs3, vals))
        for k in (1, 2, 3):
            assert sln.collapse(3, k, picture) == sln.facet_lusztig(g3, k, picture)
            count += 1

    rng = np.random.default_rng(11)
    g4 = weyl_group(build_cartan("A", 3))
    pairs4 = sln.all_pairs(4)
    for _ in range(100):
        picture = {p: int(v) for p, v in zip(pairs4, rng.integers(0, 6, size=6))}
        d = bz.from_lusztig(g4, sln.ak_word(4), sln.picture_to_lusztig(4, picture))
        for k in range(1, 5):
            assert sln.collapse(4, k, picture) == sln.facet_lusztig(g4, k, picture)
            assert collapse_relations_hold(g4, d, k)
            count += 1

    g5 = weyl_group(build_cartan("A", 4))
    pairs5 = sln.all_pairs(5)
    for _ in range(100):
        picture = {p: int(v) for p, v in zip(pairs5, rng.integers(0, 5, size=10))}
        d = bz.from_lusztig(g5, sln.ak_word(5), sln.picture_to_lusztig(5, picture))
        for k in range(1, 6):
            assert sln.collapse(5, k, picture) == sln.facet_lusztig(g5, k, picture)
            assert collapse_relations_hold(g5, d, k)
            count += 1
    dt = time.perf_counter() - t0
    report(
        "collapse equivalence",
        True,
        f"collapse = facet Lusztig datum and interval min-relations on {count} "
        f"(picture, k) cases for n=3,4,5 in {dt:.2f}s",
    )


def _psi_matrices(group):
    """For each needed weight, the per-chamber coefficient rows over the
    value vector; evaluating min over rows is the support minimum."""
    chambers = group.chamber_weights()
    q = len(chambers)
    cws = [c.weight for c in chambers]
    targets = {w.coords: w for w in cws}
    for x, y in itertools.product(cws, repeat=2):
        z = x + y
        targets.setdefault(z.coords, z)
    mats = {}
    for coords, alpha in targets.items():
        rows = []
        for w in group.elements():
            coeffs = [
                pairing(group.w_coroot(w, i), alpha) for i in range(1, group.rank + 1)
            ]
            if any(c < 0 for c in coeffs):
                continue
            row = np.zeros(q, dtype=np.int64)
            for i, c in enumerate(coeffs, start=1):
                row[group.chamber_index(group.w_lambda(w, i).coords)] += c
            rows.append(row)
        mats[coords] = np.array(rows, dtype=np.int64)
    return mats


def test_concavity_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    for family in ("A", "B"):
        g = weyl_group(build_cartan(family, 2))
        chambers = g.chamber_weights()
        q = len(chambers)
        batch = rng.integers(-5, 1, size=(10_000, q))

        edge_rows = np.array(
            [edge_row(g, w, i) for w, i in edge_pairs(g)], dtype=np.int64
        )
        edges_ok = (edge_rows @ batch.T >= 0).all(axis=0)

        mats = _psi_matrices(g)
        psis = {
            coords: (mat @ batch.T).min(axis=0) for coords, mat in mats.items()
        }
        concave = np.ones(len(batch), dtype=bool)
        cws = [c.weight for c in chambers]
        for x, y in itertools.product(cws, repeat=2):
            z = (x + y).coords
            concave &= psis[x.coords] + psis[y.coords] <= psis[z]

        agree = bool((concave == edges_ok).all())
        n_ok = int(edges_ok.sum())
        assert 0 < n_ok < len(batch), "sample must contain both outcomes"
        assert agree, f"{family}2: concavity and edge checks disagree"
    dt = time.perf_counter() - t0
    report(
        "concavity equivalence",
        True,
        f"definitional support-concavity == edge-inequality check on 10^4 random "
        f"value maps in each of A2, B2 ({dt:.2f}s)",
    )


def test_minkowski_closure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    checked = 0
    for family in ("A", "B"):
        g = weyl_group(build_cartan(family, 2))
        cat = primes.build_catalog(g)
        done = 0
        while done < 250:
            cluster = cat.clusters[rng.integers(0, len(cat.clusters))]
            members = [primes.prime_by_label(cat, lbl).datum for lbl in cluster.labels]
            counts = rng.integers(0, 4, size=len(members))
            terms = [d for d, c in zip(members, counts) for _ in range(int(c))]
            if not terms:
                continue
            s = polytope.minkowski_sum(g, *terms)
            assert bz.is_valid(g, s), (family, cluster.choice, counts)
            done += 1
        checked += done

    g = weyl_group(build_cartan("A", 2))
    cat = primes.build_catalog(g)
    recovered = 0
    for mu in coweights_with_sum(g, 4):
        for d in polytope.enumerate_mv(g, mu):
            parts = primes.decompose(g, d, cat)
            total = np.zeros(len(d.values), dtype=np.int64)
            for p, c in parts:
                total += c * np.array(p.datum.values)
            assert tuple(int(v) for v in total) == d.values
            recovered += 1
    dt = time.perf_counter() - t0
    report(
        "minkowski closure",
        True,
        f"{checked} single-cluster prime combinations validate; decompose "
        f"round-trips {recovered} polytopes of coweight sum <= 4 in {dt:.2f}s",
    )

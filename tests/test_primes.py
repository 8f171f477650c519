import itertools

import pytest

from mvpolytopes import bz, polytope, primes


def test_a2_catalog_shape(a2):
    cat = primes.build_catalog(a2)
    assert cat.n_choices == 2
    assert cat.dims == (3, 3)
    assert cat.n_maximal == 2
    assert len(cat.primes) == 4
    assert [p.label for p in cat.primes] == ["P1", "P2", "P3", "P4"]
    cws = sorted(p.coweight for p in cat.primes)
    assert cws == [(0, 1), (1, 0), (1, 1), (1, 1)]


def test_a2_cluster_structure(a2):
    cat = primes.build_catalog(a2)
    label_sets = sorted(tuple(c.labels) for c in cat.clusters)
    assert label_sets == [("P1", "P3", "P4"), ("P2", "P3", "P4")]
    shared = set(cat.clusters[0].labels) & set(cat.clusters[1].labels)
    assert len(shared) == 2


def test_a2_primes_are_valid_and_indecomposable(a2):
    cat = primes.build_catalog(a2)
    for p in cat.primes:
        assert bz.is_valid(a2, p.datum)
        assert polytope.mu1(a2, p.datum).coords == (0, 0)


def test_catalog_is_cached(a2):
    assert primes.build_catalog(a2) is primes.build_catalog(a2)


def test_prime_by_label(a2):
    cat = primes.build_catalog(a2)
    assert primes.prime_by_label(cat, "P3").label == "P3"
    with pytest.raises(KeyError):
        primes.prime_by_label(cat, "P99")


def test_b2_catalog_counts(b2):
    cat = primes.build_catalog(b2)
    assert cat.n_choices == 9
    assert cat.n_maximal == 4
    assert sorted(len(c.labels) for c in cat.clusters) == [4, 4, 5, 5]
    assert len(cat.primes) == 8


def test_b2_common_primes_are_fundamental_weyl_polytopes(b2):
    cat = primes.build_catalog(b2)
    common = set(cat.clusters[0].labels)
    for c in cat.clusters[1:]:
        common &= set(c.labels)
    assert len(common) == 2
    cws = sorted(
        primes.prime_by_label(cat, lbl).coweight for lbl in sorted(common)
    )
    assert cws == [(2, 1), (2, 2)]
    # each is the hull of one Weyl orbit: w0 = -1 here, so the polytope is
    # conv(W . lam) - w0 lam with lam = top/2, i.e. vertices (w top + top)/2
    for lbl in common:
        p = primes.prime_by_label(cat, lbl)
        vs = {v.coords for v in polytope.vertices(b2, p.datum).values()}
        top = polytope.mu2(b2, p.datum)
        orbit = set()
        for w in b2.elements():
            moved = b2.apply_coweight(w, top).coords
            assert all((a + b) % 2 == 0 for a, b in zip(moved, top.coords))
            orbit.add(tuple((a + b) // 2 for a, b in zip(moved, top.coords)))
        assert vs == orbit


def test_all_cluster_sums_validate_a2(a2):
    cat = primes.build_catalog(a2)
    for cluster in cat.clusters:
        members = [primes.prime_by_label(cat, lbl).datum for lbl in cluster.labels]
        for counts in itertools.product(range(3), repeat=len(members)):
            terms = [d for d, c in zip(members, counts) for _ in range(c)]
            if not terms:
                continue
            s = polytope.minkowski_sum(a2, *terms)
            assert bz.is_valid(a2, s)


def test_decompose_round_trip_a2(a2):
    cat = primes.build_catalog(a2)
    for coords in itertools.product(range(4), repeat=2):
        mu = a2.cartan.coweight(coords)
        for d in polytope.enumerate_mv(a2, mu):
            parts = primes.decompose(a2, d, cat)
            total = [0] * len(d.values)
            for p, c in parts:
                total = [a + c * b for a, b in zip(total, p.datum.values)]
            assert tuple(total) == d.values


def test_decompose_identifies_primes(a2):
    cat = primes.build_catalog(a2)
    for p in cat.primes:
        parts = primes.decompose(a2, p.datum, cat)
        assert len(parts) == 1
        assert parts[0][0].label == p.label and parts[0][1] == 1


def test_decompose_rejects_unnormalized_and_invalid(a2):
    d = bz.from_lusztig(a2, (1, 2, 1), (1, 1, 1))
    shifted = polytope.translate(a2, d, a2.cartan.coweight((1, 0)))
    with pytest.raises(ValueError):
        primes.decompose(a2, shifted)
    bad = bz.make_bz(
        a2,
        {(1, 0): 0, (0, 1): 0, (-1, 1): -2, (-1, 0): -3, (0, -1): -2, (1, -1): 0},
    )
    with pytest.raises(ValueError):
        primes.decompose(a2, bad)


def test_relations_recorded(b2):
    cat = primes.build_catalog(b2)
    assert len(cat.relations) == 2  # one octagon face, two tropical equations
    kinds = {r.face.kind for r in cat.relations}
    assert kinds == {"octagon"}


def test_choice_guard(b3):
    with pytest.raises(ValueError, match="limit"):
        primes.build_catalog(b3)

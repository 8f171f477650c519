import dataclasses
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpolytopes import bz, polytope, primes
from mvpolytopes.cartan import build_cartan
from mvpolytopes.cli import main
from mvpolytopes.cones import exact_dtype
from mvpolytopes.weyl import WeylGroup, weyl_group
from test_cone_oracle import choice_rows, value_relations


def test_a2_catalog_shape(a2):
    cat = primes.build_catalog(a2)
    assert cat.n_choices == 2
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


def test_choice_guard(monkeypatch):
    """D4, B4 and C4 have more than MAX_M positive roots: refused before
    the index table, let alone the walk."""

    def refused(group):
        raise AssertionError("the guard let the build start")

    monkeypatch.setattr(primes, "index_table", refused)
    for family, rank, m in [("D", 4, 12), ("B", 4, 16), ("C", 4, 16)]:
        group = WeylGroup(build_cartan(family, rank))
        with pytest.raises(ValueError, match=f"{m} positive roots, above the prime catalog limit"):
            primes.build_catalog(group)
        assert group._catalog is None


def test_cli_refuses_a_catalog_above_the_limit(capsys):
    assert main(["primes", "D", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: D4 has 12 positive roots, above the prime catalog limit of 10\n"
    )


@pytest.mark.parametrize("family", ["C", "A"])
def test_decompose_rejects_a_catalog_of_another_cartan_datum(b2, family):
    group = weyl_group(build_cartan(family, 2))
    datum = polytope.normalize(group, bz.from_lusztig(group, group.reference_word, (1,) * group.m))
    with pytest.raises(ValueError, match="catalog belongs to a different Cartan datum"):
        primes.decompose(group, datum, primes.build_catalog(b2))


def test_decompose_accepts_a_catalog_of_an_equal_cartan_datum(b2):
    fresh = primes.build_catalog(WeylGroup(b2.cartan))
    for p in fresh.primes:
        assert primes.decompose(b2, p.datum, fresh) == ((p, 1),)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_zero_polytope_sums_back_from_no_primes(family, rank):
    group = weyl_group(build_cartan(family, rank))
    zero = bz.from_lusztig(group, group.reference_word, (0,) * group.m)
    assert zero.values == (0,) * len(group.chamber_weights())
    parts = primes.decompose(group, zero)
    assert parts == ()
    assert polytope.minkowski_sum(group, *(polytope.scale(group, p.datum, c) for p, c in parts)) == zero


# Builds the A3 and B2 catalogs on fresh groups and pickles them ("dump"), or
# loads them ("load"); either way prints the decompositions of fixed data
# against them as JSON.
PICKLE_SCRIPT = """
import json, pickle, sys
from mvpolytopes import bz, polytope, primes
from mvpolytopes.cartan import build_cartan
from mvpolytopes.weyl import WeylGroup, weyl_group

KEYS = [("A", 3), ("B", 2)]
mode, path = sys.argv[1:]
if mode == "dump":
    catalogs = [primes.build_catalog(WeylGroup(build_cartan(*key))) for key in KEYS]
    with open(path, "wb") as f:
        pickle.dump(catalogs, f)
else:
    with open(path, "rb") as f:
        catalogs = pickle.load(f)
out = []
for key, catalog in zip(KEYS, catalogs):
    g = weyl_group(build_cartan(*key))
    for k in range(12):
        n = tuple((5 * k + 3 * j) % 4 for j in range(g.m))
        datum = polytope.normalize(g, bz.from_lusztig(g, g.reference_word, n))
        out.append([(p.label, c) for p, c in primes.decompose(g, datum, catalog)])
print(json.dumps(out))
"""


def test_pickled_catalog_decomposes_alike_under_another_hash_seed(tmp_path):
    """str hashes differ between the two interpreters, so a Cartan datum's
    hash kept through the pickle would not match the loading side's."""
    src = str(Path(primes.__file__).resolve().parents[1])
    path = str(tmp_path / "catalogs.pickle")
    outputs = []
    for mode, seed in [("dump", "1"), ("load", "2")]:
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", PICKLE_SCRIPT, mode, path],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        outputs.append(json.loads(run.stdout))
    assert outputs[0] == outputs[1]
    assert sum(map(len, outputs[0])) > 12  # the data decompose into several primes


@pytest.fixture(scope="session")
def fresh_catalogs():
    """Catalogs built on fresh groups, apart from the shared groups' memos."""
    return {
        key: primes.build_catalog(WeylGroup(build_cartan(*key)))
        for key in [("A", 2), ("B", 2), ("A", 3)]
    }


@st.composite
def lusztig_queries(draw):
    key = draw(st.sampled_from([("A", 2), ("B", 2), ("A", 3)]))
    group = weyl_group(build_cartan(*key))
    unit = draw(st.sampled_from([1, 1 << 70]))
    return key, group, tuple(unit * v for v in draw(st.tuples(*[st.integers(0, 6)] * group.m)))


@settings(max_examples=60, deadline=None)
@given(lusztig_queries())
def test_decompose_sums_back_on_shared_and_fresh_catalogs(fresh_catalogs, query):
    key, group, n = query
    datum = polytope.normalize(group, bz.from_lusztig(group, group.reference_word, n))
    parts = primes.decompose(group, datum)
    total = polytope.minkowski_sum(group, *(polytope.scale(group, p.datum, c) for p, c in parts))
    assert total == datum
    assert primes.decompose(group, datum, fresh_catalogs[key]) == parts


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("A", 3), ("D", 3)])
def test_chart_rows_are_sorted_distinct_and_primitive(family, rank):
    for c in primes.build_catalog(weyl_group(build_cartan(family, rank))).clusters:
        assert list(c.ineq_rows_n) == sorted(set(c.ineq_rows_n))
        assert all(any(row) and np.gcd.reduce(np.abs(row)) == 1 for row in c.ineq_rows_n)


def _value_space_cluster(group, catalog, values):
    """The first cluster whose value-space rows admit the values: the scan
    decompose ran before the cones were kept in the Lusztig chart."""
    relations = value_relations(group)
    for t, c in enumerate(catalog.clusters):
        eq, ineq = choice_rows(group, relations, c.choice)
        if all(np.dot(e, values) == 0 for e in eq) and all(np.dot(s, values) >= 0 for s in ineq):
            return t
    return None


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("A", 3), ("D", 3)])
def test_chart_lookup_matches_value_space_scan(family, rank):
    group = weyl_group(build_cartan(family, rank))
    cat = primes.build_catalog(group)
    rng = np.random.default_rng(20261018)
    for _ in range(60):
        n = tuple(int(v) for v in rng.integers(0, 4, group.m))
        datum = polytope.normalize(group, bz.from_lusztig(group, group.reference_word, n))
        want = _value_space_cluster(group, cat, datum.values)
        assert want is not None
        # every other cluster loses its generators, so a search in any of them
        # fails on a nonzero datum
        hollow = dataclasses.replace(cat, clusters=tuple(
            c if t == want else dataclasses.replace(c, labels=(), gens_n=())
            for t, c in enumerate(cat.clusters)
        ))
        assert primes.decompose(group, datum, hollow) == primes.decompose(group, datum, cat)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2)])
def test_decompose_errors_name_the_lusztig_data_and_the_cluster(family, rank):
    group = weyl_group(build_cartan(family, rank))
    cat = primes.build_catalog(group)
    n = (1, 2, 3, 1, 2, 3)[: group.m]
    datum = polytope.normalize(group, bz.from_lusztig(group, group.reference_word, n))
    where = re.escape(f"Lusztig data {n} along the reference word {group.reference_word}")
    choice = next(
        c.choice for c in cat.clusters if all(np.dot(row, n) >= 0 for row in c.ineq_rows_n)
    )
    in_cluster = where + re.escape(f", in the cluster of choice {choice}")
    with pytest.raises(RuntimeError, match="^no maximal cone contains the datum with " + where):
        primes.decompose(group, datum, dataclasses.replace(cat, clusters=()))
    hollow = dataclasses.replace(cat, clusters=tuple(
        dataclasses.replace(c, labels=(), gens_n=()) for c in cat.clusters
    ))
    with pytest.raises(
        RuntimeError, match="^Hilbert generators failed to reach the datum with " + in_cluster
    ):
        primes.decompose(group, datum, hollow)
    mislabeled = dataclasses.replace(cat, clusters=tuple(
        dataclasses.replace(c, labels=c.labels[::-1]) for c in cat.clusters
    ))
    with pytest.raises(
        RuntimeError, match=r"^prime multiples .* sum to .*, not to the datum .* with " + in_cluster
    ):
        primes.decompose(group, datum, mislabeled)


@pytest.mark.parametrize("family,rank", [("B", 2), ("A", 3)])
def test_admitting_is_exact_at_the_int64_bound(family, rank):
    """Data that fill a chart row with b where its coefficient is positive and
    0 elsewhere, so they stay nonnegative, for b on both sides of the int64
    bound of the product, at a row value of 2**63, and past int64."""
    cat = primes.build_catalog(weyl_group(build_cartan(family, rank)))
    rows = cat._rows.tolist()
    assert cat._norm == max(sum(map(abs, row)) for row in rows)
    top = max(sum(c for c in row if c > 0) for row in rows)
    bounds = [((1 << 62) - 1) // cat._norm, -(-(1 << 62) // cat._norm), -(-(1 << 63) // top)]
    # the first two bounds sit just under and just over the int64 limit of
    # decompose's single-datum lookup
    assert [exact_dtype(b, cat._norm) for b in bounds[:2]] == [np.int64, object]
    for b in [*bounds, 1 << 70]:
        ns = [tuple(b if c > 0 else 0 for c in row) for row in rows]
        want = [
            [all(sum(map(mul, r, n)) >= 0 for r in c.ineq_rows_n) for n in ns]
            for c in cat.clusters
        ]
        assert [primes._admitting(cat, n).tolist() for n in ns] == [*map(list, zip(*want))]
        # the same on Python ints, which _admitting uses past the bound
        on_objects = np.minimum.reduceat(
            cat._rows.astype(object) @ np.array(ns, dtype=object).T, cat._starts, axis=0
        ) >= 0
        assert on_objects.tolist() == want
        for j, n in enumerate(ns):
            first = next((c for c, admits in zip(cat.clusters, on_objects[:, j]) if admits), None)
            got = primes._cluster_of(cat, n)
            assert got is first
            if first is not None:
                assert got._solver.solve(n) == first._solver.solve(n)


def test_derived_lookup_and_solve_data_follow_replace(b2):
    cat = primes.build_catalog(b2)
    wide = next(c for c in cat.clusters if len(c.gens_n) > b2.m)
    narrow = dataclasses.replace(wide, labels=wide.labels[1:], gens_n=wide.gens_n[1:])
    assert narrow._solver.free == () and wide._solver.free == wide.gens_n[:1]
    single = dataclasses.replace(cat, clusters=(narrow,))
    assert single._rows.tolist() == [list(row) for row in narrow.ineq_rows_n]
    with pytest.raises(ValueError):
        dataclasses.replace(wide, _solver=narrow._solver)
    with pytest.raises(ValueError):
        dataclasses.replace(cat, _rows=single._rows)


PRIMES_SHA256 = {
    ("A", 1): "b445db4130d7f01b3e9778a47bd37849da510ac3166f269a3a05e345582f0729",
    ("A", 2): "a78efc51d351e630d06e1f0face6c4d9c7df7f1769e16df748f68f0f4ef380ed",
    ("B", 2): "8a732f3e89c30b2883efded058bc8c426e7ff22c621d58c1f282515c8fc91cc8",
    ("C", 2): "c1d0a7d49b278e390a4167b316f7771a356821869e9b2db73744da34eaf4631c",
    ("A", 3): "cda7301e978e615895a8a975d8ccfea5f3872581aeee5933fb632718b8dfeef4",
    ("D", 3): "ed6ac473bb01d216e751d646963a37b0afc4ec3de4629b2180db708d4fcf874d",
    ("B", 3): "b893b3166eaee0d8348e640fb235a0d9994988575cda4ff09a788753eb941766",
    ("C", 3): "1cdf01c302e7395f8a7a8c28ee2d032c3c6e30047dbf0a136f21a3c193a70f20",
    ("A", 4): "ab73e03fa619d6c9d20f3309764204899465d48109442f8fa67b370924fd0d45",
}


@pytest.mark.parametrize("family,rank", sorted(PRIMES_SHA256))
def test_primes_output_is_frozen(family, rank, capsys):
    assert main(["primes", family, str(rank)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PRIMES_SHA256[family, rank]

import dataclasses
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpolytopes import bz, polytope, primes
from mvpolytopes.cartan import build_cartan
from mvpolytopes.cli import main
from mvpolytopes.cones import exact_dtype
from mvpolytopes.tables import check_sums, index_table
from mvpolytopes.weyl import WeylGroup, weyl_group
from test_cone_oracle import admitting, choice_rows, cluster_of, stack_of, value_relations


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


def test_decompose_runs_one_check_sum_product_and_keeps_the_report(b2, monkeypatch):
    """A fresh datum is validated and located from one product, and keeps the
    report validate would have made; a validated one is not validated again."""
    cat = primes.build_catalog(b2)
    made = bz.from_lusztig(b2, b2.reference_word, (1, 0, 2, 1))
    products = []

    def counted(table, M):
        products.append(M)
        return check_sums(table, M)

    monkeypatch.setattr(primes, "check_sums", counted)
    monkeypatch.setattr(bz, "check_sums", counted)
    fresh = bz.BZDatum(b2.cartan, polytope.normalize(b2, made).values)
    parts = primes.decompose(b2, fresh, cat)
    assert len(products) == 1 and fresh._report is bz.validate(b2, fresh)
    assert fresh._report.is_valid and len(products) == 1
    assert primes.decompose(b2, fresh, cat) == parts and len(products) == 2
    values = list(fresh.values)
    values[-1] += 1
    bad, again = (bz.BZDatum(b2.cartan, tuple(values)) for _ in range(2))
    with pytest.raises(ValueError, match="cannot decompose invalid data"):
        primes.decompose(b2, bad, cat)
    assert len(products) == 3 and not bad._report.is_valid
    assert bad._report == bz.validate(b2, again) and len(products) == 4


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


@st.composite
def cluster_multiples(draw):
    """A group among A2, B2, A3 and D3, one of its clusters, and a multiple in
    0..3 of each of the cluster's primes."""
    key = draw(st.sampled_from([("A", 2), ("B", 2), ("A", 3), ("D", 3)]))
    group = weyl_group(build_cartan(*key))
    cluster = draw(st.sampled_from(primes.build_catalog(group).clusters))
    return group, cluster, draw(st.tuples(*[st.integers(0, 3)] * len(cluster.labels)))


@settings(max_examples=150, deadline=None)
@given(cluster_multiples())
def test_minkowski_sums_within_one_cluster_stay_valid(query):
    """A sum of multiples of one cluster's primes is valid and decomposes back
    to itself.  Its Lusztig data along the reference word are the same
    multiples of the cluster's ``gens_n``, and the program, linear on the
    cone, assembles them to the sum."""
    group, cluster, counts = query
    catalog = primes.build_catalog(group)
    total = polytope.minkowski_sum(
        group,
        *(
            polytope.scale(group, primes.prime_by_label(catalog, label).datum, c)
            for label, c in zip(cluster.labels, counts)
        ),
    )
    assert bz.is_valid(group, total)
    n = tuple(sum(c * g[k] for c, g in zip(counts, cluster.gens_n)) for k in range(group.m))
    assert bz.lusztig_data(group, total, group.reference_word) == n
    assert index_table(group).assemble(n) == total.values
    parts = primes.decompose(group, total, catalog)
    back = polytope.minkowski_sum(group, *(polytope.scale(group, p.datum, c) for p, c in parts))
    assert back == total


def test_walk_refuses_check_rows_past_the_int64_bound(a2):
    """A cone's chart rows are the check rows at its back map, in int64; where
    ``exact_dtype`` refuses int64 for that product, the walk raises."""
    table, catalog = index_table(a2), primes.build_catalog(a2)
    cluster, chosen = catalog.clusters[0], table.n_edges + catalog._chosen[0]
    edge, pins = table.program.columns[: a2.m, 0], table.chamber_array[0]
    point = tuple(map(sum, zip(*cluster.gens_n)))  # inside the cone
    assert primes._cone(table, edge, pins, chosen, point).rows == cluster.ineq_rows_n
    wide = dataclasses.replace(table, check_norm=1 << 62)
    with pytest.raises(OverflowError, match=r"reaches 2\*\*62"):
        primes._cone(wide, edge, pins, chosen, point)


def test_walk_refuses_a_cone_with_an_implicit_equality(monkeypatch):
    """Chart rows n1 - n2 >= 0 and n2 - n1 >= 0 vanish on every ray of the
    cone they cut, so its rays span fewer than m dimensions."""
    cone = primes._cone

    def flattened(*args):
        found = cone(*args)
        return found._replace(rows=tuple(sorted({*found.rows, (1, -1, 0), (-1, 1, 0)})))

    monkeypatch.setattr(primes, "_cone", flattened)
    with pytest.raises(RuntimeError, match=r"^choice \(.*\): the rays .* span less than 3 dimensions$"):
        primes.build_catalog(WeylGroup(build_cartan("A", 2)))


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
    """decompose's lookup against the stacked oracle on data whose Lusztig
    data fill a chart row with b where its coefficient is positive and 0
    elsewhere, so they stay nonnegative, for b just under and just over the
    int64 bound of the check sums, at a chart row value of 2**63, and past
    int64."""
    group = weyl_group(build_cartan(family, rank))
    table = index_table(group)
    cat = primes.build_catalog(group)
    stack = stack_of(cat)
    rows = stack.rows.tolist()
    top = max(sum(c for c in row if c > 0) for row in rows)
    for pattern in sorted({tuple(int(c > 0) for c in row) for row in rows}):
        # assembly is positively homogeneous, so the values of b * pattern
        # reach b * peak in absolute value
        peak = max(map(abs, table.assemble(pattern)))
        limit = peak * table.check_norm
        bounds = [((1 << 62) - 1) // limit, -(-(1 << 62) // limit), -(-(1 << 63) // top)]
        assert [exact_dtype(b * peak, table.check_norm) for b in bounds[:2]] == [
            np.int64,
            object,
        ]
        for b in [*bounds, 1 << 70]:
            n = tuple(b * v for v in pattern)
            M = table.assemble(n)
            assert max(map(abs, M)) == b * peak
            want = cluster_of(cat, stack, n)
            # the oracle on Python ints, which it switches to past its own bound
            on_objects = np.minimum.reduceat(
                stack.rows.astype(object) @ np.array(n, dtype=object), stack.starts
            ) >= 0
            assert admitting(stack, n).tolist() == on_objects.tolist()
            assert want is next(c for c, a in zip(cat.clusters, on_objects) if a)
            t = cat.clusters.index(want)
            assert primes._locate(group, table, cat, check_sums(table, M)) == (n, t)
            parts = primes.decompose(group, bz.BZDatum(group.cartan, M), cat)
            assert {p.label for p, _ in parts} <= set(want.labels)


def test_derived_lookup_and_solve_data_follow_replace(b2):
    cat = primes.build_catalog(b2)
    wide = next(c for c in cat.clusters if len(c.gens_n) > b2.m)
    narrow = dataclasses.replace(wide, labels=wide.labels[1:], gens_n=wide.gens_n[1:])
    assert narrow._solver.free == () and wide._solver.free == wide.gens_n[:1]
    assert narrow._solver.tail and wide._solver.tail
    # the last m generators repeat one: no tail, and the chart rows bound the search
    repeated = dataclasses.replace(wide, gens_n=wide.gens_n[1:-1] + wide.gens_n[:1] * 2)
    assert not repeated._solver.tail and repeated._solver.free == repeated.gens_n
    assert repeated._solver.rows == list(wide.ineq_rows_n)
    unpruned = dataclasses.replace(repeated, ineq_rows_n=())
    assert unpruned._solver.rows == [] and unpruned._solver.steps == [[]] * len(wide.gens_n)
    single = dataclasses.replace(cat, clusters=(narrow,))
    R = len(cat.relations)
    assert single._chosen.tolist() == [[k * R + r for r, k in enumerate(narrow.choice)]]
    # the generator-value matrices follow the clusters' labels
    for c in (cat, single):
        assert len(c._gen_values) == len(c._gen_norms) == len(c.clusters)
        for cluster, values, norm in zip(c.clusters, c._gen_values, c._gen_norms):
            want = [cat._by_label[label].datum.values for label in cluster.labels]
            assert values.dtype == np.int64 and not values.flags.writeable
            assert values.tolist() == list(map(list, want))
            assert norm == max(sum(abs(row[j]) for row in want) for j in range(len(want[0])))
    assert single._gen_values[0].tolist() == cat._gen_values[cat.clusters.index(wide)][1:].tolist()
    with pytest.raises(ValueError):
        dataclasses.replace(wide, _solver=narrow._solver)
    with pytest.raises(ValueError):
        dataclasses.replace(cat, _chosen=single._chosen)
    with pytest.raises(ValueError):
        dataclasses.replace(cat, _gen_values=single._gen_values)


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


def _diagram_automorphisms(cartan):
    """The permutations p of the simple roots, other than the identity, with
    a[p i][p j] = a[i][j] for the Cartan matrix a."""
    r = cartan.rank
    return [
        p
        for p in itertools.permutations(range(r))
        if p != tuple(range(r))
        and all(cartan.a[p[i]][p[j]] == cartan.a[i][j] for i in range(r) for j in range(r))
    ]


@pytest.mark.parametrize(
    "family,rank,n_sigma",
    [("A", 2, 1), ("B", 2, 0), ("C", 2, 0), ("A", 3, 1), ("D", 3, 1), ("B", 3, 0), ("C", 3, 0), ("A", 4, 1)],
)
def test_catalog_is_closed_under_its_symmetries(family, rank, n_sigma):
    """Kashiwara's involution P -> -P, normalized, and the gather M_gamma ->
    M_{sigma gamma} of each diagram automorphism sigma preserve MV polytopes
    and Minkowski sums, so each maps every prime to a prime and permutes the
    clusters' label sets."""
    group = weyl_group(build_cartan(family, rank))
    cat = primes.build_catalog(group)
    label_of = {p.datum.values: p.label for p in cat.primes}
    maps = [lambda d: polytope.normalize(group, polytope.negate(group, d)).values]
    coords = [c.weight.coords for c in group.chamber_weights()]
    sigmas = _diagram_automorphisms(group.cartan)
    assert len(sigmas) == n_sigma
    for p in sigmas:
        # sigma sends the fundamental weight Lambda_i to Lambda_{p i}
        at = [group.chamber_index(tuple(c[p.index(j)] for j in range(rank))) for c in coords]
        maps.append(lambda d, at=at: tuple(d.values[y] for y in at))
    clusters = sorted(sorted(c.labels) for c in cat.clusters)
    for image in maps:
        image_of = {p.label: label_of.get(image(p.datum)) for p in cat.primes}
        assert sorted(image_of.values(), key=str) == sorted(label_of.values())
        assert sorted(sorted(image_of[lbl] for lbl in c.labels) for c in cat.clusters) == clusters

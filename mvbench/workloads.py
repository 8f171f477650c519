"""The benchmark's three workloads: seeded inputs, set-up, and checked ops.

Each workload is a closed loop with one client, in one process and one
thread: the next op starts when the previous one has returned.  ``build``
does the whole set-up (groups, braid graphs, word data) and generates every
input from the seed before the first op is timed.  An op returns ``None``
when its answer agrees with an independent oracle that is already in the
package, and a description of the disagreement otherwise.

Why each workload is here, and which layers it loads or bypasses, is written
beside it; README.md has the table of which per-layer metric should move
which end-to-end metric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mvpolytopes import bz, draw, lusztig, polytope, primes, rep, serialize, sln
from mvpolytopes.cartan import build_cartan
from mvpolytopes.weyl import WeylGroup, weyl_group

GroupFor = Callable[[str, int], WeylGroup]


def shared_group(family: str, rank: int) -> WeylGroup:
    """The process-wide group, whose caches the ops use."""
    return weyl_group(build_cartan(family, rank))


def fresh_group(family: str, rank: int) -> WeylGroup:
    """A new group with empty caches."""
    return WeylGroup(build_cartan(family, rank))


@dataclass(frozen=True)
class Op:
    fn: Callable[..., str | None]
    args: tuple

    def run(self) -> str | None:
        return self.fn(*self.args)

    def describe(self) -> str:
        shown = (
            f"{a.cartan.family}{a.rank}" if isinstance(a, WeylGroup) else repr(a)
            for a in self.args
        )
        return f"{self.fn.__name__}({', '.join(shown)})"


@dataclass(frozen=True)
class Workload:
    name: str
    # ops per cycle; a run stops only between cycles, so every run has the same mix
    cycle: int
    # traced runs do a fixed number of cycles per requested second, sized so
    # that the traced run and its untraced twin together take about that long
    traced_cycles_per_s: float
    build: Callable[[int, GroupFor], list[Op]]


def _ready(group: WeylGroup) -> WeylGroup:
    """Build the braid graph and the word data of every reduced word of w0."""
    for word in group.braid_graph().words:
        group.word_data(word)
    group.two_faces()
    return group


def _mismatch(what: str, got, want) -> str:
    return f"{what}: got {got!r}, oracle says {want!r}"


# -- assemble ------------------------------------------------------------------
#
# Why: bz and lusztig do most of the work, while _kernels and cones do none.
# This is the path an array-native core (ROADMAP.md open item 2) rewrites with
# a transport plan and batched validation.  D4 (2316 reduced words) shows how
# the per-datum braid BFS scales; B3 and C3 cover the octagon (d = 4)
# transitions.  Each op mixes writes (assembly) with reads (re-reading Lusztig
# data, validating a loaded document).
#
# The cycle fixes the mix at B3 x1, C3 x1, A4 x6, D4 x2.  Ops sort by type
# (B3, C3 < A4 < D4), so op_p50_ms falls at the median A4 op and op_p90_ms at
# the median D4 op, away from the edges between types.

ASSEMBLE_CYCLE = (
    ("B", 3), ("A", 4), ("D", 4), ("A", 4), ("A", 4),
    ("C", 3), ("A", 4), ("D", 4), ("A", 4), ("A", 4),
)
ASSEMBLE_CYCLES = 500  # inputs generated per run; far more than a run can use
LUSZTIG_MAX = 5


def _face_vertex_count(group: WeylGroup, datum, face) -> int:
    """Distinct vertices of the polytope over the coset w<s_i, s_j>."""
    coset, frontier = {face.w}, [face.w]
    while frontier:
        nxt = []
        for u in frontier:
            for t in (face.i, face.j):
                v = group.right(u, t)
                if v not in coset:
                    coset.add(v)
                    nxt.append(v)
        frontier = nxt
    return len({polytope.vertex(group, datum, u).coords for u in coset})


def _assemble_op(group: WeylGroup, word, n, other, face, k: int) -> str | None:
    datum = bz.from_lusztig(group, word, n)
    got = bz.lusztig_data(group, datum, other)
    want = lusztig.transport(group, word, other, n)
    if got != want:
        return _mismatch("lusztig_data along another word", got, want)
    text = serialize.canonical_json(serialize.datum_to_doc(group, datum))
    loaded_group, loaded = serialize.load_datum(text)
    if loaded != datum:
        return _mismatch("document round trip", loaded.values, datum.values)
    if not bz.validate(loaded_group, loaded).is_valid:
        return "loaded datum fails validation"
    svg = draw.render_svg(group, datum, face=(face.w.word, face.i, face.j))
    # render_svg marks each distinct vertex of the face with one r="3.5" dot
    got, want = svg.count('r="3.5"'), _face_vertex_count(group, datum, face)
    if got != want:
        return _mismatch("vertices drawn on the 2-face", got, want)
    if k:
        n_std = bz.lusztig_data(group, datum, sln.ak_word(group.rank + 1))
        picture = dict(zip(sln.all_pairs(group.rank + 1), n_std))
        got = sln.collapse(group.rank + 1, k, picture)
        want = sln.facet_lusztig(group, k, picture)
        if got != want:
            return _mismatch(f"collapse at k={k}", got, want)
    return None


def build_assemble(seed: int, group_for: GroupFor) -> list[Op]:
    rng = np.random.default_rng(seed)
    groups = {key: _ready(group_for(*key)) for key in sorted(set(ASSEMBLE_CYCLE))}
    words = {key: g.braid_graph().words for key, g in groups.items()}
    faces = {key: g.two_faces() for key, g in groups.items()}
    total = ASSEMBLE_CYCLES * len(ASSEMBLE_CYCLE)
    n_all = rng.integers(0, LUSZTIG_MAX + 1, size=(total, 12))
    picks = rng.integers(0, 1 << 30, size=(total, 4))
    ops = []
    for t in range(total):
        key = ASSEMBLE_CYCLE[t % len(ASSEMBLE_CYCLE)]
        group = groups[key]
        ws, fs = words[key], faces[key]
        word, other = ws[picks[t, 0] % len(ws)], ws[picks[t, 1] % len(ws)]
        face = fs[picks[t, 2] % len(fs)]
        k = 1 + int(picks[t, 3]) % (group.rank + 1) if key == ("A", 4) else 0
        n = tuple(int(v) for v in n_all[t, : group.m])
        ops.append(Op(_assemble_op, (group, word, n, other, face, k)))
    return ops


# -- multiplicity ----------------------------------------------------------------
#
# Why: the only workload where these matter at once: the enumerate_mv cache,
# the numpy filters in rep, the Weyl-group action loops of the alternating-sum
# oracles, and the partition-function kernel.  Cache misses are about 2% of
# the ops and 15% of op time, above op_p90_ms, so an assembly speedup shows up
# here diluted, in ops_per_s; a cache change, such as bounding the
# enumeration cache, shows up only here.
#
# Queries come from a seeded pool and repeat.  The process-lifetime
# enumerate_mv and kpf caches start cold, then both hit and miss: the hit
# ratios are the traced metrics polytope.enumerate_mv.hit_ratio and
# weyl.kpf.hit_ratio.

# Queries per cycle of 20, by group and kind; a run stops only between
# cycles, so every run has exactly these shares.  Sorted by op time the
# strata run tensor A2 < weight A3 < tensor B2 < weight B3 = C3 < tensor A3,
# so these put op_p50_ms in the middle of the B3 and C3 weight queries and
# op_p90_ms in the middle of the A3 tensor queries, away from the edges
# between strata.
WEIGHT_SHARE = {("A", 3): 2, ("B", 3): 6, ("C", 3): 6}
TENSOR_SHARE = {("A", 2): 1, ("B", 2): 1, ("A", 3): 4}
MULTIPLICITY_CYCLE = sum(WEIGHT_SHARE.values()) + sum(TENSOR_SHARE.values())
# Every query's enumeration key (lambda - mu, or lambda + mu - nu) runs over
# the whole box [0, DEPTH]^rank, once per group and kind; the seed picks the
# highest weights and the order.  The set of keys, and so the work the cache
# misses do over a run, is then the same for every seed.
DEPTH = 3
LAMBDA_BOX = 3  # highest weights of weight queries: dominant, coordinates <= 3
TENSOR_BOX = 2  # lambda and mu of tensor queries: dominant, coordinates <= 2
STREAM_CYCLES = 3000  # cycles drawn per run; far more than a run can use


def _box(group: WeylGroup, bound: int):
    return [group.cartan.coweight(c) for c in itertools.product(range(bound + 1), repeat=group.rank)]


def _dominant(group: WeylGroup, bound: int):
    return [mu for mu in _box(group, bound) if not mu.is_zero() and mu.is_dominant()]


def _weight_op(group: WeylGroup, lam, mu) -> str | None:
    got = rep.weight_mult_mv(group, lam, mu)
    for oracle in (rep.weight_mult_canonical, rep.kostant_weight_mult):
        want = oracle(group, lam, mu)
        if got != want:
            return _mismatch(oracle.__name__, got, want)
    return None


def _tensor_op(group: WeylGroup, lam, mu, nu) -> str | None:
    got = rep.tensor_mult_mv(group, lam, mu, nu)
    want = rep.steinberg_tensor_mult(group, lam, mu, nu)
    return None if got == want else _mismatch("steinberg_tensor_mult", got, want)


def build_multiplicity(seed: int, group_for: GroupFor) -> list[Op]:
    rng = np.random.default_rng(seed)
    keys = sorted(set(WEIGHT_SHARE) | set(TENSOR_SHARE))
    groups = {key: _ready(group_for(*key)) for key in keys}
    pools: list[list[Op]] = []
    shares: list[int] = []
    for key, share in WEIGHT_SHARE.items():
        g = groups[key]
        lams = _dominant(g, LAMBDA_BOX)
        pool = []
        for delta in _box(g, DEPTH):
            lam = lams[rng.integers(len(lams))]
            pool.append(Op(_weight_op, (g, lam, lam - delta)))
        pools.append(pool)
        shares.append(share)
    for key, share in TENSOR_SHARE.items():
        g = groups[key]
        doms = _dominant(g, TENSOR_BOX)
        pool = []
        for delta in _box(g, DEPTH):
            pairs = [(lam, mu) for lam in doms for mu in doms if (lam + mu - delta).is_dominant()]
            if pairs:
                lam, mu = pairs[rng.integers(len(pairs))]
                pool.append(Op(_tensor_op, (g, lam, mu, lam + mu - delta)))
        pools.append(pool)
        shares.append(share)
    cycle = np.repeat(np.arange(len(pools)), shares)
    strata = rng.permuted(np.tile(cycle, (STREAM_CYCLES, 1)), axis=1).ravel()
    picks = rng.integers(0, 1 << 30, size=strata.size)
    return [pools[s][p % len(pools[s])] for s, p in zip(strata.tolist(), picks.tolist())]


# -- catalog -------------------------------------------------------------------------
#
# Why: cones (Fraction elimination, double description, Hilbert bases) and the
# primes back-map do most of the work; bz and lusztig do little.  This is the
# contrast workload for assemble, and the target workload for fraction-free
# elimination and a fan walk over maximal cones (ROADMAP.md open item 4).
#
# Each round builds the A2, B2 and A3 catalogs on fresh WeylGroup instances,
# bypassing the per-group catalog memo as a new `mvpoly primes` process does,
# then decomposes every polytope of a seeded pool of normalized A3 and B2
# polytopes, grouped afresh each round into ops of several decompositions.
# Builds (writes) dominate ops_per_s.  Decompositions (reads) are 96% of the
# ops, so they set op_p50_ms and op_p90_ms.  Sorted by op time the ops run
# A2 build < A3 decompositions (5 to an op, about 10 ms) < B2 decompositions
# (40 to an op, about 20 ms) < B2 and A3 builds, so op_p50_ms falls in the
# middle of the A3 ops and op_p90_ms in the middle of the B2 ops, away from
# the edges between strata.  Grouping also keeps a stray pause of a few
# milliseconds, which a single 2 ms decomposition can meet, from setting the
# percentiles.

CATALOG_GROUPS = (("A", 2), ("B", 2), ("A", 3))
# choices, maximal cones, generators per maximal cone (sorted), primes
CATALOG_COUNTS = {
    ("A", 2): (2, 2, (3, 3), 4),
    ("B", 2): (9, 4, (4, 4, 5, 5), 8),
    ("A", 3): (256, 13, (6,) * 12 + (7,), 12),
}
# ops per round, polytopes per op
DECOMPOSE_OPS = {("A", 3): (70, 5), ("B", 2): (12, 40)}
CATALOG_ROUNDS = 200


def _catalog_counts(catalog: primes.Catalog):
    sizes = tuple(sorted(len(c.labels) for c in catalog.clusters))
    return (catalog.n_choices, catalog.n_maximal, sizes, len(catalog.primes))


def _build_op(key, built: dict) -> str | None:
    catalog = primes.build_catalog(fresh_group(*key))
    built[key] = catalog
    got, want = _catalog_counts(catalog), CATALOG_COUNTS[key]
    return None if got == want else _mismatch(f"{key[0]}{key[1]} catalog counts", got, want)


def _decompose_op(group: WeylGroup, data, key, built: dict) -> str | None:
    for datum in data:
        parts = primes.decompose(group, datum, built[key])
        total = polytope.minkowski_sum(
            group, *(polytope.scale(group, p.datum, c) for p, c in parts)
        )
        if total != datum:
            return _mismatch("sum of primes", total.values, datum.values)
    return None


def build_catalog(seed: int, group_for: GroupFor) -> list[Op]:
    rng = np.random.default_rng(seed)
    groups = {key: _ready(group_for(*key)) for key in CATALOG_GROUPS}
    built: dict = {}  # catalogs of the current round, by group
    builds = [Op(_build_op, (key, built)) for key in CATALOG_GROUPS]
    pools = {}
    for key, (count, size) in DECOMPOSE_OPS.items():
        g = groups[key]
        pool = []
        for _ in range(count * size):
            n = (0,) * g.m
            while not any(n):
                n = tuple(int(v) for v in rng.integers(0, LUSZTIG_MAX + 1, g.m))
            pool.append(polytope.normalize(g, bz.from_lusztig(g, g.reference_word, n)))
        pools[key] = pool
    # each round builds its catalogs before its decompositions use them
    ops = []
    for _ in range(CATALOG_ROUNDS):
        ops += builds
        for key, pool in pools.items():
            size = DECOMPOSE_OPS[key][1]
            order = rng.permutation(len(pool))
            for i in range(0, len(pool), size):
                data = tuple(pool[j] for j in order[i : i + size])
                ops.append(Op(_decompose_op, (groups[key], data, key, built)))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("assemble", len(ASSEMBLE_CYCLE), 0.24, build_assemble),
        Workload("multiplicity", MULTIPLICITY_CYCLE, 6.5, build_multiplicity),
        Workload("catalog", len(CATALOG_GROUPS) + sum(c for c, _ in DECOMPOSE_OPS.values()), 0.16, build_catalog),
    )
}

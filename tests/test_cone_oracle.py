"""Fraction-free cone algebra and the integer back-map against Fraction references.

``Echelon``, ``fraction_nullspace``, ``fraction_invert`` and ``fraction_det``
are the elimination routines ``cones`` used before it went fraction-free,
``clear_denominators`` turns their rational vectors into primitive integer
ones, and ``oracle_catalog`` is the brute-force catalog build on them with the
back-map through a ``Fraction`` inverse.  ``brute_extreme_rays`` intersects
every rank ``dim - 1`` set of inequalities.  ``frozenset_extreme_rays`` is the
double description over every row with ``frozenset`` zero sets, and
``choice_rows`` the dense value-space rows of one choice, with args[t] -
args[k] for each unchosen argument t, both as the catalog build ran them
before it dropped repeated rows, shared one elimination along the choice tree
and read the table's check rows; its rows come from ``Weight`` objects
(``edge_row`` and ``relation_rows``), not from the index table.
``pairwise_hilbert_basis`` reduces the box candidates pair by pair, and
``search_decompose`` finds the first cluster whose chart rows admit the
Lusztig data and searches every generator, largest multiple first, pruning
remainders outside the cone: both as ``cones`` and ``primes`` ran them
before they moved onto int64 arrays.  ``admitting`` and ``cluster_of`` find
that cluster as ``decompose`` did before it read the datum's check sums:
one product of every cluster's chart rows, stacked (``stack_of``), with the
Lusztig data, and the least value per cluster.  ``box_hilbert_basis`` is the box
route on int64 arrays that ``cones.hilbert_basis`` ran before it
triangulated the cone.  None of them calls the fraction-free elimination,
``cones.extreme_rays``, ``cones.hilbert_basis`` or ``cones.matmul``.  The
catalog keeps a cluster's cone once, as its chart rows; ``chart_rays`` and
``value_rays`` read its rays off them with ``cones.extreme_rays`` for the
tests that compare rays, and are no oracles.
"""

import functools
import itertools
import math
import time
from fractions import Fraction
from math import gcd
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvpolytopes import bz, cones, polytope, primes
from mvpolytopes.cartan import build_cartan
from mvpolytopes.cones import exact_dtype
from mvpolytopes.tables import check_sums, index_table
from mvpolytopes.weyl import WeylGroup, weyl_group
from test_assembly_oracle import edge_pairs, edge_row, relation_rows
from test_weyl import prefixes

# -- references ------------------------------------------------------------------


def clear_denominators(row):
    """Scale a rational vector by a positive rational into a primitive int one."""
    fr = [Fraction(v) for v in row]
    lcm = 1
    for v in fr:
        lcm = lcm * v.denominator // gcd(lcm, v.denominator)
    ints = [int(v * lcm) for v in fr]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(v // g for v in ints)


class Echelon:
    """Incremental row echelon over Q, for ranks and independence tests."""

    def __init__(self):
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def reduce(self, row) -> list[Fraction]:
        row = [Fraction(v) for v in row]
        for prow, p in zip(self.rows, self.pivots):
            if row[p]:
                coef = row[p] / prow[p]
                row = [a - coef * b for a, b in zip(row, prow)]
        return row

    def add(self, row) -> bool:
        """Insert the row; True when it was independent of the current span."""
        red = self.reduce(row)
        for p, v in enumerate(red):
            if v:
                self.rows.append(red)
                self.pivots.append(p)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def fraction_rank(rows) -> int:
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank


def fraction_nullspace(rows, width: int):
    """Primitive integer basis of {x : row . x = 0 for all rows}."""
    ech = Echelon()
    for row in rows:
        if len(row) != width:
            raise ValueError("row width mismatch")
        ech.add(row)
    # full reduction upward so each pivot column is isolated
    rows_ = [r[:] for r in ech.rows]
    order = sorted(range(len(rows_)), key=lambda t: ech.pivots[t])
    rows_ = [rows_[t] for t in order]
    pivots = [ech.pivots[t] for t in order]
    for t, p in enumerate(pivots):
        rows_[t] = [v / rows_[t][p] for v in rows_[t]]
        for s in range(len(rows_)):
            if s != t and rows_[s][p]:
                coef = rows_[s][p]
                rows_[s] = [a - coef * b for a, b in zip(rows_[s], rows_[t])]
    free = [j for j in range(width) if j not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for t, p in enumerate(pivots):
            vec[p] = -rows_[t][f]
        basis.append(clear_denominators(vec))
    return basis


def fraction_invert(mat):
    q = len(mat)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(q)]
           for i, row in enumerate(mat)]
    for col in range(q):
        piv = next((t for t in range(col, q) if aug[t][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for t in range(q):
            if t != col and aug[t][col]:
                coef = aug[t][col]
                aug[t] = [a - coef * b for a, b in zip(aug[t], aug[col])]
    return [row[q:] for row in aug]


def fraction_det(mat) -> Fraction:
    rows = [[Fraction(v) for v in row] for row in mat]
    q = len(rows)
    out = Fraction(1)
    for col in range(q):
        piv = next((t for t in range(col, q) if rows[t][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            out = -out
        out *= rows[col][col]
        for t in range(col + 1, q):
            if rows[t][col]:
                coef = rows[t][col] / rows[col][col]
                rows[t] = [a - coef * b for a, b in zip(rows[t], rows[col])]
    return out


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def brute_extreme_rays(rows, dim):
    """Primitive rays cut out by rank dim - 1 sets of rows, inside the cone."""
    if fraction_rank(rows) < dim:
        raise ValueError("cone is not pointed")
    rays = set()
    for subset in itertools.combinations(rows, dim - 1):
        if fraction_rank(subset) < dim - 1:
            continue
        (vec,) = fraction_nullspace(subset, dim)
        for cand in (vec, tuple(-v for v in vec)):
            if all(dot(row, cand) >= 0 for row in rows):
                rays.add(cand)
    return sorted(rays)


def frozenset_extreme_rays(ineq_rows, dim):
    """Extreme rays of {x : A x >= 0} by double description over every row in
    order, with ``frozenset`` zero sets; the first independent rows are
    inverted over Q."""
    if dim == 0:
        return []
    ech, chosen = Echelon(), []
    for t, row in enumerate(ineq_rows):
        if len(chosen) < dim and ech.add(row):
            chosen.append(t)
    if len(chosen) < dim:
        raise ValueError("cone is not pointed")
    inv = fraction_invert([ineq_rows[i] for i in chosen])
    rays = [clear_denominators([row[j] for row in inv]) for j in range(dim)]
    zerosets = [frozenset(chosen[t] for t in range(dim) if t != j) for j in range(dim)]
    chosen_set = set(chosen)
    for t, row in enumerate(ineq_rows):
        if t in chosen_set:
            continue
        vals = [dot(row, r) for r in rays]
        if all(v >= 0 for v in vals):
            zerosets = [z | {t} if v == 0 else z for z, v in zip(zerosets, vals)]
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        new_rays, new_zero = [], []
        for p in pos:
            for n in neg:
                meet = zerosets[p] & zerosets[n]
                adjacent = True
                for o in range(len(rays)):
                    if o != p and o != n and meet <= zerosets[o]:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = [vals[p] * rn - vals[n] * rp for rp, rn in zip(rays[p], rays[n])]
                new_rays.append(clear_denominators(combo))
                new_zero.append(meet | {t})
        rays = [rays[i] for i in pos] + [rays[i] for i in zero] + new_rays
        zerosets = (
            [zerosets[i] for i in pos] + [zerosets[i] | {t} for i in zero] + new_zero
        )
    for t, row in enumerate(ineq_rows):
        for r in rays:
            if dot(row, r) < 0:
                raise RuntimeError(f"ray {r} violates inequality {t}, {tuple(row)}")
    return rays


def pairwise_hilbert_basis(rays, ineq_rows):
    """Hilbert basis of a pointed cone with nonnegative rays: the unimodular
    simplicial shortcut, else the nonzero cone points of the box under the ray
    sum that are not the sum of two such points, tested pair by pair."""
    if not rays:
        return []
    dim = len(rays[0])
    if len(rays) == fraction_rank(rays) == dim and abs(fraction_det(rays)) == 1:
        return sorted(rays)
    bounds = [sum(r[j] for r in rays) for j in range(dim)]
    cands = {
        x
        for x in itertools.product(*(range(b + 1) for b in bounds))
        if any(x) and all(dot(row, x) >= 0 for row in ineq_rows)
    }
    basis = []
    for g in sorted(cands):
        reducible = False
        for c in cands:
            if c == g or any(cv > gv for cv, gv in zip(c, g)):
                continue
            if tuple(gv - cv for gv, cv in zip(g, c)) in cands:
                reducible = True
                break
        if not reducible:
            basis.append(g)
    return basis


def box_hilbert_basis(rays, ineq_rows):
    """The basis ``pairwise_hilbert_basis`` finds, on int64 arrays: the box
    is listed a chunk of codes at a time, and a candidate is reducible
    exactly when it is the sum of two candidates, found by matching the
    pairwise sums that stay in the box to the candidates' mixed-radix box
    codes, a chunk of pairs at a time."""
    if not rays:
        return []
    dim = len(rays[0])
    if len(rays) == dim and abs(fraction_det(rays)) == 1:
        return sorted(rays)
    bounds = np.array([sum(r[j] for r in rays) for j in range(dim)], dtype=np.int64)
    ineqs = np.array(ineq_rows, dtype=np.int64).reshape(-1, dim)
    shape = (bounds + 1).tolist()
    total = math.prod(shape)
    kept = [np.zeros((0, dim), dtype=np.int64)]
    for start in range(0, total, 1 << 16):
        codes = np.arange(start, min(start + (1 << 16), total), dtype=np.int64)
        x = np.stack(np.unravel_index(codes, shape), axis=1).astype(np.int64)
        kept.append(x[(x @ ineqs.T >= 0).all(axis=1)])
    pts = np.concatenate(kept)
    pts = pts[pts.any(axis=1)]  # lex ascending, so codes ascend too
    radix = np.cumprod([1, *(bounds[:0:-1] + 1)])[::-1]
    codes = pts @ radix
    cols = pts.T.copy()
    reducible = np.zeros(len(pts), dtype=bool)
    step = max(1, (1 << 14) // max(len(pts), 1))
    for i in range(0, len(pts), step):
        # pairs (a, b) with a in this chunk and b not before it
        inside = np.ones((min(step, len(pts) - i), len(pts) - i), dtype=bool)
        for col, bound in zip(cols, bounds):
            inside &= col[i : i + step, None] + col[None, i:] <= bound
        sums = (codes[i : i + step, None] + codes[None, i:])[inside]
        at = np.minimum(np.searchsorted(codes, sums), len(codes) - 1)
        reducible[at[codes[at] == sums]] = True
    return [tuple(int(v) for v in g) for g in pts[~reducible]]


def in_cone(rows, n):
    """True when every chart row admits n: row . n >= 0."""
    return all(dot(row, n) >= 0 for row in rows)


def _search(rows, gens, counts, pos, rem):
    if not any(rem):
        return True
    if pos == len(gens) or not in_cone(rows, rem):
        return False
    g = gens[pos]
    cap = min((rem[j] // g[j] for j in range(len(g)) if g[j] > 0), default=0)
    for c in range(cap, -1, -1):
        counts[pos] = c
        if _search(rows, gens, counts, pos + 1, tuple(r - c * v for r, v in zip(rem, g))):
            return True
    counts[pos] = 0
    return False


def search_decompose(catalog, n):
    """``(cluster index, counts)``: the first cluster whose chart rows admit
    the Lusztig data n, and multiples of its generators summing to n, found
    largest multiple first; None when a step fails."""
    t = next((t for t, c in enumerate(catalog.clusters) if in_cone(c.ineq_rows_n, n)), None)
    if t is None:
        return None
    gens = catalog.clusters[t].gens_n
    counts = [0] * len(gens)
    if not _search(catalog.clusters[t].ineq_rows_n, gens, counts, 0, tuple(n)):
        return None
    return t, counts


class Stack(NamedTuple):
    """Every cluster's chart rows stacked as int64, where each cluster's rows
    start, and the largest sum of |coef| of a row."""

    rows: np.ndarray
    starts: np.ndarray
    norm: int


def stack_of(catalog) -> Stack:
    rows = [row for c in catalog.clusters for row in c.ineq_rows_n]
    starts = np.cumsum([0, *(len(c.ineq_rows_n) for c in catalog.clusters)])[:-1]
    norm = max((sum(map(abs, r)) for r in rows), default=0)
    return Stack(np.array(rows, dtype=np.int64), starts, norm)


def admitting(stack: Stack, n) -> np.ndarray:
    """Boolean (clusters,) array: cluster t's chart rows admit the Lusztig
    datum n.

    One product of the stacked chart rows with n, then the least value per
    cluster.  n is nonnegative, so the product's dtype
    (:func:`cones.exact_dtype`) follows from its maximum and the rows' norm:
    int64 below the bound, Python ints past it.  The stack has a cluster.
    """
    dtype = exact_dtype(max(n), stack.norm)
    values = stack.rows.astype(dtype, copy=False) @ np.array(n, dtype=dtype)
    return np.minimum.reduceat(values, stack.starts) >= 0


def cluster_of(catalog, stack: Stack, n):
    """The first cluster whose chart rows admit the Lusztig datum n, or None."""
    if catalog.clusters:
        admits = admitting(stack, n)
        t = admits.argmax()  # the first admitting cluster, if any admits
        if admits[t]:
            return catalog.clusters[t]
    return None


def value_relations(group):
    """Dense ``(lhs, args)`` rows of every hexagon and octagon relation, in
    ``group.two_faces`` order and then ``tables.FACE_RELATIONS`` order."""
    return [
        rows
        for face in group.two_faces(("hexagon", "octagon"))
        for rows in relation_rows(group, face)
    ]


def length_rows_of(group):
    """Dense rows of the edge lengths along the reference word."""
    word = group.reference_word
    return [edge_row(group, w, i) for w, i in zip(prefixes(group, word), word)]


def choice_rows(group, relations, choice):
    """Dense value-space rows of one choice: ``(eq, ineq)``, the bottom-vertex
    pins and one equation per relation, then the edge rows and the
    inequalities of the unchosen arguments."""
    size = len(group.chamber_weights())
    eq = []
    for i in range(1, group.rank + 1):
        pin = [0] * size
        pin[group.chamber_index(group.cartan.fundamental_weight(i).coords)] = 1
        eq.append(tuple(pin))
    ineq = [edge_row(group, w, i) for w, i in edge_pairs(group)]
    for (lhs, args), k in zip(relations, choice):
        eq.append(tuple(a - b for a, b in zip(args[k], lhs)))
        for t, arg in enumerate(args):
            if t != k:
                ineq.append(tuple(a - b for a, b in zip(arg, args[k])))
    return eq, ineq


def oracle_catalog(group):
    """The brute-force catalog with Fraction elimination and back-map, over
    every choice: each choice's cone dimension, and the value-space rays of
    the cones of positive dimension below m (``faces``) and of those outside
    every maximal cone (``uncovered``)."""
    relations = value_relations(group)
    size = len(group.chamber_weights())
    length_rows = length_rows_of(group)
    dims, maximal, nonmax = [], [], []
    for choice in itertools.product(*[range(len(args)) for _, args in relations]):
        eq, ineq = choice_rows(group, relations, choice)
        basis = fraction_nullspace(eq, size)
        if not basis:
            dims.append(0)
            continue
        q = len(basis)
        chart_rows = [tuple(dot(row, p) for p in basis) for row in ineq]
        rays_m = [
            clear_denominators([sum(x[j] * basis[j][g] for j in range(q)) for g in range(size)])
            for x in frozenset_extreme_rays(chart_rows, q)
        ]
        dim = fraction_rank(rays_m) if rays_m else 0
        dims.append(dim)
        if dim == group.m:
            maximal.append((choice, eq, ineq, basis, rays_m))
        elif dim > 0:
            nonmax.append((choice, rays_m))
    uncovered = [
        choice
        for choice, rays_m in nonmax
        if not any(
            all(
                all(dot(e, r) == 0 for e in eq) and all(dot(s, r) >= 0 for s in ineq)
                for r in rays_m
            )
            for _, eq, ineq, _, _ in maximal
        )
    ]
    prime_data, clusters = {}, []
    for choice, eq, ineq, basis, rays_m in maximal:
        q = len(basis)
        lp = [[Fraction(dot(lrow, p)) for p in basis] for lrow in length_rows]
        lp_inv = fraction_invert(lp)
        R = [
            [sum(Fraction(basis[j][g]) * lp_inv[j][k] for j in range(q)) for k in range(group.m)]
            for g in range(size)
        ]
        rows_n = []
        for row in ineq:
            image = [sum(Fraction(row[g]) * R[g][k] for g in range(size)) for k in range(group.m)]
            if any(image):
                rows_n.append(clear_denominators(image))
        rays_n = [tuple(dot(lrow, ray) for lrow in length_rows) for ray in rays_m]
        gens = box_hilbert_basis(rays_n, rows_n)
        values = []
        for g in gens:
            back = [sum(R[t][k] * g[k] for k in range(group.m)) for t in range(size)]
            assert all(v.denominator == 1 for v in back)
            values.append(tuple(int(v) for v in back))
            prime_data.setdefault(values[-1], bz.from_lusztig(group, group.reference_word, g))
        clusters.append(
            (choice, tuple(gens), tuple(values), tuple(rays_m), tuple(sorted(set(rows_n))))
        )
    ordered = sorted(
        prime_data, key=lambda v: (polytope.coweight(group, prime_data[v]).coords, v)
    )
    labels = {v: f"P{t + 1}" for t, v in enumerate(ordered)}
    out_clusters = []
    for choice, gens, values, rays_m, rows_n in clusters:
        pairs = sorted(zip(gens, values), key=lambda gv: int(labels[gv[1]][1:]))
        out_clusters.append(
            (choice, tuple(labels[v] for _, v in pairs), tuple(g for g, _ in pairs), rays_m, rows_n)
        )
    return {
        "relations": [
            (face, k, len(args))
            for face in group.two_faces(("hexagon", "octagon"))
            for k, (_, args) in enumerate(relation_rows(group, face))
        ],
        "n_choices": len(dims),
        "dims": tuple(dims),
        "clusters": out_clusters,
        "primes": [(labels[v], v) for v in ordered],
        "faces": nonmax,
        "uncovered": uncovered,
    }


@functools.cache
def oracle_of(family, rank):
    """``oracle_catalog`` of the shared group, once per Cartan datum."""
    return oracle_catalog(weyl_group(build_cartan(family, rank)))


# -- elimination -----------------------------------------------------------------

matrices = st.integers(1, 10).flatmap(
    lambda w: st.lists(
        st.lists(st.integers(-3, 3), min_size=w, max_size=w), min_size=0, max_size=8
    ).map(lambda rows: (rows, w))
)
squares = st.integers(1, 8).flatmap(
    lambda q: st.lists(
        st.lists(st.integers(-3, 3), min_size=q, max_size=q), min_size=q, max_size=q
    )
)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_rank_matches_fraction_elimination(rows_width):
    rows, _ = rows_width
    assert cones.rank(rows) == fraction_rank(rows)


@settings(max_examples=150, deadline=None)
@given(squares)
def test_det_and_inverse_match_fraction_elimination(mat):
    assert cones.det(mat) == fraction_det(mat)
    try:
        want = fraction_invert(mat)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            cones.inverse(mat)
        return
    den, num = cones.inverse(mat)
    assert den > 0
    assert [[Fraction(v, den) for v in row] for row in num] == want


rows_dim = st.integers(1, 5).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=d, max_size=8
    ).map(lambda rows: (rows, d))
)


@settings(max_examples=150, deadline=None)
@given(rows_dim)
def test_extreme_rays_match_brute_force(rows_dim):
    rows, dim = rows_dim
    try:
        want = brute_extreme_rays(rows, dim)
    except ValueError:
        with pytest.raises(ValueError, match="pointed"):
            cones.extreme_rays(rows, dim)
        return
    assert sorted(cones.extreme_rays(rows, dim)) == want


def _rays_or_unpointed(extreme_rays, rows, dim):
    try:
        return extreme_rays(rows, dim)
    except ValueError as exc:
        assert "pointed" in str(exc)
        return "not pointed"


@settings(max_examples=200, deadline=None)
@given(rows_dim, st.data())
def test_extreme_rays_ignore_zero_rows_and_later_positive_multiples(rows_dim, data):
    """Rays and their order are those of the rows without the padding, and
    those the double description over every row gives."""
    rows, dim = rows_dim
    padded = [tuple(r) for r in rows]
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(padded)))
        if at and data.draw(st.booleans()):
            src = padded[data.draw(st.integers(0, at - 1))]
            factor = data.draw(st.integers(1, 3))
            extra = tuple(factor * v for v in src)
        else:
            extra = (0,) * dim
        padded.insert(at, extra)
    want = _rays_or_unpointed(cones.extreme_rays, rows, dim)
    assert _rays_or_unpointed(cones.extreme_rays, padded, dim) == want
    assert _rays_or_unpointed(frozenset_extreme_rays, padded, dim) == want
    assert _rays_or_unpointed(frozenset_extreme_rays, rows, dim) == want


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_pushing_rows_one_at_a_time_gives_the_whole_elimination(rows_width):
    """Each push keeps the state d times the reduced row echelon form of the
    rows kept so far, with d their minor at the pivot columns."""
    rows, width = rows_width
    state, kept = ((), [], 1), []
    for t, row in enumerate(rows):
        nxt = cones._step(*state, row)
        if nxt is not None:
            state, kept = nxt, kept + [t]
        pivots, reduced, d = state
        assert len(pivots) == fraction_rank(rows[: t + 1])
        for s, (p, red) in enumerate(zip(pivots, reduced)):
            assert all(v == 0 for v in red[:p]) and red[p] == d
            assert all(red[q] == 0 for r, q in enumerate(pivots) if r != s)
        assert fraction_rank(reduced + [list(r) for r in rows[: t + 1]]) == len(pivots)
        if pivots:
            minor = [[rows[k][p] for p in pivots] for k in kept]
            assert d == fraction_det(minor)
    assert (kept, *state) == cones._eliminate(rows, width)


def test_matmul_refuses_products_that_could_overflow():
    small = 2**31 - 1
    assert cones.matmul([[small]], [[small]]).tolist() == [[small * small]]
    with pytest.raises(OverflowError):
        cones.matmul([[2**31]], [[2**31]])
    with pytest.raises(OverflowError):  # the inner length counts too
        cones.matmul([[2**30] * 4], [[2**30]] * 4)
    with pytest.raises(OverflowError):  # no int64 holds the entry at all
        cones.matmul([[2**63]], [[1]])
    with pytest.raises(OverflowError):  # |-2**63| is no int64 either
        cones.matmul([[-(2**63)]], [[1]])


# -- catalogs --------------------------------------------------------------------


CATALOG_GROUPS = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("A", 3), ("D", 3)]


def chart_rays(group, cluster):
    """A cluster's extreme rays in the Lusztig chart, from its chart rows."""
    return cones.extreme_rays(list(cluster.ineq_rows_n), group.m)


def value_rays(group, cluster):
    """A cluster's extreme rays in value space, sorted: the assembled data of
    its chart rays, as the program is linear on the cone."""
    assemble = index_table(group).assemble
    return tuple(sorted(map(assemble, chart_rays(group, cluster))))
# catalogs with too many choices for the oracle: about 1.4e8 in B3 and C3
WALK_GROUPS = [("B", 3), ("C", 3), ("A", 4)]


@pytest.mark.parametrize("family,rank", CATALOG_GROUPS)
def test_catalog_matches_fraction_oracle(family, rank):
    group = weyl_group(build_cartan(family, rank))
    want = oracle_of(family, rank)
    got = primes.build_catalog(group)
    assert want["uncovered"] == []
    assert [(r.face, r.index, r.n_args) for r in got.relations] == want["relations"]
    assert got.n_choices == want["n_choices"]
    assert want["dims"].count(group.m) == got.n_maximal
    # the walk finds each cluster's rays in another order, so both are sorted
    assert [
        (c.choice, c.labels, c.gens_n, value_rays(group, c), c.ineq_rows_n) for c in got.clusters
    ] == [
        (choice, labels, gens, tuple(sorted(rays_m)), rows)
        for choice, labels, gens, rays_m, rows in want["clusters"]
    ]
    assert [(p.label, p.datum.values) for p in got.primes] == want["primes"]


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_chart_rows_contain_the_rays_value_space_rows_contain(family, rank):
    """For every choice cone, the maximal clusters whose chart rows admit its
    rays are those whose value-space rows admit them."""
    group = weyl_group(build_cartan(family, rank))
    cat = primes.build_catalog(group)
    size = len(group.chamber_weights())
    length_rows = length_rows_of(group)
    relations = value_relations(group)
    stack = stack_of(cat)
    value_rows = []
    for c in cat.clusters:
        eq, ineq = choice_rows(group, relations, c.choice)
        value_rows.append((np.array(eq), np.array(ineq)))
    for choice in itertools.product(*[range(r.n_args) for r in cat.relations]):
        eq, ineq = choice_rows(group, relations, choice)
        basis = fraction_nullspace(eq, size)
        if not basis:
            continue
        chart_rows = [tuple(dot(row, p) for p in basis) for row in ineq]
        rays_x = frozenset_extreme_rays(chart_rows, len(basis))
        rays_m = np.array([[dot(x, col) for col in zip(*basis)] for x in rays_x])
        rays_n = [[dot(lrow, ray) for lrow in length_rows] for ray in rays_m.tolist()]
        by_values = [
            t
            for t, (eq_c, ineq_c) in enumerate(value_rows)
            if (eq_c @ rays_m.T == 0).all() and (ineq_c @ rays_m.T >= 0).all()
        ]
        admits = np.array([admitting(stack, n) for n in rays_n])
        by_chart = np.flatnonzero(admits.all(axis=0)).tolist()
        assert by_chart == by_values, choice
        assert by_chart == [
            t for t, c in enumerate(cat.clusters) if all(in_cone(c.ineq_rows_n, n) for n in rays_n)
        ], choice


@pytest.mark.parametrize("family,rank", CATALOG_GROUPS)
def test_fresh_catalog_build_finds_every_cone_covered(family, rank):
    """Every cone of positive dimension below m sits in one cluster: some
    cluster's chart rows admit the Lusztig data of all its rays.  A fresh
    group bypasses the catalog memo that earlier builds on the shared group
    fill."""
    group = WeylGroup(build_cartan(family, rank))
    cat = primes.build_catalog(group)
    stack = stack_of(cat)
    length_rows = length_rows_of(group)
    for choice, rays_m in oracle_of(family, rank)["faces"]:
        rays_n = [tuple(dot(lrow, ray) for lrow in length_rows) for ray in rays_m]
        admits = np.array([admitting(stack, n) for n in rays_n])
        assert admits.all(axis=0).any(), choice


@pytest.mark.parametrize(
    "family,rank,n_smaller", [("A", 2, 0), ("B", 2, 5), ("C", 2, 5), ("A", 3, 243), ("D", 3, 243)]
)
def test_smaller_cones_are_faces_spanned_by_maximal_cone_rays(family, rank, n_smaller):
    """For every choice whose cone is not maximal, the maximal cones' rays on
    which its equations vanish satisfy its inequalities, include every
    extreme ray of the double description over all its rows, and span the
    dimension the Fraction oracle finds."""
    group = weyl_group(build_cartan(family, rank))
    cat = primes.build_catalog(group)
    pool = {ray for c in cat.clusters for ray in value_rays(group, c)}
    relations = value_relations(group)
    size = len(group.chamber_weights())
    maximal = {c.choice for c in cat.clusters}
    choices = list(itertools.product(*[range(r.n_args) for r in cat.relations]))
    assert len(choices) - len(maximal) == n_smaller
    for choice, dim in zip(choices, oracle_of(family, rank)["dims"], strict=True):
        if choice in maximal:
            continue
        eq, ineq = choice_rows(group, relations, choice)
        selected = [ray for ray in pool if all(dot(e, ray) == 0 for e in eq)]
        assert all(dot(row, ray) >= 0 for ray in selected for row in ineq), choice
        basis = fraction_nullspace(eq, size)
        chart_rows = [tuple(dot(row, p) for p in basis) for row in ineq]
        rays = {
            clear_denominators([dot(x, col) for col in zip(*basis)])
            for x in frozenset_extreme_rays(chart_rows, len(basis))
        }
        assert rays <= set(selected), choice
        assert fraction_rank(selected) == dim < group.m, choice


@pytest.mark.parametrize(
    "family,rank,n_maximal",
    [
        ("A", 2, 2),
        ("B", 2, 4),
        ("C", 2, 4),
        ("A", 3, 13),
        ("D", 3, 13),
        ("B", 3, 415),
        ("C", 3, 415),
        ("A", 4, 434),
    ],
)
def test_fresh_build_runs_the_double_description_on_the_maximal_cones_only(
    family, rank, n_maximal, monkeypatch
):
    calls = []
    extreme_rays = cones.extreme_rays

    def recorded(rows, dim):
        calls.append(dim)
        return extreme_rays(rows, dim)

    monkeypatch.setattr(cones, "extreme_rays", recorded)
    group = WeylGroup(build_cartan(family, rank))
    catalog = primes.build_catalog(group)
    assert calls == [group.m] * catalog.n_maximal
    assert catalog.n_maximal == n_maximal


@pytest.mark.parametrize("family,rank", CATALOG_GROUPS + WALK_GROUPS)
def test_clusters_tile_the_orthant(family, rank):
    """Each facet of a cluster's chart cone off the orthant walls n_k = 0 is
    a facet of exactly one other cluster, with the opposite normal: the
    clusters cover the orthant and meet face to face.  Facets are the chart
    rows whose zero rays span m - 1 dimensions, the rays the double
    description of the chart rows."""
    group = weyl_group(build_cartan(family, rank))
    cat = primes.build_catalog(group)
    rank_of = functools.cache(lambda zero: cones.rank(sorted(zero)))
    facets = []  # per cluster: (normal, its zero rays)
    for c in cat.clusters:
        rays_n = chart_rays(group, c)
        found = []
        for row in c.ineq_rows_n:
            zero = frozenset(ray for ray in rays_n if dot(row, ray) == 0)
            if len(zero) >= group.m - 1 and rank_of(zero) == group.m - 1:
                found.append((row, zero))
        facets.append(found)
    holders = {}  # (normal, zero rays): the clusters with that facet
    for t, found in enumerate(facets):
        for facet in found:
            holders.setdefault(facet, []).append(t)
    for t, found in enumerate(facets):
        for row, zero in found:
            if sorted(row) == [0] * (group.m - 1) + [1]:  # an orthant wall
                continue
            across = [s for s in holders.get((tuple(-v for v in row), zero), []) if s != t]
            assert len(across) == 1, (cat.clusters[t].choice, row)


# -- Hilbert bases and decompositions against the pairwise and search oracles ----


@pytest.mark.parametrize("family,rank", CATALOG_GROUPS)
def test_hilbert_basis_matches_pairwise_oracle_in_catalog_builds(family, rank, monkeypatch):
    calls = []
    sumset = cones.hilbert_basis

    def recorded(rays, ineq_rows):
        calls.append((rays, ineq_rows))
        return sumset(rays, ineq_rows)

    monkeypatch.setattr(cones, "hilbert_basis", recorded)
    catalog = primes.build_catalog(WeylGroup(build_cartan(family, rank)))
    assert len(calls) == catalog.n_maximal
    for rays, ineq_rows in calls:
        assert sumset(rays, ineq_rows) == pairwise_hilbert_basis(rays, ineq_rows)


@pytest.mark.parametrize(
    "family,rank,boxes",
    [("B", 3, [34560, 34560, 34560, 38880]), ("C", 3, [28800, 34560, 34560])],
)
def test_hilbert_basis_matches_box_oracle_on_the_smallest_boxes(family, rank, boxes):
    """The three clusters with the fewest points in the box under their ray
    sum, among those that are not simplicial and unimodular, and in B3 the
    one with the fewest among those with more generators than rays (in C3
    that box holds 103,680 points, about 3.5 s for the oracle)."""
    group = weyl_group(build_cartan(family, rank))
    sized = []
    for c in primes.build_catalog(group).clusters:
        rays = chart_rays(group, c)
        if len(rays) == group.m and abs(fraction_det(rays)) == 1:
            continue
        sized.append((math.prod(sum(col) + 1 for col in zip(*rays)), rays, c))
    sized.sort(key=lambda item: item[0])
    picked = sized[:3]
    if len(boxes) > 3:
        picked.append(next(item for item in sized if len(item[2].gens_n) > len(item[1])))
    assert [box for box, _, _ in picked] == boxes
    for _, rays, c in picked:
        want = box_hilbert_basis(rays, list(c.ineq_rows_n))
        assert cones.hilbert_basis(rays, list(c.ineq_rows_n)) == want
        assert sorted(c.gens_n) == want


nonneg_spans = st.integers(2, 4).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(0, 3), min_size=d, max_size=d), min_size=d, max_size=6
    ).map(lambda gens: (gens, d))
)


@settings(max_examples=150, deadline=None)
@given(nonneg_spans)
def test_hilbert_basis_matches_pairwise_oracle_on_small_cones(gens_dim):
    """Full cones spanned by nonnegative vectors: the facet rows are the rays
    of the dual cone, and the cone's rays those of the facet rows."""
    gens, dim = gens_dim
    assume(fraction_rank(gens) == dim)
    rows = cones.extreme_rays(gens, dim)
    rays = cones.extreme_rays(rows, dim)
    assume(np.prod([sum(r[j] for r in rays) + 1 for j in range(dim)]) <= 600)
    assert cones.hilbert_basis(rays, rows) == pairwise_hilbert_basis(rays, rows)


wider_spans = st.integers(4, 6).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(0, 2), min_size=d, max_size=d), min_size=d + 1, max_size=8
    ).map(lambda gens: (gens, d))
)


@settings(max_examples=80, deadline=None)
@given(wider_spans)
def test_hilbert_basis_matches_box_oracle_on_random_cones(gens_dim):
    """Dimensions 4 to 6, where the pulling triangulation recurses through
    faces of faces, and boxes of up to 40,000 points."""
    gens, dim = gens_dim
    assume(fraction_rank(gens) == dim)
    rows = cones.extreme_rays(gens, dim)
    rays = cones.extreme_rays(rows, dim)
    assume(math.prod(sum(r[j] for r in rays) + 1 for j in range(dim)) <= 40_000)
    assert cones.hilbert_basis(rays, rows) == box_hilbert_basis(rays, rows)


def _parts(catalog, found):
    t, counts = found
    by_label = {p.label: p for p in catalog.primes}
    labels = catalog.clusters[t].labels
    return tuple((by_label[lbl], c) for lbl, c in zip(labels, counts) if c)


def _pool(group, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = tuple(int(v) for v in rng.integers(0, 6, group.m))
        yield n, polytope.normalize(group, bz.from_lusztig(group, group.reference_word, n))


@pytest.mark.parametrize(
    "family,rank,n_wide", [("A", 2, 0), ("B", 2, 2), ("A", 3, 1), ("D", 3, 1)]
)
def test_decompose_matches_search_oracle(family, rank, n_wide):
    group = weyl_group(build_cartan(family, rank))
    catalog = primes.build_catalog(group)
    hits = [0] * catalog.n_maximal
    for n, datum in _pool(group, 2000, 20261018):
        found = search_decompose(catalog, n)
        assert primes.decompose(group, datum, catalog) == _parts(catalog, found), n
        hits[found[0]] += 1
    # the clusters with a free generator besides the m solved ones are reached
    wide = [t for t, c in enumerate(catalog.clusters) if len(c.gens_n) > group.m]
    assert len(wide) == n_wide
    assert all(hits[t] for t in wide), hits


@pytest.mark.parametrize("family,rank", WALK_GROUPS)
def test_decompose_matches_search_oracle_at_rank_3_and_4(family, rank):
    """300 seeded data with entries 0 to 5, on the catalogs the tiling test
    builds anyway: the same primes and multiples as the search, summing back
    to the datum, also in the clusters whose last m generators are dependent,
    where the solver's search is pruned by the chart rows."""
    group = weyl_group(build_cartan(family, rank))
    catalog = primes.build_catalog(group)
    dependent = 0
    for n, datum in _pool(group, 300, 20261021):
        found = search_decompose(catalog, n)
        parts = primes.decompose(group, datum, catalog)
        assert parts == _parts(catalog, found), n
        scaled = (polytope.scale(group, p.datum, c) for p, c in parts)
        assert polytope.minkowski_sum(group, *scaled) == datum
        dependent += not catalog.clusters[found[0]]._solver.tail
    assert dependent > 0


@pytest.mark.parametrize("family,rank", CATALOG_GROUPS[1:] + WALK_GROUPS)
def test_lookup_finds_the_first_admitting_cluster(family, rank):
    """decompose's lookup by chosen columns against the stacked chart rows on
    200 seeded data with entries 0 to 5: the same Lusztig data, and the same
    first cluster in catalog order, also on the data that lie in several
    clusters (ties), of which there are some."""
    group = weyl_group(build_cartan(family, rank))
    table = index_table(group)
    catalog = primes.build_catalog(group)
    stack = stack_of(catalog)
    tied = 0
    for n, datum in _pool(group, 200, 20261020):
        target, t = primes._locate(group, table, catalog, check_sums(table, datum.values))
        assert target == n
        assert catalog.clusters[t] is cluster_of(catalog, stack, n), n
        tied += int(admitting(stack, n).sum()) > 1
    assert tied > 0


small_generators = st.integers(1, 3).flatmap(
    lambda d: st.tuples(
        st.lists(
            st.tuples(*[st.integers(0, 3)] * d).filter(any), min_size=1, max_size=5
        ),
        st.lists(st.integers(0, 3), max_size=5),
        st.tuples(*[st.integers(0, 1)] * d),
    )
)


@settings(max_examples=300, deadline=None)
@given(small_generators)
def test_solver_counts_are_the_search_oracle_counts(gens_mults_extra):
    """Any generators: independent or dependent last m, den above 1, fewer
    than m; targets in their monoid or next to it.  Both give the
    lexicographically largest counts, or none."""
    gens, mults, extra = gens_mults_extra
    target = tuple(
        e + sum(c * g[j] for c, g in zip(mults, gens)) for j, e in enumerate(extra)
    )
    counts = [0] * len(gens)
    want = counts if _search((), gens, counts, 0, target) else None
    assert primes._Solver(tuple(gens), ()).solve(target) == want


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2)])
def test_decompose_time_does_not_grow_with_the_scale(family, rank):
    """Scaled data decompose at once and exactly, also past the int64 product
    bound (3**37), past int64 itself (2**63 + 1) and far past it (2**70); the
    search that tried every multiple of a free generator took seconds at
    2**16 and never returned at 2**70."""
    group = weyl_group(build_cartan(family, rank))
    catalog = primes.build_catalog(group)
    seen = set()
    for n, datum in _pool(group, 40, 7):
        t, counts = search_decompose(catalog, n)
        cluster = catalog.clusters[t]
        seen.add(len(cluster.gens_n) > group.m)
        small = polytope.scale(group, datum, 2**8)
        want = _parts(catalog, search_decompose(catalog, [2**8 * v for v in n]))
        assert primes.decompose(group, small, catalog) == want
        for scale in (3**37, 2**63 + 1, 2**70):
            huge = polytope.scale(group, datum, scale)
            start = time.perf_counter()
            parts = primes.decompose(group, huge, catalog)
            assert time.perf_counter() - start < 0.1
            got = {p.label: c for p, c in parts}
            scaled = [got.get(lbl, 0) for lbl in cluster.labels]
            total = [sum(c * g[j] for c, g in zip(scaled, cluster.gens_n)) for j in range(group.m)]
            assert total == [scale * v for v in n]
            if len(cluster.gens_n) == group.m:
                assert scaled == [scale * c for c in counts]
    assert seen == {False, True}

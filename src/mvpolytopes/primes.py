"""Prime polytopes and Minkowski decomposition.

Each hexagonal 2-face relation picks one of 2 minimum arguments and each
octagonal face one of 3 x 3; resolving every minimum turns the piecewise
linear constraints into a rational polyhedral cone in value space (with the
bottom-vertex values pinned to zero).  The cone of a choice is cut out by the
index table's check rows (see :mod:`mvpolytopes.tables`): the chosen
argument's row arg_k - lhs at zero, and the edge rows and the other
arguments' rows arg_t - lhs at least zero.  Where the chosen row vanishes,
arg_t - lhs equals arg_t - arg_k, so these are the min-relations resolved.
Cones whose dimension equals the number of positive coroots m are the
maximal ones; the Hilbert bases of their edge-length charts are the prime
polytopes, and any polytope decomposes as a Minkowski sum of primes from the
single cluster whose cone contains it.

A polytope is MV exactly when its 2-faces are, so the valid data in the
Lusztig chart (the Lusztig data n along the reference word) form a fan whose
maximal cones are the clusters.  :func:`build_catalog` walks it breadth
first, as Speyer and Williams walk the tropical Grassmannian (J. Algebraic
Combin. 22, 2005), from the cone of a generic datum across every facet off
the orthant walls n_k = 0.  The assembly program of the index table is linear
on a cone, so m + 1 of its runs give the cone's integer back map from n to
the values, certified by the check rows before use, and the check rows times
it are the cone's chart rows; one double description per maximal cone gives
its rays.  The maximal cones cover the valid data and every check row is
>= 0 on them, so every other choice's cone is a face of them: it is spanned
by the maximal cones' rays on which its chosen rows vanish, and its
dimension is their rank.

:func:`decompose` reads a datum's Lusztig data n along the reference word
off the catalog's edge rows, then finds its cluster in two numpy calls: one
int64 product of every cluster's chart rows, stacked, with n, and one
``np.minimum.reduceat`` for the least value per cluster; the first cluster
whose least value is nonnegative admits n.  The product runs in int64 while
max(n) times the largest row norm stays below 2**62 (:func:`cones.exact_dtype`),
and on Python ints past that.  The cluster's generator counts, and the check
that their multiples sum back to the datum, finish it.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from collections import deque
from dataclasses import dataclass, field
from operator import mul
from typing import NamedTuple

import numpy as np

from . import bz, cones, polytope
from .bz import BZDatum
from .cartan import CartanDatum
from .cones import exact_dtype
from .tables import (
    FACE_RELATIONS,
    RELATION_ARGS,
    IndexTable,
    Row,
    _edge_columns,
    by_relation,
    check_sums,
    index_table,
)
from .weyl import Face, WeylGroup

Vec = tuple[int, ...]

# Face choices build_catalog accepts at most.  Rank 2, A3 and D3 (at most
# 256) fit; B3 and C3 have about 1.4e8 choices, and every larger group has
# more.  The walk visits only the maximal cones, but build_catalog still
# gives every choice its dimension, from one mask over their rays each.
MAX_CHOICES = 10_000

# Points a search of build_catalog tries before it gives up: the random
# starts of the walk, and the doublings of a probe or of a back map's point.
_PROBES = 64


@dataclass(frozen=True)
class Relation:
    """One min-equation lhs = min(args) on a 2-face, by its place in
    ``tables.FACE_RELATIONS``; its rows are the table's check rows."""

    face: Face
    index: int  # 0 for hexagons; 0 or 1 for the two octagon equations
    n_args: int


@dataclass(frozen=True)
class PrimePolytope:
    label: str
    datum: BZDatum
    coweight: Vec


@dataclass(frozen=True)
class Cluster:
    """A maximal choice cone together with its Hilbert generators.

    The cone is kept once, in the Lusztig chart: its data are the valid data
    whose Lusztig data n along the reference word satisfy row . n >= 0 for
    every row of ``ineq_rows_n``, the sorted distinct primitive rows.
    """

    choice: Vec  # chosen argument per relation
    labels: tuple[str, ...]
    gens_n: tuple[Vec, ...]  # generator edge-length vectors, aligned with labels
    rays_m: tuple[Vec, ...]  # the extreme rays in value space, sorted
    ineq_rows_n: tuple[Vec, ...]
    # derived from gens_n, see _Solver
    _solver: "_Solver" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_solver", _Solver(self.gens_n))


@dataclass(frozen=True)
class Catalog:
    cartan: CartanDatum
    n_choices: int
    dims: tuple[int, ...]  # cone dimension per choice, in choice order
    clusters: tuple[Cluster, ...]
    primes: tuple[PrimePolytope, ...]
    relations: tuple[Relation, ...]
    # the edge rows along the reference word, sparse over the values tuple:
    # row k dotted with a datum's values is its Lusztig datum n_k
    lengths: tuple[Row, ...] = field(repr=False, compare=False)
    # the chamber indices of Lambda_1..Lambda_r, the bottom vertex's chamber
    # weights
    bottom: tuple[int, ...] = field(repr=False, compare=False)
    # derived from clusters: their chart rows stacked, where each starts, and
    # the largest sum of |coef| of a row; and from primes, each by its label
    _rows: np.ndarray = field(init=False, repr=False, compare=False)
    _starts: np.ndarray = field(init=False, repr=False, compare=False)
    _norm: int = field(init=False, repr=False, compare=False)
    _by_label: dict[str, PrimePolytope] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = [row for c in self.clusters for row in c.ineq_rows_n]
        starts = np.cumsum([0, *(len(c.ineq_rows_n) for c in self.clusters)])[:-1]
        object.__setattr__(self, "_rows", np.array(rows, dtype=np.int64))
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_norm", max((sum(map(abs, r)) for r in rows), default=0))
        object.__setattr__(self, "_by_label", {p.label: p for p in self.primes})

    @property
    def n_maximal(self) -> int:
        return len(self.clusters)


class _Solver:
    """Counts of a cluster's generators that sum to a Lusztig datum.

    When the last m generators are independent (m the dimension; true in
    every cluster of A2, B2, A3 and D3, with ``den`` 1 or 2), they are the
    tail, solved with one integer inverse ``(den, num)``: the counts of the
    tail are ``num . rem / den`` for the remainder ``rem`` the leading (free)
    generators leave.  Otherwise every generator is free and the tail empty.
    Free generators are tried largest multiple first, so the counts are the
    lexicographically largest solution; since the tail solution is unique,
    the last free generator's largest feasible multiple comes in closed form.
    """

    def __init__(self, gens: tuple[Vec, ...]):
        m = len(gens[0]) if gens else 0
        tail = gens[len(gens) - m :] if len(gens) >= m else ()
        try:
            den, num = cones.inverse(list(zip(*tail)))
        except ValueError:  # the last m generators are dependent
            tail, den, num = (), 1, []
        self.free = gens[: len(gens) - len(tail)]
        self.den = den
        self.num = num
        # num . g per free generator: what one more g takes off num . rem
        self.steps = [[sum(map(mul, row, g)) for row in num] for g in self.free]

    def solve(self, target: Vec) -> list[int] | None:
        """The counts, free generators first, or None when there are none."""
        return self._search(0, target, [sum(map(mul, row, target)) for row in self.num])

    def _search(self, pos: int, rem, a: list[int]) -> list[int] | None:
        # a = num . rem, so the tail's counts are a / den
        den = self.den
        if pos == len(self.free):
            if not self.num:
                return None if any(rem) else []
            if any(v < 0 or v % den for v in a):
                return None
            return [v // den for v in a]
        g, b = self.free[pos], self.steps[pos]
        hi = min(r // v for r, v in zip(rem, g) if v > 0)
        lo = 0
        if pos == len(self.free) - 1:
            # the tail needs a - c b >= 0, which bounds c from above where
            # b > 0, and divisible by den, a congruence of period den: the
            # largest feasible c is among the den values up to the bound, or
            # there is none
            hi = min([hi, *(av // bv for av, bv in zip(a, b) if bv > 0)])
            lo = max(0, hi - den + 1)
        for c in range(hi, lo - 1, -1):
            counts = self._search(
                pos + 1,
                [r - c * v for r, v in zip(rem, g)],
                [av - c * bv for av, bv in zip(a, b)],
            )
            if counts is not None:
                return [c, *counts]
        return None


def _check_matrix(table: IndexTable, size: int) -> np.ndarray:
    """The table's check rows as dense int64 rows over the values tuple."""
    checks = np.zeros((table.check_coef.shape[1], size), dtype=np.int64)
    columns = np.arange(checks.shape[0])[None, :]
    np.add.at(checks, (columns, table.check_index), table.check_coef)
    return checks


def _admitting(catalog: Catalog, n) -> np.ndarray:
    """Boolean (clusters,) array: cluster t's chart rows admit the Lusztig
    datum n.

    One product of the stacked chart rows with n, then the least value per
    cluster.  n is nonnegative, so the product's dtype
    (:func:`cones.exact_dtype`) follows from its maximum and the rows' norm:
    int64 below the bound, Python ints past it.  The catalog has a cluster.
    """
    dtype = exact_dtype(max(n), catalog._norm)
    values = catalog._rows.astype(dtype, copy=False) @ np.array(n, dtype=dtype)
    return np.minimum.reduceat(values, catalog._starts) >= 0


def _cluster_of(catalog: Catalog, target: Vec) -> Cluster | None:
    """The first cluster whose chart rows admit the Lusztig datum ``target``,
    or None."""
    if catalog.clusters:
        admits = _admitting(catalog, target)
        t = admits.argmax()  # the first admitting cluster, if any admits
        if admits[t]:
            return catalog.clusters[t]
    return None


def _choice_at(table: IndexTable, real: np.ndarray, n: Vec) -> Vec | None:
    """The argument at which each relation takes its minimum in the datum
    with Lusztig data n along the reference word, or None at a tie.

    ``real[r, k]`` says whether relation r has an argument k (a hexagon's
    check columns repeat its last)."""
    zero = (by_relation(table, check_sums(table, table.assemble(n))) == 0) & real
    if (zero.sum(1) != 1).any():
        return None
    return tuple(zero.argmax(1).tolist())


class _Cone(NamedTuple):
    """A maximal cone of the walk: its certified back map and chart rows."""

    back: np.ndarray  # int64 (values, m): the datum of n is back @ n on the cone
    rows: tuple[Vec, ...]  # the distinct primitive nonzero rows of checks @ back, sorted


def _cone(table, checks, edge, pins, chosen, point: Vec) -> _Cone:
    """The maximal cone whose interior holds the tie-free ``point``, chosen
    rows at the columns ``chosen``.

    The program is linear on the cone, so its back map has the columns
    assemble(K p + e_k) - assemble(K p), integers, once K p + e_k stays in
    the cone; K doubles until the map is certified: the edge rows along the
    reference word read n back (length rows @ back = I), and the bottom
    vertex's values and the chosen rows vanish.  Those make back @ n a valid
    datum with Lusztig data n wherever the chart rows admit n.
    """
    m = len(point)
    for _ in range(_PROBES):
        base = table.assemble(point)
        steps = [table.assemble((*point[:k], point[k] + 1, *point[k + 1 :])) for k in range(m)]
        back = np.array([[a - b for a, b in zip(s, base)] for s in steps], dtype=np.int64).T
        product = cones.matmul(checks, back)
        if (
            (product[edge] == np.eye(m, dtype=np.int64)).all()
            and not back[pins].any()
            and not product[chosen].any()
        ):
            g = np.gcd.reduce(product, axis=1)
            rows = product[g > 0] // g[g > 0, None]
            return _Cone(back, tuple(sorted(set(map(tuple, rows.tolist())))))
        point = tuple(2 * v for v in point)
    raise RuntimeError(f"no certified back map near the Lusztig data {point}")


def _walk(group: WeylGroup, table: IndexTable, checks, edge, layout, relations):
    """The maximal cones in the Lusztig chart, breadth first across their
    facets, as ``{choice: (cone, rays)}`` with the chart rays.

    The cone of a choice is where its relations take their minima at the
    chosen arguments.  The walk starts at a generic interior point, whose
    choice reads off the check rows at its datum.  Each cone gets one double
    description; every facet not on an orthant wall n_k = 0 is crossed once,
    by probing K c - f past its row f, where c is the sum of the facet's
    rays, K doubling until the point has no tie and the cone found there
    admits c.  The cones meet face to face, so that cone shares the facet.
    A cone met on the way, at a tie-free point, is maximal and kept too.
    """
    m = group.m
    real = np.arange(RELATION_ARGS) < np.array([rel.n_args for rel in relations])[:, None]
    pins = table.chamber_array[0]
    rng = random.Random(0)
    for _ in range(_PROBES):
        start = tuple(rng.randrange(1, 1 << 16) for _ in range(m))
        choice = _choice_at(table, real, start)
        if choice is not None:
            break
    else:
        raise RuntimeError("no generic Lusztig datum found to start the walk")
    relation = np.arange(len(relations))
    cones_of: dict[Vec, _Cone] = {}
    queue: deque[Vec] = deque()

    def found_at(choice, point):
        if choice not in cones_of:
            chosen = layout[relation, np.array(choice, dtype=np.intp)]
            cones_of[choice] = _cone(table, checks, edge, pins, chosen, point)
            queue.append(choice)
        return cones_of[choice]

    found_at(choice, start)
    out = {}
    crossed: set[Vec] = set()  # the ray sums of the facets crossed
    while queue:
        choice = queue.popleft()
        rows = cones_of[choice].rows
        rays = cones.extreme_rays(list(rows), m)
        for ray in rays:  # in the chart, a ray is its own edge lengths
            if any(v < 0 for v in ray) or cones.primitive(ray) != ray:
                raise RuntimeError(
                    f"choice {choice}: ray with edge lengths {ray} is not a primitive "
                    "nonnegative vector"
                )
        if cones.rank(rays) != m:
            raise RuntimeError(f"choice {choice}: the rays {rays} span less than {m} dimensions")
        out[choice] = cones_of[choice], rays
        rays = np.array(rays, dtype=np.int64)
        # the facets: the rows whose zero rays no other row's strictly contain
        zero = cones.matmul(rows, rays.T) == 0
        count = zero.sum(1)
        missed = zero.astype(np.int64) @ (~zero).T.astype(np.int64)  # [i, j]: |Z_i - Z_j|
        facets = ~((missed == 0) & (count[None, :] > count[:, None])).any(1)
        for f, on in zip(np.array(rows)[facets].tolist(), zero[facets]):
            c = tuple(rays[on].sum(0).tolist())
            if sum(map(bool, f)) == 1 or c in crossed:  # an orthant wall, or crossed
                continue
            crossed.add(c)
            K = 1
            for _ in range(_PROBES):
                probe = tuple(K * a - b for a, b in zip(c, f))
                other = _choice_at(table, real, probe) if min(probe) > 0 else None
                if other is not None and (cones.matmul(found_at(other, probe).rows, c) >= 0).all():
                    break
                K *= 2
            else:
                raise RuntimeError(f"choice {choice}: no cone across its facet {tuple(f)}")
    return out


def build_catalog(group: WeylGroup) -> Catalog:
    """Walk the maximal cones, extract the primes, and give every other
    choice the dimension of its face of them."""
    if group._catalog is not None:
        return group._catalog
    table = index_table(group)
    relations = tuple(
        Relation(face, k, len(args))
        for face in group.two_faces(("hexagon", "octagon"))
        for k, (_, args) in enumerate(FACE_RELATIONS[face.kind])
    )
    n_choices = math.prod(rel.n_args for rel in relations)
    if n_choices > MAX_CHOICES:
        raise ValueError(f"{n_choices} face choices exceed the limit of {MAX_CHOICES}")
    size = len(group.chamber_weights())
    checks = _check_matrix(table, size)
    # the edge lengths along the reference word: its Lusztig data
    edge = _edge_columns(group, group.reference_word)
    length_rows = checks[edge]
    # [r, k]: the check column of argument k of relation r
    layout = by_relation(table, np.arange(len(checks)))
    walked = _walk(group, table, checks, edge, layout, relations)
    maximal = []  # (choice, back, rows_n, rays_n, rays_m), in product order
    pool_rays: dict[Vec, Vec] = {}  # the maximal cones' distinct rays, values to chart
    for choice in sorted(walked):
        cone, rays_n = walked[choice]
        pairs = sorted(zip(map(tuple, cones.matmul(rays_n, cone.back.T).tolist()), rays_n))
        pool_rays.update(pairs)
        maximal.append((choice, cone.back, cone.rows, rays_n, [ray for ray, _ in pairs]))

    # Every other cone is a face of the maximal ones: they cover the valid
    # data and every check row is >= 0 on them, so a cone meets each maximal
    # cone where its chosen rows vanish, and it is spanned by the maximal
    # cones' rays (the pool) on which its chosen rows are zero.
    pool = np.array(list(pool_rays), dtype=np.int64).reshape(-1, size)
    pool_n = np.array(list(pool_rays.values()), dtype=np.int64).reshape(-1, group.m)
    values = cones.matmul(checks, pool.T)
    escapes = np.argwhere(values < 0)
    if escapes.size:
        row, j = escapes[0]
        raise RuntimeError(f"maximal cone ray {tuple(pool[j].tolist())} fails check row {row}")
    faces = [
        (t, choice)
        for t, choice in enumerate(itertools.product(*[range(rel.n_args) for rel in relations]))
        if choice not in walked
    ]
    picks = np.array([c for _, c in faces], dtype=np.intp).reshape(len(faces), len(relations))
    chosen = layout[np.arange(len(relations)), picks]
    # masks[d]: the pool rays of distinct face d; at[f]: the face of faces[f]
    masks, at = np.unique((values[chosen] == 0).all(axis=1), axis=0, return_inverse=True)
    at = at.reshape(-1).tolist()  # numpy 2.0.0 gives the inverse another shape
    # ranks in the chart, m wide: the chart map is injective on the valid data
    ranks = [cones.rank(pool_n[mask].tolist()) for mask in masks]
    dims = [group.m] * n_choices
    for (position, choice), d in zip(faces, at):
        if ranks[d] == group.m:
            raise RuntimeError(f"choice {choice} spans a maximal cone that the walk missed")
        dims[position] = ranks[d]

    prime_data: dict[tuple[int, ...], BZDatum] = {}
    assembled: dict[Vec, BZDatum] = {}  # by generator: clusters share most of theirs
    raw_clusters = []
    for choice, back, rows_n, rays_n, rays_m in maximal:
        gens = cones.hilbert_basis(rays_n, rows_n)
        gen_values = cones.matmul(np.reshape(gens, (len(gens), group.m)), back.T).tolist()
        values = []
        for g, value in zip(gens, gen_values):
            datum = assembled.get(g)
            if datum is None:
                datum = assembled[g] = bz.from_lusztig(group, group.reference_word, g)
            if datum.values != tuple(value):
                raise RuntimeError(
                    f"choice {choice}: generator {g} maps to values that differ "
                    "from its assembly along the reference word"
                )
            values.append(datum.values)
            prime_data.setdefault(datum.values, datum)
        raw_clusters.append((choice, rays_m, rows_n, gens, values))

    coweights = {v: polytope.coweight(group, d).coords for v, d in prime_data.items()}
    ordered = sorted(prime_data, key=lambda v: (coweights[v], v))
    position = {v: t for t, v in enumerate(ordered)}
    primes = tuple(
        PrimePolytope(f"P{t + 1}", prime_data[v], coweights[v]) for t, v in enumerate(ordered)
    )
    clusters = []
    for choice, rays_m, rows_n, gens, values in raw_clusters:
        pairs = sorted((position[v], g) for g, v in zip(gens, values))
        clusters.append(
            Cluster(
                choice=tuple(choice),
                labels=tuple(primes[t].label for t, _ in pairs),
                gens_n=tuple(g for _, g in pairs),
                rays_m=tuple(rays_m),
                ineq_rows_n=rows_n,
            )
        )

    catalog = Catalog(
        cartan=group.cartan,
        n_choices=n_choices,
        dims=tuple(dims),
        clusters=tuple(clusters),
        primes=primes,
        relations=relations,
        lengths=tuple(
            tuple((x, c) for x, c in enumerate(row) if c) for row in length_rows.tolist()
        ),
        bottom=tuple(table.chamber_array[0].tolist()),
    )
    # every lower-dimensional cone should sit inside some maximal one: its
    # pool rays are valid data, so the chart rows test their edge lengths
    # along the reference word
    if faces:
        admits = np.array([_admitting(catalog, n) for n in pool_n.tolist()], dtype=bool)
        admits = admits.reshape(len(pool_n), len(clusters)).T
        # covered[d]: some maximal cone admits every pool ray of face d
        covered = (~masks[:, None, :] | admits[None, :, :]).all(axis=2).any(axis=1)
        for (position, choice), d in zip(faces, at):
            if dims[position] and not covered[d]:
                warnings.warn(
                    f"choice {choice} spans a cone outside every maximal cone", stacklevel=2
                )
    group._catalog = catalog
    return catalog


def prime_by_label(catalog: Catalog, label: str) -> PrimePolytope:
    return catalog._by_label[label]


def decompose(
    group: WeylGroup, datum: BZDatum, catalog: Catalog | None = None
) -> tuple[tuple[PrimePolytope, int], ...]:
    """Write a polytope as a Minkowski sum of primes with multiplicities.

    The datum must be normalized (bottom vertex at the origin) and valid.  A
    valid datum is fixed by its Lusztig data n along the reference word, so it
    lies in a maximal cone exactly when that cone's chart rows admit n.  The
    catalog holds what every datum reads: the bottom vertex's chamber indices,
    the edge rows along the reference word and the primes by label.
    """
    M = bz._values(group, datum)
    if catalog is None:
        catalog = build_catalog(group)
    elif catalog.cartan != group.cartan:
        raise ValueError("catalog belongs to a different Cartan datum")
    # mu1 = sum_i M_{Lambda_i} alpha_i^vee vanishes iff every M_{Lambda_i} does
    if any([M[x] for x in catalog.bottom]):
        raise ValueError("decompose needs a normalized datum (bottom vertex 0)")
    report = bz.validate(group, datum)
    if not report.is_valid:
        raise ValueError("cannot decompose invalid data: " + "; ".join(report.lines()))
    target = tuple([bz._dot(row, M) for row in catalog.lengths])
    cluster = _cluster_of(catalog, target)
    if cluster is None:
        raise RuntimeError(f"no maximal cone contains the datum with {_where(group, target)}")
    counts = cluster._solver.solve(target)
    if counts is None:
        raise RuntimeError(
            "Hilbert generators failed to reach the datum with "
            + _where(group, target, cluster)
        )
    by_label = catalog._by_label
    out = []
    total = [0] * len(M)
    for label, count in zip(cluster.labels, counts):
        if count:
            prime = by_label[label]
            out.append((prime, count))
            total = [t + count * v for t, v in zip(total, prime.datum.values)]
    if tuple(total) != M:
        raise RuntimeError(
            f"prime multiples {[(p.label, c) for p, c in out]} sum to {tuple(total)}, "
            f"not to the datum {M} with {_where(group, target, cluster)}"
        )
    return tuple(out)


def _where(group: WeylGroup, target, cluster: Cluster | None = None) -> str:
    """Where a decomposition failed: the datum's Lusztig data and its cluster."""
    where = f"Lusztig data {target} along the reference word {group.reference_word}"
    return where if cluster is None else f"{where}, in the cluster of choice {cluster.choice}"

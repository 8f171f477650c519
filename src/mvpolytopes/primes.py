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

Only a choice whose equations leave m dimensions can be maximal, so only
those get a double description.  The maximal cones cover the valid data and
every check row is >= 0 on them, so every other cone is a face of them: it
is spanned by the maximal cones' rays on which its chosen rows vanish, and
its dimension is their rank.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from . import bz, cones, polytope
from .bz import BZDatum
from .cartan import CartanDatum
from .cones import exact_dtype
from .tables import FACE_RELATIONS, IndexTable, Row, by_relation, index_table
from .weyl import Face, WeylGroup

Vec = tuple[int, ...]

# Face choices build_catalog evaluates at most.  Rank 2, A3 and D3 (at most
# 256) fit; B3 and C3 have about 1.4e8 choices, and every larger group has
# more.  The elimination tree is pruned where no maximal cone can be, but
# build_catalog still forms one mask over the maximal cones' rays per choice.
MAX_CHOICES = 10_000


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
    rays_m: tuple[Vec, ...]
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


def _admitting(catalog: Catalog, ns) -> np.ndarray:
    """Boolean (clusters x data) array: cluster t's chart rows admit ns[j].

    One product of the stacked chart rows with every datum, then the least
    value per cluster.  The data are nonnegative, so the product's dtype
    (:func:`cones.exact_dtype`) follows from their maximum and the rows' norm.
    """
    if not catalog.clusters:
        return np.zeros((0, len(ns)), dtype=bool)
    dtype = exact_dtype(max(map(max, ns)), catalog._norm)
    values = catalog._rows.astype(dtype, copy=False) @ np.array(ns, dtype=dtype).T
    return np.minimum.reduceat(values, catalog._starts, axis=0) >= 0


def build_catalog(group: WeylGroup) -> Catalog:
    """Evaluate every face choice, keep the maximal cones, extract the primes.

    The double description runs only on choices whose nullspace has m
    dimensions; every other choice's cone and dimension come from one product
    of the check rows with the maximal cones' rays.
    """
    if group._catalog is not None:
        return group._catalog
    table = index_table(group)
    relations = tuple(
        Relation(face, k, len(args))
        for face in table.faces
        for k, (_, args) in enumerate(FACE_RELATIONS[face.kind])
    )
    n_choices = math.prod(rel.n_args for rel in relations)
    if n_choices > MAX_CHOICES:
        raise ValueError(f"{n_choices} face choices exceed the limit of {MAX_CHOICES}")
    size = len(group.chamber_weights())
    checks = _check_matrix(table, size)
    # the edge lengths along the reference word: its Lusztig data
    data = group.word_data(group.reference_word)
    edge_column = {edge: e for e, edge in enumerate(table.edges)}
    length_rows = checks[[edge_column[w.word, i] for w, i in zip(data.prefixes, data.word)]]
    # per relation, the check columns of its arguments
    layout = by_relation(table, np.arange(len(checks))).tolist()
    args = [columns[: rel.n_args] for columns, rel in zip(layout, relations)]
    pins = np.eye(size, dtype=np.int64)[table.chamber_array[0]].tolist()

    dims: list[int] = []
    maximal = []  # (choice, ineq, basis, rays_m)
    faces = []  # (position in dims, choice) of the choices left to the faces below
    # one elimination shared along the tree of choices, visited in product
    # order; only a choice whose nullspace has m dimensions can be maximal
    choices = itertools.product(*[range(rel.n_args) for rel in relations])
    bases = cones.product_nullspaces(
        pins, [checks[columns].tolist() for columns in args], size, least=group.m
    )
    for choice, basis in zip(choices, bases, strict=True):
        if basis is not None:
            # the edge rows, then the other arguments' rows arg_t - lhs, which
            # read as arg_t - arg_k on the basis, where the chosen row is zero
            others = (c for columns, k in zip(args, choice) for c in columns if c != columns[k])
            ineq = checks[[*range(len(table.edges)), *others]]
            chart_rows = cones.matmul(ineq, np.transpose(basis)).tolist()
            rays_x = cones.extreme_rays(chart_rows, len(basis))
            # x -> x . basis is injective, so the rays span as much in the chart
            if rays_x and cones.rank(rays_x) == group.m:
                rays_m = [cones.primitive(r) for r in cones.matmul(rays_x, basis).tolist()]
                maximal.append((choice, ineq, basis, rays_m))
                dims.append(group.m)
                continue
        faces.append((len(dims), choice))
        dims.append(0)

    # Every other cone is a face of the maximal ones: they cover the valid
    # data and every check row is >= 0 on them, so a cone meets each maximal
    # cone where its chosen rows vanish, and it is spanned by the maximal
    # cones' rays (the pool) on which its chosen rows are zero.
    pool = np.array(
        list(dict.fromkeys(ray for *_, rays_m in maximal for ray in rays_m)), dtype=np.int64
    ).reshape(-1, size)
    values = cones.matmul(checks, pool.T)
    escapes = np.argwhere(values < 0)
    if escapes.size:
        row, j = escapes[0]
        raise RuntimeError(f"maximal cone ray {tuple(pool[j].tolist())} fails check row {row}")
    chosen = np.array(
        [[columns[k] for columns, k in zip(args, choice)] for _, choice in faces], dtype=np.intp
    ).reshape(len(faces), len(relations))
    # masks[d]: the pool rays of distinct face d; at[f]: the face of faces[f]
    masks, at = np.unique((values[chosen] == 0).all(axis=1), axis=0, return_inverse=True)
    at = at.reshape(-1).tolist()  # numpy 2.0.0 gives the inverse another shape
    ranks = [cones.rank(pool[mask].tolist()) for mask in masks]
    for (position, _), d in zip(faces, at):
        dims[position] = ranks[d]

    prime_data: dict[tuple[int, ...], BZDatum] = {}
    raw_clusters = []
    for choice, ineq, basis, rays_m in maximal:
        # chart back-map: value vector = back @ edge-length vector / den
        den, num = cones.inverse(cones.matmul(length_rows, np.transpose(basis)).tolist())
        back = cones.matmul(np.transpose(basis), num)
        rows_n = cones.matmul(ineq, back).tolist()
        rows_n = tuple(sorted({cones.primitive(r) for r in rows_n if any(r)}))
        rays_n = []
        for ray, rn in zip(rays_m, cones.matmul(rays_m, np.transpose(length_rows)).tolist()):
            rn = tuple(rn)
            if any(v < 0 for v in rn) or cones.primitive(rn) != rn:
                raise RuntimeError(
                    f"choice {choice}: ray {ray} has edge lengths {rn}, "
                    "not a primitive nonnegative vector"
                )
            rays_n.append(rn)
        gens = cones.hilbert_basis(rays_n, rows_n)
        gen_values = cones.matmul(np.reshape(gens, (len(gens), group.m)), back.T).tolist()
        values = []
        for g, scaled in zip(gens, gen_values):
            if any(v % den for v in scaled):
                raise RuntimeError(f"choice {choice}: generator {g} maps to non-integer values")
            datum = bz.from_lusztig(group, group.reference_word, g)
            if datum.values != tuple(v // den for v in scaled):
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
        admits = _admitting(catalog, cones.matmul(pool, np.transpose(length_rows)))
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
    admitting = np.flatnonzero(_admitting(catalog, [target]))
    if not admitting.size:
        raise RuntimeError(f"no maximal cone contains the datum with {_where(group, target)}")
    cluster = catalog.clusters[admitting[0]]
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

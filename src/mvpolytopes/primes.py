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
it are the cone's chart rows.  One double description per maximal cone gives
its rays and facets, which serve both the walk and the cone's one Hilbert
basis, its primes.  Only the maximal cones are ever visited, so the number
of face choices (about 1.4e8 in B3 and C3) costs nothing; ``MAX_M`` bounds
the walk instead.

:func:`decompose` computes the datum's check sums once, the product
:func:`bz.validate` runs, and reads everything off them: the validation
report, kept on the datum as ``validate`` keeps it, and the cluster.  A valid
datum lies in the cone of a choice exactly when each relation takes its
minimum at the chosen argument, that is, when the chosen columns' sums are
zero; so its cluster is the first in catalog order whose chosen columns are
all zero, one gather from the catalog's ``(clusters, R)`` array of chosen
columns.  A datum on a wall between cones has several zero arguments and lies
in every cluster whose choice picks one of them.  The sums of the edge
columns along the reference word are its Lusztig data n.  The cluster's
generator counts (:class:`_Solver`: a closed form where the last m generators
are independent, else a search pruned by the cluster's chart rows) and the
certificate finish it: one product of the counts with the cluster's
``(generators, chamber weights)`` matrix of prime values must give the datum.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from operator import mul
from typing import NamedTuple

import numpy as np

from . import bz, cones, polytope
from .bz import BZDatum
from .cartan import CartanDatum
from .tables import FACE_RELATIONS, RELATION_ARGS, IndexTable, by_relation, check_sums, index_table
from .weyl import Face, WeylGroup

Vec = tuple[int, ...]

# Positive roots m build_catalog accepts at most: A1-A4, B2, C2, B3, C3 and D3
# (m <= 10) build in a fresh interpreter in a median of 1.4 s or less (B3,
# the slowest, 1.2-1.6 s over 10 runs on 2 CPUs).  D4 (m = 12) has 11,116
# maximal cones, which the walk keeps in memory (about 32 s and 243 MB for
# the walk alone); B4, C4 and rank 5 have more.
MAX_M = 10

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
    ineq_rows_n: tuple[Vec, ...]
    # derived from gens_n and ineq_rows_n, see _Solver
    _solver: "_Solver" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_solver", _Solver(self.gens_n, self.ineq_rows_n))


@dataclass(frozen=True)
class Catalog:
    cartan: CartanDatum
    n_choices: int
    clusters: tuple[Cluster, ...]
    primes: tuple[PrimePolytope, ...]
    relations: tuple[Relation, ...]
    # derived from clusters: the relation column k R + r of each one's chosen
    # argument k per relation r, as an intp (clusters, R) array; from primes,
    # each by its label; and from both, per cluster the read-only int64
    # (generators, chamber weights) matrix of its primes' values in label
    # order, with its largest column sum of absolute values
    _chosen: np.ndarray = field(init=False, repr=False, compare=False)
    _by_label: dict[str, PrimePolytope] = field(init=False, repr=False, compare=False)
    _gen_values: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _gen_norms: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = (len(self.clusters), len(self.relations))
        choices = np.array([c.choice for c in self.clusters], dtype=np.intp).reshape(shape)
        object.__setattr__(self, "_chosen", choices * shape[1] + np.arange(shape[1]))
        by_label = {p.label: p for p in self.primes}
        object.__setattr__(self, "_by_label", by_label)
        size = len(self.primes[0].datum.values) if self.primes else 0
        matrices = []
        for c in self.clusters:
            values = [by_label[label].datum.values for label in c.labels]
            values = np.array(values, dtype=np.int64).reshape(len(values), size)
            values.flags.writeable = False
            matrices.append(values)
        object.__setattr__(self, "_gen_values", tuple(matrices))
        object.__setattr__(
            self, "_gen_norms", tuple(int(np.abs(g).sum(0).max(initial=0)) for g in matrices)
        )

    @property
    def n_maximal(self) -> int:
        return len(self.clusters)


class _Solver:
    """Counts of a cluster's generators that sum to a Lusztig datum.

    When the last m generators are independent (m the dimension; true in
    every cluster of A2, B2, A3 and D3, with ``den`` 1 or 2), they are the
    tail, solved with one integer inverse ``(den, num)``: the counts of the
    tail are ``num . rem / den`` for the remainder ``rem`` the leading (free)
    generators leave.  Otherwise every generator is free and the tail empty,
    and the cone's chart rows ``rows`` prune the search: the generators lie
    in the cone (``rows . g >= 0``), so a remainder outside it is no sum of
    multiples of them, and no multiple is tried that would leave one.
    Free generators are tried largest multiple first, so the counts are the
    lexicographically largest solution; since the tail solution is unique,
    the last free generator's largest feasible multiple comes in closed form.
    """

    def __init__(self, gens: tuple[Vec, ...], rows: tuple[Vec, ...]):
        m = len(gens[0]) if gens else 0
        tail = gens[len(gens) - m :] if len(gens) >= m else ()
        try:
            den, num = cones.inverse(list(zip(*tail)))
        except ValueError:  # the last m generators are dependent
            tail, den, num = (), 1, []
        self.free = gens[: len(gens) - len(tail)]
        self.den = den
        self.tail = bool(num)
        # the rows whose values a = rows . rem the search carries: the tail's
        # num, or else the cone's chart rows
        self.rows = num if self.tail else list(rows)
        # row . g per free generator: what one more g takes off a
        self.steps = [[sum(map(mul, row, g)) for row in self.rows] for g in self.free]

    def solve(self, target: Vec) -> list[int] | None:
        """The counts, free generators first, or None when there are none."""
        return self._search(0, target, [sum(map(mul, row, target)) for row in self.rows])

    def _search(self, pos: int, rem, a: list[int]) -> list[int] | None:
        # with a tail, a = num . rem, so the tail's counts are a / den
        den = self.den
        if pos == len(self.free):
            if not self.tail:
                return None if any(rem) else []
            if min(a) < 0 or (den > 1 and any(v % den for v in a)):
                return None
            return a if den == 1 else [v // den for v in a]
        g, b = self.free[pos], self.steps[pos]
        if self.tail and pos == len(self.free) - 1:
            # the tail needs a - c b >= 0 and divisible by den.  The first
            # bounds c from above where b > 0, and some b is: g and the tail
            # generators are nonzero and nonnegative, so some coefficient b / den
            # of g in the tail is positive.  The second is a congruence of
            # period den, so the largest feasible c is among the den values up
            # to the bound, or there is none.  Nonnegative tail counts sum to a
            # nonnegative remainder, so rem needs no bound here, and the tail
            # does not read it.
            hi = min([av // bv for av, bv in zip(a, b) if bv > 0])
            for c in range(hi, max(0, hi - den + 1) - 1, -1):
                counts = self._search(pos + 1, rem, [av - c * bv for av, bv in zip(a, b)])
                if counts is not None:
                    return [c, *counts]
            return None
        hi = min([r // v for r, v in zip(rem, g) if v > 0])
        if not self.tail:
            # every generator lies in the cone, so what the later ones sum to
            # does too: a - c b >= 0, which bounds c from above where b > 0
            hi = min([hi, *[av // bv for av, bv in zip(a, b) if bv > 0]])
        for c in range(hi, -1, -1):
            counts = self._search(
                pos + 1,
                [r - c * v for r, v in zip(rem, g)],
                [av - c * bv for av, bv in zip(a, b)],
            )
            if counts is not None:
                return [c, *counts]
        return None


def _choice_at(table: IndexTable, real: np.ndarray, n: Vec) -> Vec | None:
    """The argument at which each relation takes its minimum in the datum
    with Lusztig data n along the reference word, or None at a tie.

    ``real[k, r]`` says whether relation r has an argument k (a hexagon's
    check columns repeat its last).  A relation's minimum is at argument k
    exactly where its gap arg_k - lhs (:func:`tables.by_relation`) is zero."""
    zero = (by_relation(table, check_sums(table, table.assemble(n))) == 0) & real
    if (zero.sum(0) != 1).any():
        return None
    return tuple(zero.argmax(0).tolist())


class _Cone(NamedTuple):
    """A maximal cone of the walk: its certified back map and chart rows, then rays and facets."""

    back: np.ndarray  # int64 (values, m): the datum of n is back @ n on the cone
    rows: tuple[Vec, ...]  # the distinct primitive nonzero check rows at back, sorted
    described: tuple | None = None  # cones.extreme_rays' rays and facets


def _cone(table, edge, pins, chosen, point: Vec) -> _Cone:
    """The maximal cone whose interior holds the tie-free ``point``, chosen
    rows at the columns ``chosen``.

    The program is linear on the cone, so its back map has the columns
    assemble(K p + e_k) - assemble(K p), integers, once K p + e_k stays in
    the cone; K doubles until the map is certified: the edge rows along the
    reference word read n back (length rows @ back = I), and the bottom
    vertex's values and the chosen rows vanish.  Those make back @ n a valid
    datum with Lusztig data n wherever the chart rows admit n.  The check rows
    are evaluated at the m columns of back through the table's gather pair,
    in int64; each entry is at most max|back| times ``check_norm``, and past
    :func:`cones.exact_dtype`'s bound for that it raises OverflowError.
    """
    m = len(point)
    for _ in range(_PROBES):
        base = table.assemble(point)
        steps = [table.assemble((*point[:k], point[k] + 1, *point[k + 1 :])) for k in range(m)]
        back = np.array([[a - b for a, b in zip(s, base)] for s in steps], dtype=np.int64).T
        size = cones._absmax(back)
        if cones.exact_dtype(size, table.check_norm) is object:
            raise OverflowError(f"int64 product bound {size * table.check_norm} reaches 2**62")
        product = (back[table.check_index] * table.check_coef[:, :, None]).sum(0)
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


def _walk(group: WeylGroup, table: IndexTable, edge, layout, relations):
    """The maximal cones in the Lusztig chart, breadth first across their
    facets, as ``{choice: cone}``, each cone described.

    The cone of a choice is where its relations take their minima at the
    chosen arguments.  The walk starts at a generic interior point, whose
    choice reads off the check rows at its datum.  Each cone gets one double
    description; its closing check tests the rays on the chart rows, the
    unit rows among them, so each primitive ray is its own edge lengths, and
    the rays must span m dimensions: a facet holding them all is an implicit
    equality.  Every facet not on an orthant wall n_k = 0 is crossed once,
    by probing K c - f past its row f, where c is the sum of the facet's
    rays, K doubling until the point has no tie and the cone found there
    admits c.  The cones meet face to face, so that cone shares the facet.
    A cone met on the way, at a tie-free point, is maximal and kept too.
    """
    m = group.m
    real = np.arange(RELATION_ARGS)[:, None] < np.array([rel.n_args for rel in relations])
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
    walked: dict[Vec, _Cone] = {}
    queue: deque[Vec] = deque()

    def found_at(choice, point):
        if choice not in walked:
            chosen = layout[np.array(choice, dtype=np.intp), relation]
            walked[choice] = _cone(table, edge, pins, chosen, point)
            queue.append(choice)
        return walked[choice]

    found_at(choice, start)
    crossed: set[Vec] = set()  # the ray sums of the facets crossed
    while queue:
        choice = queue.popleft()
        rays, facets = described = cones.extreme_rays(list(walked[choice].rows), m)
        if any(on == (1 << len(rays)) - 1 for _, on in facets):
            raise RuntimeError(f"choice {choice}: the rays {rays} span less than {m} dimensions")
        walked[choice] = walked[choice]._replace(described=described)
        for f, on in facets:
            c = tuple(map(sum, zip(*(r for j, r in enumerate(rays) if on >> j & 1))))
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
    return walked


def build_catalog(group: WeylGroup) -> Catalog:
    """Walk the maximal cones and extract the primes from the Hilbert bases
    of their rays and facets, as the walk's double descriptions give them.
    Groups with more than ``MAX_M`` positive roots are refused before the
    walk."""
    if group._catalog is not None:
        return group._catalog
    if group.m > MAX_M:
        raise ValueError(
            f"{group.cartan.family}{group.rank} has {group.m} positive roots, above the "
            f"prime catalog limit of {MAX_M}"
        )
    table = index_table(group)
    relations = tuple(
        Relation(face, k, len(args))
        for face in group.two_faces(("hexagon", "octagon"))
        for k, (_, args) in enumerate(FACE_RELATIONS[face.kind])
    )
    # the edge lengths along the reference word, its Lusztig data: the check
    # columns the program's m edge steps solve
    edge = table.program.columns[: group.m, 0]
    # [k, r]: the check column of argument k of relation r
    layout = by_relation(table, np.arange(table.check_index.shape[1]))
    walked = _walk(group, table, edge, layout, relations)
    # the primes, by generator: clusters share most of theirs, and distinct
    # Lusztig data along the reference word give distinct polytopes
    assembled: dict[Vec, BZDatum] = {}
    raw_clusters = []
    for choice in sorted(walked):
        back, rows_n, described = walked[choice]
        gens = cones.hilbert_basis(*described)
        gen_values = cones.matmul(np.reshape(gens, (len(gens), group.m)), back.T).tolist()
        for g, value in zip(gens, gen_values):
            datum = assembled.get(g)
            if datum is None:
                datum = assembled[g] = bz.from_lusztig(group, group.reference_word, g)
            if datum.values != tuple(value):
                raise RuntimeError(
                    f"choice {choice}: generator {g} maps to values that differ "
                    "from its assembly along the reference word"
                )
        raw_clusters.append((choice, rows_n, gens))

    coweights = {g: polytope.coweight(group, d).coords for g, d in assembled.items()}
    ordered = sorted(assembled, key=lambda g: (coweights[g], assembled[g].values))
    position = {g: t for t, g in enumerate(ordered)}
    primes = tuple(
        PrimePolytope(f"P{t + 1}", assembled[g], coweights[g]) for t, g in enumerate(ordered)
    )
    clusters = []
    for choice, rows_n, gens in raw_clusters:
        pairs = sorted((position[g], g) for g in gens)
        clusters.append(
            Cluster(
                choice=tuple(choice),
                labels=tuple(primes[t].label for t, _ in pairs),
                gens_n=tuple(g for _, g in pairs),
                ineq_rows_n=rows_n,
            )
        )

    catalog = Catalog(
        cartan=group.cartan,
        n_choices=math.prod(rel.n_args for rel in relations),
        clusters=tuple(clusters),
        primes=primes,
        relations=relations,
    )
    group._catalog = catalog
    return catalog


def prime_by_label(catalog: Catalog, label: str) -> PrimePolytope:
    return catalog._by_label[label]


def decompose(
    group: WeylGroup, datum: BZDatum, catalog: Catalog | None = None
) -> tuple[tuple[PrimePolytope, int], ...]:
    """Write a polytope as a Minkowski sum of primes with multiplicities.

    The datum must be normalized (bottom vertex at the origin) and valid; its
    validation report, cluster and Lusztig data come from one product of
    check sums (:func:`_locate`), and the certificate from one more.
    """
    M = bz._values(group, datum)
    if catalog is None:
        catalog = build_catalog(group)
    elif catalog.cartan is not group.cartan and catalog.cartan != group.cartan:
        raise ValueError("catalog belongs to a different Cartan datum")
    table = index_table(group)
    # mu1 = sum_i M_{Lambda_i} alpha_i^vee vanishes iff every M_{Lambda_i} does
    if any([M[x] for x in table.chamber_array[0].tolist()]):
        raise ValueError("decompose needs a normalized datum (bottom vertex 0)")
    sums = check_sums(table, M)
    report = datum._report
    if report is None:  # kept on the datum, as bz.validate keeps it
        report = bz._report(group, table, sums)
        object.__setattr__(datum, "_report", report)
    if not report.is_valid:
        raise ValueError("cannot decompose invalid data: " + "; ".join(report.lines()))
    target, t = _locate(group, table, catalog, sums)
    if t is None:
        raise RuntimeError(f"no maximal cone contains the datum with {_where(group, target)}")
    cluster = catalog.clusters[t]
    counts = cluster._solver.solve(target)
    if counts is None:
        raise RuntimeError(
            "Hilbert generators failed to reach the datum with "
            + _where(group, target, cluster)
        )
    by_label = catalog._by_label
    out = tuple(
        (by_label[label], count) for label, count in zip(cluster.labels, counts) if count
    )
    # the certificate: the multiples of the primes' values sum to the datum;
    # each sum is at most the largest count times a column's |value| sum
    dtype = cones.exact_dtype(max(counts, default=0), catalog._gen_norms[t])
    values = catalog._gen_values[t].astype(dtype, copy=False)
    total = tuple((np.array(counts, dtype=dtype) @ values).tolist())
    if total != M:
        raise RuntimeError(
            f"prime multiples {[(p.label, c) for p, c in out]} sum to {total}, "
            f"not to the datum {M} with {_where(group, target, cluster)}"
        )
    return out


def _locate(
    group: WeylGroup, table: IndexTable, catalog: Catalog, sums: np.ndarray
) -> tuple[Vec, int | None]:
    """The Lusztig data n along the reference word of a valid datum with check
    sums ``sums``, and the index of the first cluster in catalog order whose
    chosen arguments all attain their relations' minima there (zero gaps
    arg_k - lhs, :func:`tables.by_relation`), or None."""
    # the assembly program's m edge steps come first: step k solves the
    # edge (w_{k-1}, i_k) of the reference word, whose length is n_k
    target = tuple(sums[table.program.columns[: group.m, 0]].tolist())
    if catalog.clusters:
        missed = by_relation(table, sums).take(catalog._chosen).any(1)
        t = int(missed.argmin())  # the first cluster whose chosen gaps all vanish, if one's do
        if not missed[t]:
            return target, t
    return target, None


def _where(group: WeylGroup, target, cluster: Cluster | None = None) -> str:
    """Where a decomposition failed: the datum's Lusztig data and its cluster."""
    where = f"Lusztig data {target} along the reference word {group.reference_word}"
    return where if cluster is None else f"{where}, in the cluster of choice {cluster.choice}"

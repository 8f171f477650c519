"""Exact polyhedral-cone routines: ranks and inverses, extreme rays by double
description, and Hilbert bases of pointed rational cones with nonnegative rays.

Everything runs over integers.  Elimination is fraction-free (Bareiss), so a
rational result comes back as an integer numerator with one positive
denominator; integer matrix products run in int64 and raise rather than wrap.
No floating point ever enters, so cone membership and ray computations are
decisions, not approximations.

Elimination is one row step (``_step``), which ``_eliminate`` folds over a
list of rows.  A step leaves a reduced row as it is when the row is zero at
the new pivot and the new pivot equals the last one, since the Bareiss
update would multiply it by their quotient, 1; on sparse rows, such as the
unit rows of an orthant, most updates are of that kind.  The double
description in ``extreme_rays`` adds the inequality rows sparsest first,
which decides how many intermediate rays it makes (Fukuda and Prodon,
*Double description method revisited*, 1996), and starts from the rays of
the first independent rows (``_invert_first``, which carries the identity
along).  :func:`primes.build_catalog` runs it once per maximal cone of its
fan walk, on the cone's chart rows in the Lusztig chart, whose unit rows
come first, so the start is the orthant and its pass does no elimination.
Its closing check, the one product of the rows with the rays, also gives
the facets, as rows and ray bitmasks.  ``hilbert_basis`` takes the rays
and the facets: it triangulates the cone on its rays, with ray
bitmasks as faces, takes its candidates from the simplices'
parallelepipeds, which the inverse of each simplex (``inverse``)
generates, and tests them on the facet rows alone.
"""

from __future__ import annotations

from math import gcd
from operator import mul

import numpy as np

Vec = tuple[int, ...]


def primitive(vec) -> Vec:
    """Divide an integer vector by the gcd of its entries; keeps direction."""
    vals = [int(v) for v in vec]
    g = gcd(*vals)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(v // g for v in vals)


def _step(pivots: tuple[int, ...], reduced: list[list[int]], d: int, row, limit=None):
    """One fraction-free (Bareiss) Gauss-Jordan step: reduce ``row`` against the
    state ``(pivots, reduced, d)`` and return the state with it kept, or None
    when the row depends on the rows already kept.  Pivots are sought in the
    first ``limit`` columns only (all by default).  The state passed in is
    left as it was, so a caller can keep it when the row is dependent.
    """
    row = [int(v) for v in row]
    new = row if d == 1 else [d * v for v in row]
    for p, red in zip(pivots, reduced):
        if row[p]:
            new = [x - row[p] * y for x, y in zip(new, red)]
    for c, v in enumerate(new[:limit]):
        if v:
            break
    else:
        return None
    piv = new[c]
    # a row with a zero at the new pivot scales by piv / d, which is 1 when piv is d
    reduced = [
        red
        if piv == d and not red[c]
        else [(piv * x - red[c] * y) // d for x, y in zip(red, new)]
        for red in reduced
    ]
    reduced.append(new)
    return (*pivots, c), reduced, piv


def _eliminate(rows, width: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss) over the rows in order.

    Returns ``(kept, pivots, reduced, d)``: the indices of the rows independent
    of the rows before them, their pivot columns, and the reduced rows, which
    are ``d`` times the reduced row echelon form of the kept rows.  ``d`` is the
    minor of the kept rows at the pivot columns in that order (1 when no row is
    kept).  Every entry is such a minor, so by Sylvester's identity each
    division in ``_step`` is exact.
    """
    kept: list[int] = []
    pivots: tuple[int, ...] = ()
    reduced: list[list[int]] = []
    d = 1
    for idx, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {idx} has width {len(row)}, not {width}")
        state = _step(pivots, reduced, d, row)
        if state is None:
            continue
        pivots, reduced, d = state
        kept.append(idx)
    return kept, pivots, reduced, d


def rank(rows) -> int:
    rows = list(rows)
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[0])


def _invert_first(rows, dim: int):
    """The first ``dim`` rows independent of the rows before them, and the
    inverse ``(den, num)`` of the square matrix they form, from one pass.

    Each row is pushed augmented with the unit vector of the slot it would
    fill, with pivots sought in its first ``dim`` columns only, so a dependent
    row leaves the state as it was and the kept rows end as ``d`` times the
    reduced form of ``[A | I]``.  Returns ``(kept, den, num)`` with ``den > 0``
    and the inverse equal to ``num / den``; ``num`` is None when fewer than
    ``dim`` rows are independent.
    """
    kept: list[int] = []
    state: tuple = ((), [], 1)
    for idx, row in enumerate(rows):
        if len(row) != dim:
            raise ValueError(f"row {idx} has width {len(row)}, not {dim}")
        slot = len(kept)
        pushed = _step(*state, [*row, *(int(s == slot) for s in range(dim))], dim)
        if pushed is None:
            continue
        state = pushed
        kept.append(idx)
        if len(kept) == dim:
            break
    pivots, reduced, d = state
    if len(kept) < dim:
        return kept, 1, None
    sign = 1 if d > 0 else -1
    num: list[list[int]] = [[]] * dim
    for p, red in zip(pivots, reduced):
        num[p] = [sign * v for v in red[dim:]]
    return kept, abs(d), num


def inverse(mat) -> tuple[int, list[list[int]]]:
    """``(den, num)`` with ``den > 0`` and ``mat`` inverse equal to ``num / den``."""
    _, den, num = _invert_first(mat, len(mat))
    if num is None:
        raise ValueError("matrix is singular")
    return den, num


def det(mat) -> int:
    q = len(mat)
    kept, pivots, _, d = _eliminate(mat, q)
    if len(kept) < q:
        return 0
    swaps = sum(a > b for t, a in enumerate(pivots) for b in pivots[t + 1 :])
    return -d if swaps % 2 else d


def exact_dtype(size: int, norm: int):
    """``np.int64`` while ``size`` times ``norm`` is below 2**62, else
    ``object`` (Python ints): the dtype in which rows of absolute coefficient
    sum at most ``norm`` times a vector of entries at most ``size`` are exact."""
    return np.int64 if size * norm < 1 << 62 else object


def matmul(a, b) -> np.ndarray:
    """Integer matrix product in int64 that raises OverflowError, never wraps:
    it runs only where :func:`exact_dtype` allows int64 for the entries of
    ``b`` and the row-sum bound ``max|a| * inner`` of ``a``."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    size, norm = _absmax(b), _absmax(a) * a.shape[-1]
    if exact_dtype(size, norm) is object:
        raise OverflowError(f"int64 product bound {size * norm} reaches 2**62")
    return a @ b


def _absmax(a: np.ndarray) -> int:
    # abs wraps -2**63 to itself, which reads as 2**63 unsigned
    return int(np.abs(a).view(np.uint64).max()) if a.size else 0


def _sparsity(row) -> tuple[int, int]:
    """The insertion key of a row: its nonzero entries, then its negative ones."""
    return len(row) - row.count(0), len([v for v in row if v < 0])


def extreme_rays(ineq_rows: list[Vec], dim: int) -> tuple[list[Vec], list[tuple[Vec, int]]]:
    """Primitive extreme rays and facets of the pointed cone {x in R^dim :
    A x >= 0}, as ``(rays, facets)``, each facet as ``(row, mask)``: a row
    that cuts it out, and the bitmask of the rays on it (bit j for rays[j]).

    Double description with combinatorial adjacency, adding the rows of A
    (tuples of Python ints) sparsest first (``_sparsity``), rows of equal
    sparsity in the order given, from the simplex of the first ``dim``
    independent rows.  A zero row joins every zero set, and a positive
    multiple of an earlier row exactly the zero sets holding that row;
    neither changes an adjacency test or the start, so the rays and their
    order are those of the rows without them.  Zero sets are int bitmasks
    over the rows in insertion order, kept exact by the incremental update.
    Raises when the cone is not pointed (rank of A below dim).  The closing
    check, one product of every row with every ray, raises on a negative
    entry, and its zero sets give the facets: those of nonzero rows that no
    other row's strictly contains, each with the first row that has it.  A
    cone that is not full-dimensional has one such set, every ray, held by
    its implicit equalities.
    """
    if dim == 0:
        return [], []
    rows = sorted(ineq_rows, key=_sparsity)
    chosen, _, num = _invert_first(rows, dim)
    if num is None:
        raise ValueError("cone is not pointed")
    rays: list[Vec] = [primitive([row[j] for row in num]) for j in range(dim)]
    chosen_mask = sum(1 << t for t in chosen)
    zerosets = [chosen_mask & ~(1 << t) for t in chosen]
    for t, row in enumerate(rows):
        bit = 1 << t
        if chosen_mask & bit:
            continue
        vals = [sum(map(mul, row, r)) for r in rays]
        if all(v >= 0 for v in vals):
            zerosets = [z | bit if v == 0 else z for z, v in zip(zerosets, vals)]
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        new_rays: list[Vec] = []
        new_zero: list[int] = []
        for p in pos:
            for n in neg:
                meet = zerosets[p] & zerosets[n]
                if any(
                    o != p and o != n and not meet & ~z for o, z in enumerate(zerosets)
                ):
                    continue
                combo = [vals[p] * rn - vals[n] * rp for rp, rn in zip(rays[p], rays[n])]
                new_rays.append(primitive(combo))
                new_zero.append(meet | bit)
        rays = [rays[i] for i in pos] + [rays[i] for i in zero] + new_rays
        zerosets = (
            [zerosets[i] for i in pos] + [zerosets[i] | bit for i in zero] + new_zero
        )
    given = np.array(ineq_rows, dtype=np.int64).reshape(-1, dim)
    product = matmul(given, np.array(rays, dtype=np.int64).reshape(len(rays), dim).T)
    escapes = np.argwhere(product < 0)
    if escapes.size:
        t, j = escapes[0]
        raise RuntimeError(f"ray {rays[j]} violates inequality {t}, {tuple(ineq_rows[t])}")
    live = np.flatnonzero(given.any(1))
    zero = product[live] == 0
    count = zero.sum(1)
    missed = zero.astype(np.int64) @ (~zero).T.astype(np.int64)  # [i, j]: |Z_i - Z_j|
    # row j rules out row i when Z_i is inside Z_j and Z_j is larger or j < i
    above = (count[None, :] > count[:, None]) | np.tri(len(zero), k=-1, dtype=bool)
    facets = ~((missed == 0) & above).any(1)
    masks = [sum(1 << j for j, z in enumerate(on) if z) for on in zero[facets].tolist()]
    return rays, [(tuple(ineq_rows[t]), mask) for t, mask in zip(live[facets].tolist(), masks)]


def _maximal(masks) -> list[int]:
    """The bitmasks that no other one among ``masks`` strictly contains, sorted."""
    return sorted(z for z in masks if not any(z != y and z & ~y == 0 for y in masks))


def _pulled(face: int, facets: list[int], dim: int, memo: dict) -> list[int]:
    """The pulling triangulation of a face of dimension ``dim``, as ray
    bitmasks: each of its facets not holding its first ray, triangulated the
    same way, with that ray joined.  A facet's own facets are the maximal
    ones among its meets with the other facets.  Faces recur, so they are
    kept in ``memo``."""
    if face.bit_count() == dim:  # simplicial
        return [face]
    if face not in memo:
        low = face & -face
        memo[face] = [
            simplex | low
            for f in facets
            if not f & low
            for simplex in _pulled(f, _maximal({f & g for g in facets if g != f}), dim - 1, memo)
        ]
    return memo[face]


def _box_points(cols: list[Vec], den: int, adj) -> list[Vec]:
    """The nonzero lattice points sum_i l_i cols[i] with every l_i in [0, 1),
    where ``adj / den`` is the inverse of the matrix of columns ``cols``.
    Their coefficient vectors times den are the subgroup of (Z/den)^m that
    the columns of adj generate."""
    group = {(0,) * len(cols)}
    for gen in zip(*adj):  # add gen until the group is closed under it
        while (more := {tuple((a + g) % den for a, g in zip(p, gen)) for p in group}) - group:
            group |= more
    rows = list(zip(*cols))
    return [tuple(sum(map(mul, row, c)) // den for row in rows) for c in group if any(c)]


def hilbert_basis(rays: list[Vec], facets: list[tuple[Vec, int]]) -> list[Vec]:
    """Minimal generating set of the monoid of lattice points of the cone,
    sorted.

    The cone is full-dimensional and pointed, as :func:`extreme_rays`
    describes it, with rays componentwise nonnegative (true in the
    edge-length chart, where coordinates are themselves edge inequalities).
    Simplicial unimodular cones shortcut to their rays.  Otherwise the cone
    is triangulated on its rays by pulling from its facets (``_pulled``);
    every irreducible element is a ray or a nonzero point of the half-open
    parallelepiped of some simplex (``_box_points``), d - 1 of them for
    |det| = d.  A candidate x among those is reducible exactly when x - c
    lies in the cone (the facet rows are nonnegative) for another candidate
    c; rays never are (Bruns and Ichim, *Normaliz: algorithms for affine
    monoids and rational cones*, J. Algebra 324, 2010).
    """
    if not rays:
        return []
    dim = len(rays[0])
    if any(v < 0 for r in rays for v in r):
        raise ValueError("hilbert_basis needs nonnegative rays")
    every = (1 << len(rays)) - 1
    if any(mask == every for _, mask in facets):
        raise ValueError("hilbert_basis needs a full-dimensional cone")
    if len(rays) == dim and abs(det(rays)) == 1:
        return sorted(rays)
    points: dict[Vec, None] = {}
    for simplex in _pulled(every, [mask for _, mask in facets], dim, {}):
        cols = [ray for j, ray in enumerate(rays) if simplex >> j & 1]
        den, num = inverse(list(zip(*cols)))
        if den > 1:
            points.update(dict.fromkeys(_box_points(cols, den, num)))
    # the facet rows span, so no other candidate has a candidate's values
    rows = np.array([row for row, _ in facets], dtype=np.int64).reshape(-1, dim)
    values = matmul(np.array([*rays, *points], dtype=np.int64), rows.T)
    below = [(values[t] >= values).all(axis=1).sum() for t in range(len(rays), len(values))]
    return sorted([*rays, *(x for x, n in zip(points, below) if n == 1)])

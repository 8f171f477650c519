"""Exact polyhedral-cone routines: ranks and inverses, extreme rays by double
description, and Hilbert bases of pointed rational cones with nonnegative rays.

Everything runs over integers.  Elimination is fraction-free (Bareiss), so a
rational result comes back as an integer numerator with one positive
denominator; integer matrix products run in int64 and raise rather than wrap.
No floating point ever enters, so cone membership and ray computations are
decisions, not approximations.

Elimination is one row step (``_step``), which ``_eliminate`` folds over a
list of rows.  The double description in ``extreme_rays`` runs on the
distinct primitive inequality rows only, with int bitmasks as zero sets;
repeated rows never change the rays (Fukuda and Prodon, *Double description
method revisited*, 1996).  Its starting rays come from the pass that picks
the first independent rows (``_invert_first``), which carries the identity
along.  :func:`primes.build_catalog` runs it once per maximal cone of its
fan walk, on the cone's rows in the Lusztig chart.  ``hilbert_basis``
triangulates the cone on its rays, with ray bitmasks as faces, and takes
its candidates from the simplices' parallelepipeds, which the inverse of
each simplex (``inverse``) generates.
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
    new = [d * v for v in row]
    for p, red in zip(pivots, reduced):
        if row[p]:
            new = [x - row[p] * y for x, y in zip(new, red)]
    c = next((j for j, v in enumerate(new[:limit]) if v), None)
    if c is None:
        return None
    piv = new[c]
    reduced = [[(piv * x - red[c] * y) // d for x, y in zip(red, new)] for red in reduced]
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


def _distinct(rows) -> list[Vec]:
    """The distinct primitive forms of the nonzero rows, first occurrences in
    order: zero rows and later positive multiples of a row are dropped."""
    out: dict[Vec, None] = {}
    for row in dict.fromkeys(map(tuple, rows)):
        if any(row):
            out.setdefault(primitive(row), None)
    return list(out)


def extreme_rays(ineq_rows: list[Vec], dim: int) -> list[Vec]:
    """Extreme rays of the pointed cone {x in R^dim : A x >= 0}.

    Double description with combinatorial adjacency, run on the distinct
    primitive rows of A (``_distinct``).  A dropped zero row would join every
    zero set, and a dropped positive multiple of an earlier row exactly the
    zero sets holding that row; neither changes an adjacency test, so the
    rays and their order are those of the full list.  Zero sets are int
    bitmasks over the distinct rows, kept exact by the incremental update.
    Raises when the cone is not pointed (rank of A below dim); the closing
    check tests every row passed in.
    """
    if dim == 0:
        return []
    rows = _distinct(ineq_rows)
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
    escapes = np.argwhere(matmul(ineq_rows, np.reshape(rays, (len(rays), dim)).T) < 0)
    if escapes.size:
        t, j = escapes[0]
        raise RuntimeError(f"ray {rays[j]} violates inequality {t}, {tuple(ineq_rows[t])}")
    return rays


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


def hilbert_basis(rays: list[Vec], ineq_rows: list[Vec]) -> list[Vec]:
    """Minimal generating set of the monoid of lattice points of the cone,
    sorted.

    The cone is {x : A x >= 0} for the rows A, full-dimensional and pointed
    with the primitive extreme rays ``rays``, componentwise nonnegative (true
    in the edge-length chart, where coordinates are themselves edge
    inequalities).  Simplicial unimodular cones shortcut to their rays.
    Otherwise the cone is triangulated on its rays by pulling (``_pulled``),
    its facets the maximal zero sets of the rows; every irreducible element
    is a ray or a nonzero point of the half-open parallelepiped of some
    simplex (``_box_points``), d - 1 of them for |det| = d.  A candidate x
    among those is reducible exactly when x - c lies in the cone for another
    candidate c; rays never are (Bruns and Ichim, *Normaliz: algorithms for
    affine monoids and rational cones*, J. Algebra 324, 2010).
    """
    if not rays:
        return []
    dim = len(rays[0])
    if any(v < 0 for r in rays for v in r):
        raise ValueError("hilbert_basis needs nonnegative rays")
    if len(rays) == dim and abs(det(rays)) == 1:
        return sorted(rays)
    rows = np.array([row for row in ineq_rows if any(row)], dtype=np.int64).reshape(-1, dim)
    ray_array = np.array(rays, dtype=np.int64)
    bits = [1 << j for j in range(len(rays))]
    zero = (matmul(rows, ray_array.T) == 0).tolist()
    masks = {sum(b for b, z in zip(bits, row) if z) for row in zero}
    if sum(bits) in masks:
        raise ValueError("hilbert_basis needs a full-dimensional cone")
    simplices = [
        [j for j, b in enumerate(bits) if simplex & b]
        for simplex in _pulled(sum(bits), _maximal(masks), dim, {})
    ]
    points: dict[Vec, None] = {}
    for simplex in simplices:
        cols = [rays[j] for j in simplex]
        den, num = inverse(list(zip(*cols)))
        if den > 1:
            points.update(dict.fromkeys(_box_points(cols, den, num)))
    # the rows span, so no other candidate has a candidate's values
    values = matmul(np.array([*rays, *points], dtype=np.int64), rows.T)
    below = [(values[t] >= values).all(axis=1).sum() for t in range(len(rays), len(values))]
    return sorted([*rays, *(x for x, n in zip(points, below) if n == 1)])

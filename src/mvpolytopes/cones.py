"""Exact polyhedral-cone routines: nullspaces, extreme rays by double
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
marks the pairwise sums of its candidates on int64 arrays, by their
mixed-radix codes in the box.
"""

from __future__ import annotations

from math import gcd
from operator import mul

import numpy as np

from . import _kernels

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


def nullspace(rows, width: int) -> list[Vec]:
    """Primitive integer basis of {x : row . x = 0 for all rows}, one vector per
    free column of the reduced row echelon form, with +1 direction there."""
    _, pivots, reduced, d = _eliminate(rows, width)
    sign = 1 if d > 0 else -1
    basis = []
    for f in sorted(set(range(width)) - set(pivots)):
        vec = [0] * width
        vec[f] = d
        for p, red in zip(pivots, reduced):
            vec[p] = -red[f]
        basis.append(primitive([sign * v for v in vec]))
    return basis


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


# Candidate pairs hilbert_basis sums at a time: 0.13 MB per int64 temporary.
_PAIR_CHUNK = 1 << 14


def hilbert_basis(rays: list[Vec], ineq_rows: list[Vec]) -> list[Vec]:
    """Minimal generating set of the monoid of lattice points of the cone.

    The cone must be pointed with componentwise-nonnegative rays (true in the
    edge-length chart, where coordinates are themselves edge inequalities).
    Simplicial unimodular cones shortcut to their rays; otherwise candidates
    are the nonzero lattice points of the box bounded by the ray sum, which
    contains the zonotope where all irreducible elements live.  A candidate
    is reducible exactly when it is the sum of two candidates: the pairwise
    sums that stay in the box are matched to candidates by their mixed-radix
    box codes, a chunk of pairs at a time.
    """
    if not rays:
        return []
    dim = len(rays[0])
    if any(v < 0 for r in rays for v in r):
        raise ValueError("hilbert_basis needs nonnegative rays")
    if len(rays) == dim and abs(det(rays)) == 1:
        return sorted(rays)
    bounds = np.array([sum(r[j] for r in rays) for j in range(dim)], dtype=np.int64)
    ineqs = np.array(ineq_rows, dtype=np.int64).reshape(-1, dim)
    pts = _kernels.filter_box_points(bounds, ineqs)
    pts = pts[pts.any(axis=1)]  # lex ascending, so codes ascend too
    radix = np.cumprod([1, *(bounds[:0:-1] + 1)])[::-1]
    codes = pts @ radix
    cols = pts.T.copy()
    reducible = np.zeros(len(pts), dtype=bool)
    step = max(1, _PAIR_CHUNK // max(len(pts), 1))
    for i in range(0, len(pts), step):
        # pairs (a, b) with a in this chunk and b not before it
        inside = np.ones((min(step, len(pts) - i), len(pts) - i), dtype=bool)
        for col, bound in zip(cols, bounds):
            inside &= col[i : i + step, None] + col[None, i:] <= bound
        sums = (codes[i : i + step, None] + codes[None, i:])[inside]
        at = np.minimum(np.searchsorted(codes, sums), len(codes) - 1)
        reducible[at[codes[at] == sums]] = True
    return [tuple(int(v) for v in g) for g in pts[~reducible]]

"""Exact polyhedral-cone routines: nullspaces, extreme rays by double
description, and Hilbert bases of pointed rational cones with nonnegative rays.

Everything runs over integers.  Elimination is fraction-free (Bareiss), so a
rational result comes back as an integer numerator with one positive
denominator; integer matrix products run in int64 and raise rather than wrap.
No floating point ever enters, so cone membership and ray computations are
decisions, not approximations.

Elimination is one row step (``_step``) that leaves its input state intact:
``_eliminate`` folds it over a list, and ``product_nullspaces`` pushes it
along a tree of row choices, so choices with a common prefix share the
elimination of that prefix.  The double description in ``extreme_rays`` runs
on the distinct primitive inequality rows only, with int bitmasks as zero
sets; repeated rows never change the rays (Fukuda and Prodon, *Double
description method revisited*, 1996).
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


def _step(pivots: tuple[int, ...], reduced: list[list[int]], d: int, row):
    """One fraction-free (Bareiss) Gauss-Jordan step: reduce ``row`` against the
    state ``(pivots, reduced, d)`` and return the state with it kept, or None
    when the row depends on the rows already kept.  The state passed in is
    left as it was, so states can be shared along a tree of pushes.
    """
    row = [int(v) for v in row]
    new = [d * v for v in row]
    for p, red in zip(pivots, reduced):
        if row[p]:
            new = [x - row[p] * y for x, y in zip(new, red)]
    c = next((j for j, v in enumerate(new) if v), None)
    if c is None:
        return None
    piv = new[c]
    reduced = [[(piv * x - red[c] * y) // d for x, y in zip(red, new)] for red in reduced]
    reduced.append(new)
    return (*pivots, c), reduced, piv


def _eliminate(rows, width: int, stop: int | None = None):
    """Fraction-free Gauss-Jordan elimination (Bareiss) over the rows in order.

    Returns ``(kept, pivots, reduced, d)``: the indices of the rows independent
    of the rows before them, their pivot columns, and the reduced rows, which
    are ``d`` times the reduced row echelon form of the kept rows.  ``d`` is the
    minor of the kept rows at the pivot columns in that order (1 when no row is
    kept).  Every entry is such a minor, so by Sylvester's identity each
    division in ``_step`` is exact.  Stops once ``stop`` rows are kept.
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
        if len(kept) == stop:
            break
    return kept, pivots, reduced, d


def rank(rows) -> int:
    rows = list(rows)
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[0])


def nullspace(rows, width: int) -> list[Vec]:
    """Primitive integer basis of {x : row . x = 0 for all rows}, one vector per
    free column of the reduced row echelon form, with +1 direction there."""
    return _basis(*_eliminate(rows, width)[1:], width)


def product_nullspaces(fixed, levels, width: int):
    """Yield ``nullspace(fixed + list(choice), width)`` for every ``choice`` in
    ``itertools.product(*levels)``, in that order.

    The fixed rows are eliminated once, and each level pushes one row onto
    the state of its prefix, so choices that share a prefix share its
    elimination: a tree of pushes instead of one elimination per choice.
    """
    for level in levels:
        for row in level:
            if len(row) != width:
                raise ValueError(f"level row has width {len(row)}, not {width}")
    yield from _walk(_eliminate(fixed, width)[1:], tuple(levels), width)


def _walk(state, levels, width: int):
    if not levels:
        yield _basis(*state, width)
        return
    rest = levels[1:]
    for row in levels[0]:
        yield from _walk(_step(*state, row) or state, rest, width)


def _basis(pivots, reduced, d: int, width: int) -> list[Vec]:
    sign = 1 if d > 0 else -1
    basis = []
    for f in sorted(set(range(width)) - set(pivots)):
        vec = [0] * width
        vec[f] = d
        for p, red in zip(pivots, reduced):
            vec[p] = -red[f]
        basis.append(primitive([sign * v for v in vec]))
    return basis


def inverse(mat) -> tuple[int, list[list[int]]]:
    """``(den, num)`` with ``den > 0`` and ``mat`` inverse equal to ``num / den``."""
    q = len(mat)
    aug = [[*row, *(int(i == j) for j in range(q))] for i, row in enumerate(mat)]
    _, pivots, reduced, d = _eliminate(aug, 2 * q)
    if any(p >= q for p in pivots):
        raise ValueError("matrix is singular")
    sign = 1 if d > 0 else -1
    num: list[list[int]] = [[]] * q
    for p, red in zip(pivots, reduced):
        num[p] = [sign * v for v in red[q:]]
    return abs(d), num


def det(mat) -> int:
    q = len(mat)
    kept, pivots, _, d = _eliminate(mat, q)
    if len(kept) < q:
        return 0
    swaps = sum(a > b for t, a in enumerate(pivots) for b in pivots[t + 1 :])
    return -d if swaps % 2 else d


def matmul(a, b) -> np.ndarray:
    """Integer matrix product in int64 that raises OverflowError, never wraps.

    Every entry is a sum of ``inner`` products bounded by ``max|a| * max|b|``,
    so the result is exact while ``max|a| * max|b| * inner`` stays below 2**62.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    bound = _absmax(a) * _absmax(b) * a.shape[-1]
    if bound >= 1 << 62:
        raise OverflowError(f"int64 product bound {bound} reaches 2**62")
    return a @ b


def _absmax(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


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
    chosen = _eliminate(rows, dim, stop=dim)[0]
    if len(chosen) < dim:
        raise ValueError("cone is not pointed")
    _, num = inverse([rows[i] for i in chosen])
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


def hilbert_basis(rays: list[Vec], ineq_rows: list[Vec]) -> list[Vec]:
    """Minimal generating set of the monoid of lattice points of the cone.

    The cone must be pointed with componentwise-nonnegative rays (true in the
    edge-length chart, where coordinates are themselves edge inequalities).
    Simplicial unimodular cones shortcut to their rays; otherwise candidates
    are the lattice points of the box bounded by the ray sum, which contains
    the zonotope where all irreducible elements live.
    """
    if not rays:
        return []
    dim = len(rays[0])
    if any(v < 0 for r in rays for v in r):
        raise ValueError("hilbert_basis needs nonnegative rays")
    if len(rays) == rank(rays) == dim and abs(det(rays)) == 1:
        return sorted(rays)
    bounds = np.array([sum(r[j] for r in rays) for j in range(dim)], dtype=np.int64)
    ineqs = np.array(ineq_rows, dtype=np.int64).reshape(-1, dim)
    pts = _kernels.filter_box_points(bounds, ineqs)
    cands = {tuple(int(v) for v in row) for row in pts}
    cands.discard(tuple([0] * dim))
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

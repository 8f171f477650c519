"""Integer kernels: the partition-function enumeration and the box filter.

Both are vectorized numpy and emit rows in lexicographically ascending
order, so results are deterministic and callers can compare them directly.
"""

from __future__ import annotations

import math

import numpy as np

# Rows one step of the partition-function frontier may expand to.  The tests
# reach 20,301 rows and the benchmark workloads 80; a larger request (say a
# coordinate of 10**12) is refused before numpy tries to allocate it.
MAX_ROWS = 1 << 22
# Box points the box filter decodes and tests at a time.
BOX_CHUNK = 1 << 16


def resolve_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "numpy"


def _suffix_support(parts: np.ndarray) -> np.ndarray:
    """supp[pos, j] is True when some row at index >= pos has a positive j-entry."""
    m, r = parts.shape
    supp = np.zeros((m + 1, r), dtype=np.bool_)
    for pos in range(m - 1, -1, -1):
        supp[pos] = supp[pos + 1] | (parts[pos] > 0)
    return supp


def _alive(rems: np.ndarray, supp: np.ndarray) -> np.ndarray:
    """Rows whose remainder is nonnegative and covered by the parts left."""
    return (rems >= 0).all(axis=1) & ~((rems > 0) & ~supp[None, :]).any(axis=1)


def _branch(rems: np.ndarray, part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row index, multiple of part) for every multiple each row can still take."""
    pos_cols = part > 0
    if pos_cols.any():
        caps = (rems[:, pos_cols] // part[pos_cols][None, :]).min(axis=1)
    else:
        caps = np.zeros(rems.shape[0], dtype=np.int64)
    # the clipped sum cannot wrap; past the limit, count again in Python ints
    if int(np.minimum(caps, MAX_ROWS).sum()) + len(caps) > MAX_ROWS:
        total = sum(map(int, caps)) + len(caps)
        raise ValueError(
            f"the partition-function frontier would grow to {total} rows, "
            f"above the limit of {MAX_ROWS}"
        )
    reps = caps + 1
    idx = np.repeat(np.arange(rems.shape[0]), reps)
    counts = np.arange(idx.shape[0]) - np.repeat(np.cumsum(reps) - reps, reps)
    return idx, counts


def _combinations_numpy(parts: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Frontier expansion over positions; rows come out lex ascending."""
    m, r = parts.shape
    supp = _suffix_support(parts)
    rems = target[None, :].copy()
    prefs = np.zeros((1, 0), dtype=np.int64)
    for pos in range(m):
        alive = _alive(rems, supp[pos])
        rems, prefs = rems[alive], prefs[alive]
        if rems.shape[0] == 0:
            return np.zeros((0, m), dtype=np.int64)
        idx, counts = _branch(rems, parts[pos])
        rems = rems[idx] - counts[:, None] * parts[pos][None, :]
        prefs = np.concatenate([prefs[idx], counts[:, None]], axis=1)
    done = (rems == 0).all(axis=1)
    return np.ascontiguousarray(prefs[done])


def _count_numpy(parts: np.ndarray, target: np.ndarray) -> int:
    """The same frontier with equal remainders merged, each carrying the number
    of prefixes that reach it, so memory follows the distinct remainders."""
    supp = _suffix_support(parts)
    rems = target[None, :]
    mult = np.ones(1, dtype=np.int64)
    for pos, part in enumerate(parts):
        alive = _alive(rems, supp[pos])
        rems, mult = rems[alive], mult[alive]
        if rems.shape[0] == 0:
            return 0
        idx, counts = _branch(rems, part)
        mult = mult[idx]
        if int(mult.max()) * mult.shape[0] >= 1 << 63:
            raise OverflowError(f"more than 2**63 combinations after part {pos}")
        rems = rems[idx] - counts[:, None] * part[None, :]
        order = np.lexsort(rems.T)
        rems, mult = rems[order], mult[order]
        first = np.flatnonzero(np.r_[True, (rems[1:] != rems[:-1]).any(axis=1)])
        rems, mult = rems[first], np.add.reduceat(mult, first)
    return int(mult[(rems == 0).all(axis=1)].sum())


def _box_numpy(bounds: np.ndarray, ineqs: np.ndarray) -> np.ndarray:
    r = bounds.shape[0]
    dims = bounds.astype(np.int64) + 1
    total = math.prod(int(d) for d in dims)
    keep_rows = []
    for start in range(0, total, BOX_CHUNK):
        idxs = np.arange(start, min(start + BOX_CHUNK, total), dtype=np.int64)
        x = np.empty((idxs.shape[0], r), dtype=np.int64)
        rem = idxs
        for j in range(r - 1, -1, -1):
            x[:, j] = rem % dims[j]
            rem = rem // dims[j]
        keep = (x @ ineqs.T >= 0).all(axis=1) if ineqs.shape[0] else np.ones(len(x), bool)
        keep_rows.append(x[keep])
    if not keep_rows:
        return np.zeros((0, r), dtype=np.int64)
    return np.ascontiguousarray(np.concatenate(keep_rows, axis=0))


def _as_i64(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.int64))


def count_nonneg_combinations(parts, target) -> int:
    """Number of nonnegative integer vectors c with sum_l c_l parts[l] == target."""
    return _count_numpy(_as_i64(parts), _as_i64(target))


def enumerate_nonneg_combinations(parts, target) -> np.ndarray:
    """All such vectors c as rows, in lexicographically ascending order."""
    return _combinations_numpy(_as_i64(parts), _as_i64(target))


def filter_box_points(bounds, ineqs) -> np.ndarray:
    """Lattice points x with 0 <= x <= bounds and ineqs @ x >= 0, lex ascending."""
    bounds, ineqs = _as_i64(bounds), _as_i64(ineqs)
    if ineqs.ndim != 2:
        ineqs = ineqs.reshape(-1, bounds.shape[0])
    return _box_numpy(bounds, ineqs)

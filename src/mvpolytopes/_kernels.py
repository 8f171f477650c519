"""Integer kernels: the partition-function count and enumeration.

Both are vectorized numpy; the enumeration emits rows in lexicographically
ascending order, so results are deterministic and callers can compare them
directly.
"""

from __future__ import annotations

import numpy as np

# Rows one step of the partition-function frontier may expand to.  The tests
# reach 20,301 rows and the benchmark workloads 80; a larger request (say a
# coordinate of 10**12) is refused before numpy tries to allocate it.
MAX_ROWS = 1 << 22


def resolve_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "numpy"


def _suffix_support(parts: np.ndarray) -> np.ndarray:
    """supp[pos, j] is True when some row at index >= pos has a positive j-entry."""
    positive = np.vstack([parts > 0, np.zeros((1, parts.shape[1]), dtype=bool)])
    return np.logical_or.accumulate(positive[::-1], axis=0)[::-1]


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


def as_target(coords: tuple[int, ...], what: str) -> np.ndarray:
    """The coordinates as the int64 target of a kernel, or a ValueError that
    names ``what`` and the first coordinate that does not fit in 64 bits."""
    for c in coords:
        if not -(1 << 63) <= c < 1 << 63:
            raise ValueError(f"{what} {coords}: coordinate {c} does not fit in 64 bits")
    return np.array(coords, dtype=np.int64)


def _as_i64(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.int64))


def count_nonneg_combinations(parts, target) -> int:
    """Number of nonnegative integer vectors c with sum_l c_l parts[l] == target,
    by the enumeration's frontier with equal remainders merged, each carrying
    the number of prefixes that reach it, so memory follows the remainders."""
    parts = _as_i64(parts)
    supp = _suffix_support(parts)
    rems = _as_i64(target)[None, :]
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


def enumerate_nonneg_combinations(parts, target) -> np.ndarray:
    """All such vectors c as rows, in lexicographically ascending order: a
    frontier expansion over positions."""
    parts = _as_i64(parts)
    m, r = parts.shape
    supp = _suffix_support(parts)
    rems = _as_i64(target)[None, :].copy()
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


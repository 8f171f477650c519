import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpolytopes import _kernels as K


def brute_combinations(parts, target):
    """Reference: bounded product scan."""
    m = len(parts)
    caps = []
    for row in parts:
        cap = min(
            (t // r for r, t in zip(row, target) if r > 0),
            default=0,
        )
        caps.append(cap)
    out = []
    for c in itertools.product(*(range(k + 1) for k in caps)):
        if all(
            sum(c[l] * parts[l][j] for l in range(m)) == target[j]
            for j in range(len(target))
        ):
            out.append(c)
    return sorted(out)


def test_combinations_frozen_a2():
    parts = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.int64)
    target = np.array([1, 1], dtype=np.int64)
    rows = K.enumerate_nonneg_combinations(parts, target)
    assert rows.tolist() == [[0, 1, 0], [1, 0, 1]]
    assert K.count_nonneg_combinations(parts, target) == 2


def test_combinations_empty_target():
    parts = np.array([[1, 0], [0, 1]], dtype=np.int64)
    assert K.count_nonneg_combinations(parts, np.array([0, 0])) == 1
    assert K.count_nonneg_combinations(parts, np.array([-1, 0])) == 0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda r: st.tuples(
            st.lists(
                st.lists(st.integers(0, 3), min_size=r, max_size=r).filter(any),
                min_size=1,
                max_size=5,
            ),
            st.lists(st.integers(0, 6), min_size=r, max_size=r),
        )
    )
)
def test_combinations_match_bruteforce_and_each_other(parts_target):
    parts, target = parts_target
    p = np.array(parts, dtype=np.int64)
    t = np.array(target, dtype=np.int64)
    expected = brute_combinations(parts, target)
    rows = K.enumerate_nonneg_combinations(p, t)
    assert [tuple(r) for r in rows.tolist()] == expected
    assert K.count_nonneg_combinations(p, t) == len(expected)


def test_count_without_materialising_rows():
    # compositions of 40 into 6 parts: C(45, 5) rows would take about 59 MB
    parts = np.ones((6, 1), dtype=np.int64)
    tracemalloc.start()
    try:
        count = K.count_nonneg_combinations(parts, np.array([40]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == math.comb(45, 5)
    assert peak < 1 << 20


def test_count_refuses_to_wrap():
    # C(239, 39) compositions of 200 into 40 parts, far beyond int64
    parts = np.ones((40, 1), dtype=np.int64)
    with pytest.raises(OverflowError):
        K.count_nonneg_combinations(parts, np.array([200]))

"""Lusztig data: nonnegative integer vectors attached to reduced words of w0.

A vector n = (n_1, ..., n_m) along a reduced word i encodes the path of
vertices mu_k = sum_{l <= k} n_l beta_l through the polytope, where beta_l are
the positive coroots in word order.  Changing the word by a braid move
transforms n by a piecewise-linear involution; the total coweight sum n_l
beta_l is preserved.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .cartan import Coweight, _integers
from .tables import index_table
from .weyl import BraidEdge, WeylGroup


def _checked(group: WeylGroup, n) -> tuple[int, ...]:
    """n as a tuple of plain ints, after checking its entries, length and signs.

    A tuple of plain ints, the common case and the one every transition
    returns, is checked entry by entry for its type and not copied.
    """
    n = _integers(n, "Lusztig datum entry")
    if len(n) != group.m:
        raise ValueError(f"need {group.m} entries, got {len(n)}")
    if min(n) < 0:
        raise ValueError(f"Lusztig data must be nonnegative, got {n}")
    return n


def braid_transition(group: WeylGroup, edge: BraidEdge, n) -> tuple[int, ...]:
    """Transport Lusztig data across one braid move of the underlying word."""
    return _move(group, edge, _checked(group, n))


def _move(group: WeylGroup, edge: BraidEdge, n: tuple[int, ...]) -> tuple[int, ...]:
    """:func:`braid_transition` on data that :func:`_checked` has passed.

    A chain of moves checks n once, on entry; each move still refuses a
    window it would send to a negative entry.
    """
    k, d = edge.k, edge.d
    window = n[k : k + d]
    if d == 2:
        new = (window[1], window[0])
    elif d == 3:
        t1, t2, t3 = window
        p = min(t1, t3)
        new = (t2 + t3 - p, p, t1 + t2 - p)
    elif d == 4:
        n1, n2, n3, n4 = window
        x, y = edge.i, edge.j
        p1 = min(n1 + n2, n1 + n4, n3 + n4)
        if group.cartan.a[x - 1][y - 1] == -1:
            p2 = min(n1 + 2 * n2, n1 + 2 * n4, n3 + 2 * n4)
            new = (n2 + n3 + n4 - p1, 2 * p1 - p2, p2 - p1, n1 + 2 * n2 + n3 - p2)
        else:
            p2 = min(2 * n1 + n2, 2 * n1 + n4, 2 * n3 + n4)
            new = (n2 + 2 * n3 + n4 - p2, p2 - p1, 2 * p1 - p2, n1 + n2 + n3 - p1)
    else:  # pragma: no cover
        raise RuntimeError(f"unsupported braid window length {d} on edge {edge}")
    if min(new) < 0:
        raise RuntimeError(
            f"braid move {edge.src} -> {edge.dst} at positions {k}..{k + d - 1} "
            f"sent window {window} to {new}, which has a negative entry"
        )
    return n[:k] + new + n[k + d :]


def word_path(group: WeylGroup, src, dst) -> tuple[BraidEdge, ...]:
    """A chain of braid moves from one reduced word to another.

    It follows the parent edges of the group's index table from ``src`` up
    toward ``reference_word`` and back down to ``dst``, turning at the first
    word the two parent chains share.  The chain is at most twice the depth
    of the parent tree long, and need not be the shortest one.
    """
    src, dst = tuple(src), tuple(dst)
    parent = index_table(group).parent
    for word in (src, dst):
        if word not in parent:
            raise ValueError(f"endpoint {word} is not a reduced word for w0")
    up, down = _chain_up(parent, src), _chain_up(parent, dst)
    while up and down and up[-1] == down[-1]:
        up.pop()
        down.pop()
    return tuple(up) + tuple(BraidEdge(e.dst, e.src, e.k, e.d) for e in reversed(down))


def _chain_up(parent, word) -> list[BraidEdge]:
    chain = []
    while (edge := parent[word]) is not None:
        chain.append(edge)
        word = edge.dst
    return chain


def transport(group: WeylGroup, src, dst, n) -> tuple[int, ...]:
    """Move Lusztig data from word ``src`` to word ``dst`` along braid moves."""
    n = _checked(group, n)
    for edge in word_path(group, src, dst):
        n = _move(group, edge, n)
    return n


def enumerate_lusztig(group: WeylGroup, word, mu: Coweight) -> list[tuple[int, ...]]:
    """All Lusztig data along ``word`` with total coweight mu, lex ascending."""
    word = tuple(word)
    if mu.cartan != group.cartan:
        raise ValueError("coweight belongs to a different Cartan datum")
    data = group.word_data(word)
    parts = np.array([b.coords for b in data.coroots], dtype=np.int64)
    target = np.array(mu.coords, dtype=np.int64)
    rows = _kernels.enumerate_nonneg_combinations(parts, target)
    return [tuple(int(v) for v in row) for row in rows]

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


def parent_tree(group: WeylGroup) -> dict[tuple[int, ...], BraidEdge | None]:
    """For each reduced word of w0, the braid edge one step toward the
    reference word (None at it), kept on the group like its index table.

    The tree grows breadth first over the braid graph's move arrays, not its
    ``adjacency``: each level takes the moves that first reach its words, in
    queue order.  A flipped window alternates again, so the reverse of a move
    is a move of its dst at the same k.
    """
    if group._parent_tree is not None:
        return group._parent_tree
    graph, words = group.braid_graph(), group.braid_graph().words
    parent = {group.reference_word: None}
    seen = np.arange(len(words)) == words.index(group.reference_word)
    frontier = np.flatnonzero(seen)
    while frontier.size:
        lo, count = graph.starts[frontier], graph.starts[frontier + 1] - graph.starts[frontier]
        # the moves of every frontier word, one after another
        ids = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
        ids = ids[~seen[graph.dst[ids]]]
        ids = ids[np.sort(np.unique(graph.dst[ids], return_index=True)[1])]
        frontier = graph.dst[ids]
        seen[frontier] = True
        src, k, d, dst = (a[ids].tolist() for a in (graph.src, graph.k, graph.d, graph.dst))
        parent.update(
            (words[t], BraidEdge(words[t], words[s], at, span))
            for s, t, at, span in zip(src, dst, k, d)
        )
    if len(parent) != len(words):
        raise RuntimeError("braid graph is not connected")
    group._parent_tree = parent
    return parent


def word_path(group: WeylGroup, src, dst) -> tuple[BraidEdge, ...]:
    """A chain of braid moves from one reduced word to another.

    It follows the edges of :func:`parent_tree`, which the first call builds,
    from ``src`` up toward ``reference_word`` and back down to ``dst``,
    turning at the first word the two parent chains share.  The chain is at
    most twice the depth of the parent tree long, and need not be the
    shortest one.
    """
    src, dst = tuple(src), tuple(dst)
    parent = parent_tree(group)
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

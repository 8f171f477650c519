"""The array braid graph and parent tree against loop references, and the
assembly program against the transport plan it replaced.

``loop_braid_graph`` lists the reduced words of w0 with
``WeylGroup.reduced_words`` and finds every braid move by slicing each word
in Python; ``loop_parents`` grows ``lusztig.parent_tree`` breadth first over
that adjacency.  ``loop_plan`` grows a transport plan over it, on tuples and
bit masks: a chain of braid moves from the reference word through stops
whose chamber weights gamma_k cover every chamber weight.
``plan_from_lusztig`` assembles a datum along that plan, reading each stop's
values off its Lusztig data.  They read the Cartan matrix and the group's
right table and chamber indices, never the braid arrays or the program they
check.
"""

import hashlib
from collections import deque
from typing import NamedTuple

import numpy as np
import pytest

from mvpolytopes import bz, lusztig
from mvpolytopes.cartan import build_cartan
from mvpolytopes.tables import index_table
from mvpolytopes.weyl import BraidEdge, WeylGroup, weyl_group
from test_assembly_oracle import n_to_partial_M, random_data

GROUPS = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 3), ("D", 4),
]


def loop_braid_graph(group):
    """(words, adjacency): the reduced words of w0 in lexicographic order and,
    per word, its braid moves in order of position."""
    a = group.cartan.a
    words = group.reduced_words(group.w0)
    node_set = set(words)
    adjacency = {}
    for word in words:
        out = []
        for k in range(group.m - 1):
            x, y = word[k], word[k + 1]
            d = {0: 2, 1: 3, 2: 4}[a[x - 1][y - 1] * a[y - 1][x - 1]]
            if k + d > group.m:
                continue
            window = word[k : k + d]
            alt = tuple(x if t % 2 == 0 else y for t in range(d))
            if window != alt:
                continue
            flipped = tuple(y if t % 2 == 0 else x for t in range(d))
            dst = word[:k] + flipped + word[k + d :]
            assert dst in node_set, (word, k)
            out.append(BraidEdge(word, dst, k, d))
        adjacency[word] = tuple(out)
    return words, adjacency


def loop_parents(words, adjacency, ref):
    """For each word, the braid edge one step back along a breadth-first tree
    grown from ``ref``, in the order the tree reaches the words."""
    parent = {ref: None}
    queue = deque([ref])
    while queue:
        word = queue.popleft()
        for e in adjacency[word]:
            if e.dst not in parent:
                parent[e.dst] = BraidEdge(e.dst, e.src, e.k, e.d)
                queue.append(e.dst)
    assert len(parent) == len(words)
    return parent


class Stop(NamedTuple):
    """A word of the plan whose chamber weights get values; ``edges`` lead to
    it from the previous stop (none for the reference word)."""

    word: tuple[int, ...]
    edges: tuple[BraidEdge, ...]


def loop_plan(group, words, adjacency):
    """Greedy cover of the chamber weights: from each stop, the nearest word
    that adds uncovered chamber weights, the first found breadth first of
    those adding the most."""
    chamber, right = index_table(group).chamber_array.tolist(), group._right_array.tolist()
    masks = {}
    for word in words:
        t, mask = 0, 0
        for i in word:
            t = right[t][i - 1]
            mask |= 1 << chamber[t][i - 1]
        masks[word] = mask
    full = (1 << len(group.chamber_weights())) - 1
    at = group.reference_word
    covered = masks[at]
    for t in chamber[0]:
        covered |= 1 << t
    stops = [Stop(at, ())]
    while covered != full:
        via = {}
        level, best, gain = [at], at, 0
        while not gain:
            assert level, "reduced words of w0 miss some chamber weight"
            nxt = []
            for word in level:
                for e in adjacency[word]:
                    if e.dst == at or e.dst in via:
                        continue
                    via[e.dst] = e
                    nxt.append(e.dst)
                    new = (masks[e.dst] & ~covered).bit_count()
                    if new > gain:
                        best, gain = e.dst, new
            level = nxt
        path = []
        word = best
        while word != at:
            path.append(via[word])
            word = via[word].src
        at = best
        covered |= masks[at]
        stops.append(Stop(at, tuple(reversed(path))))
    return tuple(stops)


@pytest.mark.parametrize("family,rank", GROUPS)
def test_arrays_match_the_loops(family, rank):
    g = weyl_group(build_cartan(family, rank))
    words, adjacency = loop_braid_graph(g)
    graph = g.braid_graph()
    assert graph.words == words
    assert list(graph.adjacency.items()) == list(adjacency.items())
    parent = loop_parents(words, adjacency, g.reference_word)
    assert list(lusztig.parent_tree(g).items()) == list(parent.items())
    plan = loop_plan(g, words, adjacency)
    rng = np.random.default_rng(100 * rank + ord(family))
    for word, n in random_data(g, rng, 4):
        want = plan_from_lusztig(g, parent, plan, word, n)
        assert bz.from_lusztig(g, word, n) == want, (word, n)


def plan_from_lusztig(group, parent, plan, word, n):
    """The datum with Lusztig data n along ``word``, read off the stops of
    the plan after moving n along ``parent`` to the reference word; a
    chamber weight reached twice must get the same value both times."""
    while parent[word] is not None:
        n = lusztig.braid_transition(group, parent[word], n)
        word = parent[word].dst
    values = {}
    for stop in plan:
        for edge in stop.edges:
            n = lusztig.braid_transition(group, edge, n)
        for coords, value in n_to_partial_M(group, stop.word, n).items():
            assert values.setdefault(coords, value) == value, (stop.word, coords)
    return bz.make_bz(group, values)


# sha256 of repr(sorted((src, dst, k, d) of every parent edge)): the parent
# trees of the frontier-array search that the plain breadth-first one replaced
PARENT_TREE_SHA256 = {
    ("A", 3): "b182eff952e9d4a9400759c287e456be01d54859663cfd936d19affb8f8ad916",
    ("B", 3): "c3958986bc5c9c92e4e31b1fcce6f5a43fd4f3bf07e0907c590a5337ff2200b9",
    ("C", 3): "c3958986bc5c9c92e4e31b1fcce6f5a43fd4f3bf07e0907c590a5337ff2200b9",
    ("A", 4): "cc3e40576075cf9985b7256ed791b586bb887209334d97c13dcfc9d7a797ba45",
    ("D", 4): "a11545c5ae81c22bde32ee592d35fbb3aa9c75f9e5da06c290d8b27303ecaf96",
}


@pytest.mark.parametrize("family,rank", sorted(PARENT_TREE_SHA256))
def test_parent_tree_is_pinned_and_breadth_first(family, rank):
    """The tree is unchanged, and each word's chain up it is as long as the
    word's distance to the reference word in the braid graph."""
    g = WeylGroup(build_cartan(family, rank))
    parent = lusztig.parent_tree(g)
    rows = sorted((e.src, e.dst, e.k, e.d) for e in parent.values() if e is not None)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PARENT_TREE_SHA256[family, rank]
    adjacency, ref = g.braid_graph().adjacency, g.reference_word
    distance, queue = {ref: 0}, deque([ref])
    while queue:
        word = queue.popleft()
        for e in adjacency[word]:
            if e.dst not in distance:
                distance[e.dst] = distance[word] + 1
                queue.append(e.dst)
    assert len(distance) == len(parent)
    for word, d in distance.items():
        assert len(lusztig.word_path(g, word, ref)) == d, word


def test_table_reads_no_adjacency():
    g = WeylGroup(build_cartan("D", 4))
    index_table(g)
    parent = lusztig.parent_tree(g)
    graph = g.braid_graph()
    assert "adjacency" not in vars(graph)  # made on first access only
    assert len(parent) == len(graph.words) == 2316
    assert len(graph.adjacency) == 2316 and "adjacency" in vars(graph)
    with pytest.raises(TypeError):
        graph.adjacency[g.reference_word] = ()


def test_move_arrays_are_sorted_by_word_then_position(b3):
    graph = b3.braid_graph()
    order = np.lexsort((graph.k, graph.src))
    assert (order == np.arange(len(order))).all()
    assert graph.starts[0] == 0 and graph.starts[-1] == len(graph.src)
    for x in range(len(graph.words)):
        assert (graph.src[graph.starts[x] : graph.starts[x + 1]] == x).all()
    # a move and its reverse: the flipped window alternates again at k
    back = {(s, k): t for s, k, t in zip(graph.src.tolist(), graph.k.tolist(), graph.dst.tolist())}
    assert all(back[t, k] == s for (s, k), t in back.items())


def test_a_flip_outside_the_words_is_refused():
    g = WeylGroup(build_cartan("A", 2))
    # claim s_1 s_2 has order 2: then 1 2 1 would flip to 2 1 1
    g._orders = np.array([[1, 2], [2, 1]])
    with pytest.raises(RuntimeError, match=r"at 0 of \(1, 2, 1\) gives \(2, 1, 1\), not a reduced"):
        g.braid_graph()


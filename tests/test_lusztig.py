import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpolytopes import bz, lusztig, polytope
from mvpolytopes.cartan import build_cartan
from mvpolytopes.tables import index_table
from mvpolytopes.weyl import BraidEdge, WeylGroup
from test_assembly_oracle import coweight_of
from test_weyl import braid_adjacency, reduced_words


def edges_of(group):
    out = []
    for moves in braid_adjacency(group.braid_graph()).values():
        out.extend(moves)
    return out


def test_coweight_of(a2):
    mu = coweight_of(a2, (1, 2, 1), (2, 1, 1))
    assert mu.coords == (3, 2)
    assert polytope.coweight(a2, bz.from_lusztig(a2, (1, 2, 1), (2, 1, 1))) == mu


def test_negative_rejected(a2):
    with pytest.raises(ValueError):
        bz.from_lusztig(a2, (1, 2, 1), (1, -1, 0))
    with pytest.raises(ValueError):
        bz.from_lusztig(a2, (1, 2, 1), (1, 1))


def test_transport_checks_input_when_words_agree(a2):
    w = a2.reference_word
    for n in [(-1, 5), (1,), (-1, 5, 0)]:
        with pytest.raises(ValueError):
            lusztig.transport(a2, w, w, n)
        with pytest.raises(ValueError):
            lusztig.transport(a2, w, (2, 1, 2), n)
    assert lusztig.transport(a2, w, w, [2, 1, 1]) == (2, 1, 1)


def test_a_bad_endpoint_is_named(a2):
    """transport and from_lusztig name the word that is not a reduced word of w0."""
    w, n = a2.reference_word, (1, 2, 0)
    for bad in [(1, 2), (1, 1, 2), (2, 1, 2, 1), (1, 2, 3)]:
        for src, dst in [(bad, w), (w, bad), (bad, (2, 1, 2)), (bad, bad)]:
            with pytest.raises(ValueError, match=rf"^endpoint {re.escape(str(bad))} is not"):
                lusztig.transport(a2, src, dst, n)
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            bz.from_lusztig(a2, bad, n)


def test_lusztig_data_checks_its_word_without_the_object_caches(vectors_built):
    """Assembling along a word other than the reference word, and reading the
    data back along it, walk the int right table and build no Weight or
    Coweight object.  Only the group's chamber weights are objects, made once
    with its index table."""
    g = WeylGroup(build_cartan("D", 4))
    index_table(g)
    assert vectors_built == {"Weight": len(g.chamber_weights())}
    vectors_built.clear()
    word = g.braid_graph().words[-1]
    n = tuple(k % 3 for k in range(g.m))
    d = bz.from_lusztig(g, word, n)
    assert word != g.reference_word
    assert bz.lusztig_data(g, d, word) == n
    assert not vectors_built
    with pytest.raises(ValueError, match="^need a reduced word for w0 of length 12"):
        bz.lusztig_data(g, d, word[:-1])
    with pytest.raises(ValueError, match="is not a word for the longest element$"):
        bz.lusztig_data(g, d, word[:-1] + word[-2:-1])
    with pytest.raises(IndexError, match=r"^simple index 5 out of range 1\.\.4"):
        bz.lusztig_data(g, d, (5,) + word[1:])
    assert not vectors_built


def test_transition_checks_and_copies_only_foreign_entries(a2):
    edge = next(e for e in edges_of(a2) if e.src == (1, 2, 1))
    for n in [(1, -1, 0), (1, 1), (0, 0, 0, 0)]:
        with pytest.raises(ValueError):
            lusztig.braid_transition(a2, edge, n)
    for n in [np.array([2, 1, 1]), [np.int32(2), 1, 1]]:
        out = lusztig.braid_transition(a2, edge, n)
        assert out == lusztig.braid_transition(a2, edge, (2, 1, 1))
        assert {type(v) for v in out} == {int}
    # int() would read these as (1, 1, 1) and (2, 1, 1)
    for n in [(True, 1, 1), [2.0, 1, 1]]:
        with pytest.raises(TypeError, match="^Lusztig datum entry 0 must be an integer"):
            lusztig.braid_transition(a2, edge, n)


def test_transition_refuses_an_edge_that_is_no_braid_move(a2, b2):
    """The window length must be braid_order(i, j), the window must fit at
    0 <= k <= m - d and alternate; the error names the edge."""
    edges = [
        BraidEdge((1, 2, 1), (2, 1, 2), 0, 5),  # A2 hexagon of length 5
        BraidEdge((1, 2, 1), (2, 1, 2), 0, 2),  # s_1 and s_2 do not commute
        BraidEdge((1, 2, 1), (2, 1, 2), 1, 3),  # k > m - d
        BraidEdge((1, 2, 1), (2, 1, 2), -1, 3),
        BraidEdge((1, 2, 1), (1, 2, 1), 2, 1),
        BraidEdge((1, 2, 2), (2, 1, 1), 0, 3),  # no alternating window
        BraidEdge((1, 3, 1), (3, 1, 3), 0, 3),  # a letter out of range
        BraidEdge((1, 2), (2, 1), 0, 2),  # a word of the wrong length
    ]
    for edge in edges:
        with pytest.raises(ValueError, match=rf"^{re.escape(repr(edge))} is not a braid move"):
            lusztig.braid_transition(a2, edge, (1, 2, 0))
    with pytest.raises(ValueError, match=r"^BraidEdge\(src=\(1, 2, 1, 2\).* is not a braid move"):
        lusztig.braid_transition(b2, BraidEdge((1, 2, 1, 2), (2, 1, 2, 1), 0, 3), (1, 2, 0, 0))
    octagon = BraidEdge((1, 2, 1, 2), (2, 1, 2, 1), 0, 4)
    assert lusztig.braid_transition(b2, octagon, (0,) * 4) == (0,) * 4


def test_lusztig_data_must_be_integers(a2):
    """int() would read these as (0, 1, 1) and (1, 2, 0), which transports to
    (2, 0, 3); the error names the first entry at fault."""
    with pytest.raises(TypeError, match=r"^Lusztig datum entry 0 must be an integer, got 0\.9"):
        bz.from_lusztig(a2, (1, 2, 1), (0.9, 1, 1))
    with pytest.raises(TypeError, match=r"^Lusztig datum entry 0 must be an integer, got 1\.7"):
        lusztig.transport(a2, (1, 2, 1), (2, 1, 2), (1.7, 2, 0))
    with pytest.raises(TypeError, match="^Lusztig datum entry 1 must be an integer, got '2'"):
        lusztig.transport(a2, (1, 2, 1), (2, 1, 2), (1, "2", 0))
    assert lusztig.transport(a2, (1, 2, 1), (2, 1, 2), np.array([1, 2, 0])) == (2, 0, 3)


def test_hexagon_transition_frozen(a2):
    edge = next(e for e in edges_of(a2) if e.src == (1, 2, 1))
    assert edge.dst == (2, 1, 2) and edge.d == 3
    assert lusztig.braid_transition(a2, edge, (2, 1, 1)) == (1, 1, 2)
    # closed form: (t1, t2, t3) -> (t2 + t3 - p, p, t1 + t2 - p), p = min(t1, t3)
    assert lusztig.braid_transition(a2, edge, (0, 5, 0)) == (5, 0, 5)


def test_transition_is_involution_a2(a2):
    for edge in edges_of(a2):
        back = next(e for e in edges_of(a2) if e.src == edge.dst and e.dst == edge.src)
        for n in itertools.product(range(4), repeat=3):
            there = lusztig.braid_transition(a2, edge, n)
            again = lusztig.braid_transition(a2, back, there)
            assert again == n


def test_transition_involution_and_coweight_b2(b2):
    for edge in edges_of(b2):
        back = next(e for e in edges_of(b2) if e.src == edge.dst and e.dst == edge.src)
        for n in itertools.product(range(3), repeat=4):
            there = lusztig.braid_transition(b2, edge, n)
            assert all(t >= 0 for t in there)
            assert lusztig.braid_transition(b2, back, there) == n
            assert (
                coweight_of(b2, edge.dst, there).coords
                == coweight_of(b2, edge.src, n).coords
            )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=6, max_size=6))
def test_transitions_preserve_coweight_a3(a3ns):
    from mvpolytopes.cartan import build_cartan
    from mvpolytopes.weyl import weyl_group

    a3 = weyl_group(build_cartan("A", 3))
    n = tuple(a3ns)
    word = a3.reference_word
    mu = coweight_of(a3, word, n)
    for edge in braid_adjacency(a3.braid_graph())[word]:
        out = lusztig.braid_transition(a3, edge, n)
        assert all(t >= 0 for t in out)
        assert coweight_of(a3, edge.dst, out).coords == mu.coords


def test_transport_path_independent_spot(a3):
    words = reduced_words(a3, a3.w0)
    src = a3.reference_word
    n = (1, 0, 2, 1, 0, 3)
    for dst in words:
        out1 = lusztig.transport(a3, src, dst, n)
        # go through an intermediate word and compare
        mid = words[len(words) // 2]
        out2 = lusztig.transport(a3, mid, dst, lusztig.transport(a3, src, mid, n))
        assert out1 == out2


def test_word_path_connects_all_words(a3):
    words = reduced_words(a3, a3.w0)
    src = a3.reference_word
    for dst in words:
        path = lusztig.word_path(a3, src, dst)
        at = src
        for edge in path:
            assert edge.src == at
            at = edge.dst
        assert at == dst


def test_enumerate_lusztig_frozen(a2):
    rows = lusztig.enumerate_lusztig(a2, (1, 2, 1), a2.cartan.coweight((1, 1)))
    assert [tuple(r) for r in rows] == [(0, 1, 0), (1, 0, 1)]


def test_enumerate_lusztig_counts_match_kpf(a2, b2):
    for g in (a2, b2):
        for coords in itertools.product(range(3), repeat=2):
            mu = g.cartan.coweight(coords)
            assert len(lusztig.enumerate_lusztig(g, g.reference_word, mu)) == g.kpf(mu)

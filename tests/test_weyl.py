import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpolytopes import bz, polytope
from mvpolytopes.cartan import CartanDatum, Weight, build_cartan
from mvpolytopes.tables import index_table
from mvpolytopes.weyl import BraidEdge, WeylGroup, _row_keys, weyl_group, weyl_order

# F4 in Bourbaki labels; build_cartan covers types A-D only
F4 = ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))


# -- oracle helpers: enumerations the package itself never needs -------------


def reduced_words(g, w):
    """All reduced words of w, lexicographically sorted, after checking that
    w is an element of g: the words of w s_i followed by i, over the right
    descents i of w (those with l(w s_i) < l(w))."""
    return _words_of(g, g._row(w), {})


def _words_of(g, t, memo):
    if t not in memo:
        els = g._elements
        lower = [
            (i, u)
            for i, u in enumerate(g._right_array[t].tolist(), 1)
            if els[u].length < els[t].length
        ]
        words = sorted(head + (i,) for i, u in lower for head in _words_of(g, u, memo))
        memo[t] = tuple(words) if lower else ((),)  # the identity has no descents
    return memo[t]


def prefixes(g, word):
    """The prefixes e, w_1, ..., w_m of a reduced word for w0, as elements,
    after checking the word."""
    return [g.elements()[t] for t in g._prefixes(tuple(word))]


def gammas(g, word):
    """The chamber weights gamma_k = w_k . Lambda_{i_k} of a reduced word for
    w0, as the rows of an int64 ``(m, r)`` gather of the weight action stack."""
    return g._mats[g._prefixes(tuple(word))[1:], :, np.subtract(word, 1)]


def braid_adjacency(graph):
    """Each reduced word of w0 mapped to its braid moves as ``BraidEdge``
    objects, in move-array order, read off the graph's move arrays."""
    words, starts = graph.words, graph.starts.tolist()
    moves = zip(*(a.tolist() for a in (graph.src, graph.k, graph.d, graph.dst)))
    edges = [BraidEdge(words[s], words[t], k, d) for s, k, d, t in moves]
    return {word: tuple(edges[starts[x] : starts[x + 1]]) for x, word in enumerate(words)}


def weyl_orbit(g, lam):
    """The W-orbit of the weight lam, sorted by coordinates, after checking
    that lam is a weight of g's Cartan datum."""
    images = g._mats @ np.array(g._coords(lam, Weight), dtype=object)
    return tuple(Weight(g.cartan, c) for c in sorted(set(map(tuple, images.tolist()))))


@pytest.mark.parametrize(
    "family,rank,order",
    [("A", 1, 2), ("A", 2, 6), ("A", 3, 24), ("B", 2, 8), ("B", 3, 48), ("D", 4, 192)],
)
def test_group_orders(family, rank, order):
    g = weyl_group(build_cartan(family, rank))
    assert len(g.elements()) == order


@pytest.mark.parametrize(
    "family,rank,m",
    [("A", 2, 3), ("B", 2, 4), ("A", 3, 6), ("A", 4, 10)],
)
def test_longest_length(family, rank, m):
    g = weyl_group(build_cartan(family, rank))
    assert g.m == m == g.w0.length
    assert len(g.positive_coroots) == m


@pytest.mark.parametrize(
    "family,rank,count",
    [("A", 2, 6), ("B", 2, 8), ("A", 3, 14), ("A", 4, 30)],
)
def test_chamber_weight_counts(family, rank, count):
    g = weyl_group(build_cartan(family, rank))
    assert len(g.chamber_weights()) == count


@pytest.mark.parametrize(
    "family,rank,count",
    [("A", 2, 2), ("B", 2, 2), ("A", 3, 16), ("A", 4, 768)],
)
def test_reduced_word_counts_of_w0(family, rank, count):
    g = weyl_group(build_cartan(family, rank))
    assert len(reduced_words(g, g.w0)) == count


@pytest.mark.parametrize(
    "family,rank", [("A", 1), ("A", 2), ("B", 2), ("A", 3), ("B", 3), ("C", 3)]
)
def test_reduced_words_match_brute_force(family, rank):
    g = WeylGroup(build_cartan(family, rank))
    # every word over 1..r of length l(w) whose product is w, in lex order
    want = {w: [] for w in g.elements()}
    for length in range(g.m + 1):
        for word in itertools.product(range(1, rank + 1), repeat=length):
            w = g.from_word(word)
            if w.length == length:
                want[w].append(word)
    for w in reversed(g.elements()):
        assert reduced_words(g, w) == tuple(want[w]), w


def test_canonical_words_multiply_back(a3):
    for t, w in enumerate(a3.elements()):
        assert a3.from_word(w.word) is w
        assert len(w.word) == w.length
        assert w.index == t


def test_elements_of_equal_data_are_equal():
    c = build_cartan("B", 3)
    fresh, cached = WeylGroup(c).elements(), weyl_group(c).elements()
    assert fresh is not cached and fresh == cached
    assert [hash(w) for w in fresh] == [hash(w) for w in cached]
    other = weyl_group(build_cartan("C", 3)).elements()
    assert len(other) == len(fresh)
    assert all(u != v for u, v in zip(fresh, other))


def _product(group, u, v):
    """The element whose action matrix is the product of those of u and v."""
    mat = group._mats[u.index] @ group._mats[v.index]
    return next(w for w in group.elements() if (group._mats[w.index] == mat).all())


def test_inverse_and_product(b2):
    for w in b2.elements():
        assert _product(b2, w, b2.inverse(w)) is b2.identity
    x = b2.from_word((1, 2))
    y = b2.from_word((2, 1))
    assert _product(b2, x, y) is b2.from_word((1, 2, 2, 1))


def test_action_on_weights_matches_reflection(a2):
    c = a2.cartan
    s1 = a2.from_word((1,))
    # s_i Lambda_i = Lambda_i - alpha_i, fixes the other fundamental weights
    assert a2.apply(s1, c.fundamental_weight(1)).coords == (
        c.fundamental_weight(1) - c.simple_root(1)
    ).coords
    assert a2.apply(s1, c.fundamental_weight(2)) == c.fundamental_weight(2)


def test_coweight_action_inverts_weight_action(b2):
    c = b2.cartan
    for w in b2.elements():
        for i in (1, 2):
            lam = c.fundamental_weight(i)
            mu = c.coweight(tuple(int(k == i) for k in (1, 2)))
            # <w mu, w lam> = <mu, lam>
            from mvpolytopes.cartan import pairing

            assert pairing(b2.apply_coweight(w, mu), b2.apply(w, lam)) == pairing(mu, lam)


def test_positive_coroots_b2(b2):
    coords = sorted(b.coords for b in b2.positive_coroots)
    assert coords == [(0, 1), (1, 0), (1, 1), (2, 1)]
    assert b2.two_rho.coords == (4, 3)


def test_positive_roots_a2(a2):
    coords = sorted(r.coords for r in a2.positive_roots)
    assert coords == [(-1, 2), (1, 1), (2, -1)]


def test_word_data_a2(a2):
    wd = a2.word_data((1, 2, 1))
    assert wd.coroots.tolist() == [[1, 0], [1, 1], [0, 1]]
    assert gammas(a2, (1, 2, 1)).tolist() == [[-1, 1], [-1, 0], [0, -1]]
    assert wd == a2.word_data([1, 2, 1]) and hash(wd) == hash(a2.word_data((1, 2, 1)))


def test_word_data_rejects_nonreduced(a2):
    with pytest.raises(ValueError):
        a2.word_data((1, 1, 2))
    with pytest.raises(ValueError):
        a2.word_data((1, 2))  # not a word for w0


def test_two_faces_a2_b2_a3(a2, b2, a3):
    fa = a2.two_faces()
    assert [f.kind for f in fa] == ["hexagon"]
    fb = b2.two_faces()
    assert [f.kind for f in fb] == ["octagon"]
    # octagon orientation: the first index carries the long root side
    assert b2.cartan.entry(fb[0].i, fb[0].j) == -1
    assert b2.cartan.entry(fb[0].j, fb[0].i) == -2
    kinds = sorted(f.kind for f in a3.two_faces())
    assert kinds.count("hexagon") == 8 and kinds.count("rectangle") == 6


def test_braid_graph_connected(a3):
    bg = a3.braid_graph()
    adjacency = braid_adjacency(bg)
    assert len(bg.words) == 16
    seen = {bg.words[0]}
    frontier = [bg.words[0]]
    while frontier:
        w = frontier.pop()
        for e in adjacency[w]:
            if e.dst not in seen:
                seen.add(e.dst)
                frontier.append(e.dst)
    assert len(seen) == 16


@pytest.mark.parametrize(
    "family,rank,i,j,order",
    [("A", 2, 1, 2, 3), ("B", 2, 1, 2, 4), ("A", 3, 1, 3, 2)],
)
def test_braid_order(family, rank, i, j, order):
    g = weyl_group(build_cartan(family, rank))
    assert g.braid_order(i, j) == order


def test_braid_order_rejects_index_zero(a3):
    with pytest.raises(IndexError, match=r"simple index 0 out of range 1\.\.3"):
        a3.braid_order(0, 1)


def test_braid_order_rejects_equal_indices(a3):
    with pytest.raises(ValueError, match="i = 1 and j = 1"):
        a3.braid_order(1, 1)


def test_braid_order_rejects_index_past_rank(a3):
    with pytest.raises(IndexError, match=r"simple index 5 out of range 1\.\.3"):
        a3.braid_order(1, 5)


@pytest.mark.parametrize("i,j", [(0, 1), (1, 0), (1, 5), (-1, 2)])
def test_entry_rejects_out_of_range_indices(a3, i, j):
    bad = i if not 1 <= i <= 3 else j
    with pytest.raises(IndexError, match=rf"simple index {bad} out of range 1\.\.3"):
        a3.cartan.entry(i, j)


@pytest.mark.parametrize("letter", [0, 4])
def test_word_data_rejects_out_of_range_letters(a3, letter):
    word = (letter,) + a3.reference_word[1:]
    with pytest.raises(IndexError, match=rf"simple index {letter} out of range 1\.\.3"):
        a3.word_data(word)


def test_braid_order_reads_the_order_table():
    g2 = WeylGroup(CartanDatum("G", 2, ((2, -1), (-3, 2))))
    assert len(g2.elements()) == 12 and g2.braid_order(1, 2) == g2.braid_order(2, 1) == 6
    graph = g2.braid_graph()
    assert graph.words == ((1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1))
    assert graph.d.tolist() == [6, 6] and graph.dst.tolist() == [1, 0]
    f4 = WeylGroup(CartanDatum("F", 4, F4))
    got = [[f4.braid_order(i, j) for j in range(1, 5) if j != i] for i in range(1, 5)]
    assert got == [[3, 2, 2], [3, 4, 2], [2, 4, 3], [2, 2, 3]]
    assert f4._orders.tolist() == [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]]


def test_walk_must_find_the_closed_form_order():
    b2, a2 = build_cartan("B", 2).a, build_cartan("A", 2).a
    with pytest.raises(RuntimeError, match="more than the 6 elements"):
        WeylGroup(CartanDatum("A", 2, b2))
    with pytest.raises(RuntimeError, match="finds 6 elements, but CartanDatum.B2. has 8"):
        WeylGroup(CartanDatum("B", 2, a2))
    with pytest.raises(ValueError, match="no finite Weyl group of type H3"):
        WeylGroup(CartanDatum("H", 3, build_cartan("A", 3).a))
    assert weyl_order(CartanDatum("F", 4, F4)) == 1152
    assert [weyl_order(build_cartan(f, 4)) for f in "ABCD"] == [120, 384, 384, 192]


def test_kpf_frozen_values(a2, a3):
    assert a2.kpf(a2.cartan.coweight((1, 1))) == 2
    assert a2.kpf(a2.cartan.coweight((2, 1))) == 2
    assert a2.kpf(a2.cartan.coweight((2, 2))) == 3
    assert a3.kpf(a3.cartan.coweight((4, 4, 4))) == 35
    assert a2.kpf(a2.cartan.coweight((1, -1))) == 0
    assert a2.kpf(a2.cartan.coweight((0, 0))) == 1


def test_weyl_orbit_sizes(b2):
    c = b2.cartan
    orb = weyl_orbit(b2, c.fundamental_weight(1))
    assert len(orb) == 4
    orb2 = weyl_orbit(b2, c.fundamental_weight(2))
    assert len(orb2) == 4
    import pytest as _pytest

    with _pytest.raises(TypeError):
        weyl_orbit(b2, c.coweight((1, 0)))


def test_chamber_weights_have_all_levels(a3):
    levels = {cw.level for cw in a3.chamber_weights()}
    assert levels == {1, 2, 3}
    # each chamber weight is w Lambda_{level} for some w
    for cw in a3.chamber_weights():
        orbit = {a3.apply(w, a3.cartan.fundamental_weight(cw.level)) for w in a3.elements()}
        assert cw.weight in orbit


def test_weyl_group_is_cached():
    c = build_cartan("A", 2)
    assert weyl_group(c) is weyl_group(build_cartan("A", 2))


def _words_by_brute_force(g):
    """Every word over 1..r of length l(w) whose product is w, in lex order."""
    want = {w: [] for w in g.elements()}
    for length in range(g.m + 1):
        for word in itertools.product(range(1, g.rank + 1), repeat=length):
            w = g.from_word(word)
            if w.length == length:
                want[w].append(word)
    return want


@pytest.mark.parametrize(
    "family,rank", [("A", 1), ("A", 2), ("B", 2), ("A", 3), ("B", 3), ("C", 3)]
)
def test_elements_carry_their_least_reduced_words(family, rank):
    g = WeylGroup(build_cartan(family, rank))
    els = g.elements()
    assert list(els) == sorted(els, key=lambda w: (w.length, w.word))
    want = _words_by_brute_force(g)
    for w in els:
        assert w.word == want[w][0] == reduced_words(g, w)[0], w
        for i in range(1, rank + 1):
            assert g.right(w, i) is g.from_word(w.word + (i,))


def test_word_data_builds_no_vector_objects(vectors_built):
    g = WeylGroup(build_cartan("D", 4))
    words = g.braid_graph().words
    assert len(words) == 2316
    for word in words:
        g.word_data(word)
    assert not vectors_built


def test_word_data_rows_are_the_column_lookups():
    g = weyl_group(build_cartan("D", 4))
    for word in g.braid_graph().words:
        data, path, gamma = g.word_data(word), prefixes(g, word), gammas(g, word)
        assert data.word == word
        assert data.coroots.dtype == np.int64 and data.coroots.shape == (g.m, g.rank)
        assert not data.coroots.flags.writeable
        for k, i in enumerate(word):
            assert tuple(data.coroots[k].tolist()) == g.w_coroot(path[k], i).coords
            assert tuple(gamma[k].tolist()) == g.w_lambda(path[k + 1], i).coords
    ref = g.word_data(g.reference_word)
    roots = [
        g.apply(w, g.cartan.simple_root(i)) for w, i in zip(prefixes(g, ref.word), ref.word)
    ]
    assert g.positive_roots == tuple(roots)
    assert g.positive_coroots == tuple(map(g.cartan.coweight, ref.coroots.tolist()))


def test_two_rho_builds_one_coweight(vectors_built):
    g = WeylGroup(build_cartan("D", 4))
    assert g.two_rho.coords == (6, 10, 6, 6)
    assert vectors_built == {"Coweight": 1}


@pytest.mark.parametrize("i", [0, -1, 4])
def test_column_lookups_reject_out_of_range_letters(a3, i):
    for lookup in (a3.w_coroot, a3.w_lambda):
        with pytest.raises(IndexError, match=rf"simple index {i} out of range 1\.\.3"):
            lookup(a3.identity, i)


def test_actions_check_the_vector_kind_and_datum(a3, b3):
    c3 = weyl_group(build_cartan("C", 3))
    with pytest.raises(ValueError, match="coweight belongs to a different Cartan datum"):
        c3.apply_coweight(c3.w0, b3.two_rho)
    with pytest.raises(ValueError, match="coweight belongs to a different Cartan datum"):
        polytope.weyl_thresholds(c3, b3.two_rho)
    with pytest.raises(ValueError, match="weight belongs to a different Cartan datum"):
        c3.apply(c3.w0, b3.cartan.fundamental_weight(1))
    with pytest.raises(TypeError, match="expected a Weight, got Coweight"):
        a3.apply(a3.w0, a3.cartan.coweight((1, 0, 0)))
    with pytest.raises(TypeError, match="expected a Coweight, got Weight"):
        a3.apply_coweight(a3.w0, a3.cartan.fundamental_weight(1))


def test_lookups_refuse_elements_of_another_datum(a3, b3):
    w = a3.elements()[5]  # W[1 3]; B3 has an element at index 5 too
    d = bz.from_lusztig(b3, b3.reference_word, (1,) * b3.m)
    lookups = [
        lambda: b3.right(w, 1),
        lambda: b3.w_lambda(w, 1),
        lambda: b3.w_coroot(w, 1),
        lambda: b3.apply(w, b3.cartan.fundamental_weight(1)),
        lambda: b3.apply_coweight(w, b3.two_rho),
        lambda: reduced_words(b3, w),
        lambda: polytope.vertex(b3, d, w),
        lambda: bz.edge_length(b3, d, w, 1),
    ]
    for lookup in lookups:
        with pytest.raises(ValueError, match="element belongs to a different Cartan datum"):
            lookup()


def test_weyl_orbit_checks_the_datum(a2, b3):
    c3 = weyl_group(build_cartan("C", 3))
    with pytest.raises(ValueError, match="weight belongs to a different Cartan datum"):
        weyl_orbit(c3, b3.cartan.fundamental_weight(3))
    with pytest.raises(ValueError, match="weight belongs to a different Cartan datum"):
        weyl_orbit(a2, b3.cartan.fundamental_weight(1))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.lists(
            st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=1, max_size=12
        )
    ),
    st.integers(0, 60),
)
def test_row_keys_order_rows_as_unique_does(rows, shift):
    """The keys' unique order and inverse are those of np.unique(axis=0), also
    with entries near the int64 bounds; rows with more distinct mixed-radix
    values than int64 holds are refused."""
    spans = [(max(col) - min(col)) * (1 << shift) + 1 for col in zip(*rows)]
    rows = np.array(rows, dtype=np.int64) * (1 << shift)
    if math.prod(spans) >= 1 << 63:
        with pytest.raises(RuntimeError, match="no int64 mixed-radix key"):
            _row_keys(rows)
        return
    _, first, at = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    want, want_at = np.unique(rows, axis=0, return_inverse=True)
    assert rows[first].tolist() == want.tolist()
    assert at.tolist() == want_at.reshape(-1).tolist()


def test_row_keys_refuse_rows_without_an_int64_key():
    assert _row_keys(np.array([[0], [(1 << 63) - 2]])).tolist() == [0, (1 << 63) - 2]
    for rows in ([[0], [(1 << 63) - 1]], [[0, 0], [1 << 32, 1 << 31]], [[-(1 << 62)], [1 << 62]]):
        with pytest.raises(RuntimeError, match="no int64 mixed-radix key"):
            _row_keys(np.array(rows, dtype=np.int64))


# -- the object walk: the group one element at a time, on tuple matrices --------


def _mat_mul(a, b):
    r = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(r)) for j in range(r)) for i in range(r)
    )


def _mat_vec(a, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def _generators(cartan):
    """s_i Lambda_j = Lambda_j - delta_ij alpha_i, and alpha_i is column i of a."""
    r, a = cartan.rank, cartan.a
    return tuple(
        tuple(tuple(int(k == j) - (j == i) * a[k][i] for j in range(r)) for k in range(r))
        for i in range(r)
    )


def object_walk(cartan):
    """(elements, right): a breadth-first walk by right multiplication, each
    new element taking the word of the element it is first reached from plus
    the letter.  Elements are (mat, comat, word, length); right[t][i - 1] is
    the index of w_t s_i."""
    gens = _generators(cartan)
    cogens = tuple(tuple(zip(*m)) for m in gens)
    ident = tuple(tuple(int(k == j) for j in range(cartan.rank)) for k in range(cartan.rank))
    elements = [(ident, ident, (), 0)]
    by_mat = {ident: 0}
    right = []
    for mat, comat, word, length in elements:  # the list grows while it is walked
        row = []
        for i, (gen, cogen) in enumerate(zip(gens, cogens)):
            new = _mat_mul(mat, gen)
            if new not in by_mat:
                by_mat[new] = len(elements)
                elements.append((new, _mat_mul(comat, cogen), word + (i + 1,), length + 1))
            row.append(by_mat[new])
        right.append(tuple(row))
    return elements, tuple(right)


def orbit_walk(cartan, coords):
    """The sorted orbit of a weight, breadth first on tuple vectors."""
    gens = _generators(cartan)
    seen, queue = {coords}, deque([coords])
    while queue:
        v = queue.popleft()
        for gen in gens:
            nxt = _mat_vec(gen, v)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen)


def check_walk(g):
    """The group, its chamber weights, 2-faces and orbits against the object walk."""
    c, r = g.cartan, g.rank
    elements, right = object_walk(c)
    mats, comats = (tuple(tuple(map(tuple, m)) for m in s.tolist()) for s in (g._mats, g._comats))
    got = [(mats[w.index], comats[w.index], w.word, w.length) for w in g.elements()]
    assert got == elements
    assert [w.index for w in g.elements()] == list(range(len(elements)))
    assert g._right_array.tolist() == [list(row) for row in right]
    orbits = [orbit_walk(c, tuple(int(k == i) for k in range(r))) for i in range(r)]
    want = [(coords, i + 1) for i, orbit in enumerate(orbits) for coords in orbit]
    assert [(cw.weight.coords, cw.level) for cw in g.chamber_weights()] == want
    generic = tuple(range(1, r + 1))
    assert [lam.coords for lam in weyl_orbit(g, c.weight(generic))] == orbit_walk(c, generic)
    faces = []
    for i, j in itertools.combinations(range(1, r + 1), 2):
        prod = c.entry(i, j) * c.entry(j, i)
        kind = ("rectangle", "hexagon", "octagon")[prod]
        pair = (j, i) if prod == 2 and c.entry(i, j) == -2 else (i, j)
        faces += [
            (word, *pair, kind)
            for t, (_, _, word, length) in enumerate(elements)
            if elements[right[t][i - 1]][3] > length < elements[right[t][j - 1]][3]
        ]
    assert [(f.w.word, f.i, f.j, f.kind) for f in g.two_faces()] == faces
    return elements, orbits


WALK_GROUPS = [
    ("A", 1), ("A", 2), ("B", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 3),
    ("A", 4), ("B", 4), ("C", 4), ("D", 4),
]


@pytest.mark.parametrize("family,rank", WALK_GROUPS)
def test_array_walk_matches_object_walk(family, rank):
    g = weyl_group(build_cartan(family, rank))
    elements, orbits = check_walk(g)
    for i, orbit in enumerate(orbits, 1):
        lam = weyl_orbit(g, g.cartan.fundamental_weight(i))
        assert [x.coords for x in lam] == orbit
    # the table reads its chamber indices and coweight actions off the walk
    table = index_table(g)
    at = {(cw.weight.coords): x for x, cw in enumerate(g.chamber_weights())}
    chamber = [tuple(at[col] for col in zip(*mat)) for mat, _, _, _ in elements]
    assert table.chamber_array.tolist() == [list(row) for row in chamber]
    assert table.coaction.tolist() == [[list(row) for row in co] for _, co, _, _ in elements]


def test_array_walk_builds_f4():
    g = WeylGroup(CartanDatum("F", 4, F4))
    check_walk(g)
    assert len(g.elements()) == 1152 and g.m == 24
    assert len(g.chamber_weights()) == 240
    kinds = [f.kind for f in g.two_faces()]
    counts = [kinds.count(kind) for kind in ("rectangle", "hexagon", "octagon")]
    assert len(kinds) == 1392 and counts == [864, 384, 144]


@pytest.mark.parametrize("family", ["B", "D"])
def test_array_walk_builds_rank_5(monkeypatch, family):
    monkeypatch.setenv("MVPOLY_MAX_RANK", "5")
    g = WeylGroup(build_cartan(family, 5))
    check_walk(g)
    assert len(g.elements()) == {"B": 3840, "D": 1920}[family]

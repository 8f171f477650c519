import itertools

import pytest

from mvpolytopes import polytope
from mvpolytopes.cartan import build_cartan
from mvpolytopes.weyl import WeylGroup, weyl_group


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
    assert len(g.reduced_words(g.w0)) == count


@pytest.mark.parametrize(
    "family,rank", [("A", 1), ("A", 2), ("B", 2), ("A", 3), ("B", 3), ("C", 3)]
)
def test_reduced_words_match_brute_force(family, rank):
    g = WeylGroup(build_cartan(family, rank))  # empty memo
    # every word over 1..r of length l(w) whose product is w, in lex order
    want = {w: [] for w in g.elements()}
    for length in range(g.m + 1):
        for word in itertools.product(range(1, rank + 1), repeat=length):
            w = g.from_word(word)
            if w.length == length:
                want[w].append(word)
    for w in reversed(g.elements()):
        assert g.reduced_words(w) == tuple(want[w]), w


def test_canonical_words_multiply_back(a3):
    for w in a3.elements():
        assert a3.from_word(w.word) is w
        assert len(w.word) == w.length


def _product(group, u, v):
    """The element whose action matrix is the product of those of u and v."""
    mat = tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*v.mat)) for row in u.mat
    )
    return next(w for w in group.elements() if w.mat == mat)


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
    assert [b.coords for b in wd.coroots] == [(1, 0), (1, 1), (0, 1)]
    assert [g.coords for g in wd.gammas] == [(-1, 1), (-1, 0), (0, -1)]


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
    assert len(bg.words) == 16
    seen = {bg.words[0]}
    frontier = [bg.words[0]]
    while frontier:
        w = frontier.pop()
        for e in bg.adjacency[w]:
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


def test_kpf_frozen_values(a2, a3):
    assert a2.kpf(a2.cartan.coweight((1, 1))) == 2
    assert a2.kpf(a2.cartan.coweight((2, 1))) == 2
    assert a2.kpf(a2.cartan.coweight((2, 2))) == 3
    assert a3.kpf(a3.cartan.coweight((4, 4, 4))) == 35
    assert a2.kpf(a2.cartan.coweight((1, -1))) == 0
    assert a2.kpf(a2.cartan.coweight((0, 0))) == 1


def test_weyl_orbit_sizes(b2):
    c = b2.cartan
    orb = b2.weyl_orbit(c.fundamental_weight(1))
    assert len(orb) == 4
    orb2 = b2.weyl_orbit(c.fundamental_weight(2))
    assert len(orb2) == 4
    import pytest as _pytest

    with _pytest.raises(TypeError):
        b2.weyl_orbit(c.coweight((1, 0)))


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
        assert w.word == want[w][0] == g.reduced_words(w)[0], w
        for i in range(1, rank + 1):
            assert g.right(w, i) is g.from_word(w.word + (i,))


def test_word_data_shares_the_group_vectors():
    g = WeylGroup(build_cartan("D", 4))
    assert "_coroots" not in vars(g) and "_lambdas" not in vars(g)  # built on first use
    words = g.reduced_words(g.w0)
    assert len(words) == 2316
    for word in words:
        data = g.word_data(word)
        for k, i in enumerate(word):
            assert data.coroots[k] is g.w_coroot(data.prefixes[k], i)
            assert data.gammas[k] is g.w_lambda(data.prefixes[k + 1], i)


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

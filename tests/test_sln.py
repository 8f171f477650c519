import itertools

import pytest

from mvpolytopes import bz, sln
from mvpolytopes.cartan import build_cartan
from mvpolytopes.weyl import weyl_group


def test_ak_word():
    assert sln.ak_word(3) == (1, 2, 1)
    assert sln.ak_word(4) == (1, 2, 3, 1, 2, 1)


def collapse_relations_hold(group, datum, k):
    """Interval min-relations tying values across the deleted index k:
    for a < k < b,
    M_{[a,b] - k} + M_{[a+1,b-1]} = min(M_{[a+1,b] - k} + M_{[a,b-1]},
                                        M_{[a,b-1] - k} + M_{[a+1,b]}).
    """
    n = group.rank + 1

    def val(s):
        return datum.value(sln.subset_coords(n, s))

    for a in range(1, k):
        for b in range(k + 1, n + 1):
            span = set(range(a, b + 1))
            lhs = val(span - {k}) + val(set(range(a + 1, b)))
            arg1 = val(set(range(a + 1, b + 1)) - {k}) + val(set(range(a, b)))
            arg2 = val(set(range(a, b)) - {k}) + val(set(range(a + 1, b + 1)))
            if lhs != min(arg1, arg2):
                return False
    return True


def test_word_pairs_are_lex(a3):
    """The coroots along the standard word are e_a - e_b in lexicographic pair order."""
    pairs = tuple(map(sln.pair_of_coroot, a3.word_data(sln.ak_word(4)).coroots.tolist()))
    assert pairs == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert sln.all_pairs(4) == pairs


def test_subset_coords_round_trip():
    assert sln.subset_coords(4, frozenset({1, 3})) == (1, -1, 1)
    for r in range(1, 5):
        n = 4
        for subset in map(frozenset, itertools.combinations(range(1, n + 1), r)):
            if len(subset) == n:
                continue
            coords = sln.subset_coords(n, subset)
            assert sln.subset_of_coords(n, coords) == tuple(sorted(subset))


def test_subset_keys():
    assert sln.subset_key(frozenset({1, 3})) == "13"
    assert sln.subset_from_key("13") == (1, 3)
    assert sln.subset_key(frozenset({10})) == "0"
    assert sln.subset_from_key("0") == (10,)
    with pytest.raises(ValueError):
        sln.subset_key(frozenset({11}))


def test_pair_of_coroot(a3):
    # interval coroots alpha_a + ... + alpha_{b-1} name the pair (a, b)
    assert sln.pair_of_coroot((1, 0, 0)) == (1, 2)
    assert sln.pair_of_coroot((1, 1, 0)) == (1, 3)
    assert sln.pair_of_coroot((1, 1, 1)) == (1, 4)
    assert sln.pair_of_coroot((0, 1, 0)) == (2, 3)
    with pytest.raises(ValueError):
        sln.pair_of_coroot((1, 0, 1))


def test_picture_frozen_example():
    out = sln.collapse(3, 2, {(1, 2): 2, (1, 3): 1, (2, 3): 1})
    assert out == {(1, 3): 1}


def test_collapse_drops_k_pairs():
    out = sln.collapse(4, 3, {(1, 2): 1, (1, 3): 2, (3, 4): 1, (1, 4): 0, (2, 4): 2})
    assert all(3 not in pair for pair in out)


@pytest.mark.parametrize("picture", [{}, {(1, sln.MAX_N + 1): 1}], ids=["empty", "one-pair"])
def test_collapse_refuses_n_above_the_limit(picture):
    n = sln.MAX_N + 1
    with pytest.raises(ValueError, match=f"^collapse takes n up to {sln.MAX_N}, got n = {n}$"):
        sln.collapse(n, n // 2, picture)
    out = sln.collapse(sln.MAX_N, 1, {})  # the limit itself is accepted
    assert len(out) == (sln.MAX_N - 1) * (sln.MAX_N - 2) // 2 and not any(out.values())


def test_collapse_matches_facet_exhaustive_n3(a2):
    for vals in itertools.product(range(3), repeat=3):
        picture = dict(zip(((1, 2), (1, 3), (2, 3)), vals))
        for k in (1, 2, 3):
            got = sln.collapse(3, k, picture)
            want = sln.facet_lusztig(a2, k, picture)
            assert got == want, (picture, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_collapse_matches_facet_random_n4(a3, k, rng):
    pairs = sln.all_pairs(4)
    for _ in range(40):
        vals = rng.integers(0, 5, size=len(pairs))
        picture = {p: int(v) for p, v in zip(pairs, vals)}
        assert sln.collapse(4, k, picture) == sln.facet_lusztig(a3, k, picture)


def test_collapse_matches_facet_random_n5(rng):
    a4 = weyl_group(build_cartan("A", 4))
    pairs = sln.all_pairs(5)
    for _ in range(10):
        vals = rng.integers(0, 4, size=len(pairs))
        picture = {p: int(v) for p, v in zip(pairs, vals)}
        for k in range(1, 6):
            assert sln.collapse(5, k, picture) == sln.facet_lusztig(a4, k, picture)


@pytest.mark.parametrize(
    "k, facet_word, message",
    [
        (1, (1, 1, 2), "facet path for k=1: s_1 after W[1 2 1 3] is not reduced"),
        (2, (1, 2, 3), "facet path for k=2: unexpected leg (1, 2) at W[2 1 3 2], s_3"),
        (4, (3, 2, 1), "facet path for k=4: unexpected leg (3, 4) at W[e], s_3"),
        (2, (1, 2), "facet path for k=2 missed the pairs [(3, 4)]"),
    ],
)
def test_facet_path_errors_name_the_leg(a3, monkeypatch, k, facet_word, message):
    """A broken facet word is refused with the leg that breaks it; the
    assembly still reads the real word for n = 4."""
    real = sln.ak_word
    monkeypatch.setattr(sln, "ak_word", lambda n: facet_word if n == 3 else real(n))
    with pytest.raises(RuntimeError) as caught:
        sln.facet_lusztig(a3, k, {(1, 2): 1, (2, 4): 2})
    assert str(caught.value) == message


def test_collapse_relations_hold(a3, rng):
    ref = a3.reference_word
    for _ in range(25):
        n = tuple(int(v) for v in rng.integers(0, 4, size=6))
        d = bz.from_lusztig(a3, ref, n)
        for k in (1, 2, 3, 4):
            assert collapse_relations_hold(a3, d, k)


def test_picture_to_lusztig_rejects_negatives():
    with pytest.raises(ValueError):
        sln.picture_to_lusztig(3, {(1, 2): -1})


def test_picture_to_lusztig_rejects_non_integers():
    """int() would read the multiplicity 1.9 as 1 and the pair ("1", "3") as (1, 3)."""
    with pytest.raises(TypeError, match=r"^multiplicity at \(1, 2\) must be an integer, got 1\.9"):
        sln.picture_to_lusztig(3, {(1, 2): 1.9, (1, 3): 2})
    with pytest.raises(TypeError, match=r"^pair \('1', '3'\): entry 0 must be an integer, got '1'"):
        sln.picture_to_lusztig(3, {(1, 2): 1, ("1", "3"): 2})
    with pytest.raises(TypeError, match=r"^multiplicity at \(1, 3\) must be an integer, got True"):
        sln.picture_to_lusztig(3, {(1, 3): True})
    assert sln.picture_to_lusztig(3, {(1, 2): 1, (2, 3): 2}) == (1, 0, 2)

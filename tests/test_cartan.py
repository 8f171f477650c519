import os
import pickle
from unittest import mock

import numpy as np
import pytest

from mvpolytopes.cartan import CartanDatum, Coweight, Weight, build_cartan, pairing


def test_a2_matrix():
    c = build_cartan("A", 2)
    assert c.a == ((2, -1), (-1, 2))
    assert c.entry(1, 2) == -1


def test_b2_and_c2_share_one_matrix():
    b = build_cartan("B", 2)
    c = build_cartan("C", 2)
    assert b.a == c.a == ((2, -1), (-2, 2))


def test_b3_matrix():
    c = build_cartan("B", 3)
    assert c.a == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))


def test_c3_transposes_b3():
    b = build_cartan("B", 3)
    c = build_cartan("C", 3)
    assert c.a == tuple(zip(*b.a))


def test_d4_matrix_row_sums():
    c = build_cartan("D", 4)
    # node 2 is the branch point
    assert c.a[1] == (-1, 2, -1, -1)
    assert all(c.a[i][i] == 2 for i in range(4))


def test_rejected_families():
    with pytest.raises(ValueError):
        build_cartan("G", 2)
    with pytest.raises(ValueError):
        build_cartan("D", 2)
    with pytest.raises(ValueError):
        build_cartan("A", 0)


def test_rank_cap_default_and_override():
    with pytest.raises(ValueError, match="cap"):
        build_cartan("A", 5)
    with mock.patch.dict(os.environ, {"MVPOLY_MAX_RANK": "5"}):
        assert build_cartan("A", 5).rank == 5


def test_build_cartan_returns_one_datum_per_family_and_rank():
    for family, rank in [("A", 1), ("A", 3), ("B", 2), ("C", 2), ("C", 3), ("D", 4)]:
        assert build_cartan(family, rank) is build_cartan(family, rank)
    assert build_cartan(" b ", np.int64(3)) is build_cartan("B", 3)
    assert build_cartan("B", 2) is not build_cartan("C", 2)


def test_rank_cap_is_checked_on_every_call():
    with mock.patch.dict(os.environ, {"MVPOLY_MAX_RANK": "5"}):
        a5 = build_cartan("A", 5)
    with pytest.raises(ValueError, match="rank 5 exceeds the cap 4"):
        build_cartan("A", 5)
    with mock.patch.dict(os.environ, {"MVPOLY_MAX_RANK": "3"}):
        with pytest.raises(ValueError, match="rank 4 exceeds the cap 3"):
            build_cartan("D", 4)
    with mock.patch.dict(os.environ, {"MVPOLY_MAX_RANK": "5"}):
        assert build_cartan("A", 5) is a5


def test_equal_data_built_apart_compare_and_hash_by_value():
    b3 = build_cartan("B", 3)
    twin = CartanDatum("B", 3, b3.a)
    assert twin is not b3 and twin == b3 and hash(twin) == hash(b3)
    assert CartanDatum("C", 3, b3.a) != b3
    assert CartanDatum("B", 3, build_cartan("C", 3).a) != b3
    assert {twin: 1}[b3] == 1
    back = pickle.loads(pickle.dumps(b3))
    assert back == b3 and hash(back) == hash(b3)


def test_pairing_is_coordinate_dot():
    c = build_cartan("A", 2)
    lam = c.weight((2, -1))
    mu = c.coweight((1, 1))
    assert pairing(mu, lam) == 1


def test_simple_root_is_cartan_column():
    c = build_cartan("B", 2)
    # <alpha_j, alpha_i^vee> = a_ij
    assert c.simple_root(1).coords == (2, -2)
    assert c.simple_root(2).coords == (-1, 2)


def test_coweight_arithmetic_and_dominance():
    c = build_cartan("A", 2)
    x = c.coweight((1, 0))
    y = c.coweight((0, 1))
    assert (x + y).coords == (1, 1)
    assert (x - y).coords == (1, -1)
    assert (x + y).is_dominant()
    assert not (x - y).is_dominant()
    assert x.is_nonneg() and not (x - y).is_nonneg()


def test_weight_coweight_type_safety():
    c = build_cartan("A", 2)
    with pytest.raises(TypeError):
        pairing(c.coweight((1, 0)), c.coweight((0, 1)))
    with pytest.raises(TypeError):
        c.weight((1, 0)) + c.coweight((0, 1))
    with pytest.raises(TypeError):
        c.coweight((1, 0)) - c.weight((0, 1))
    with pytest.raises(ValueError):
        c.weight((1,))


def test_mixed_cartan_rejected():
    a = build_cartan("A", 2)
    b = build_cartan("B", 2)
    with pytest.raises(ValueError):
        a.coweight((1, 0)) + b.coweight((0, 1))


def test_values_are_ints():
    c = build_cartan("A", 2)
    w = c.weight((1, 0))
    assert all(isinstance(t, int) for t in w.coords)
    with pytest.raises(TypeError):
        c.weight((0.5, 0))


def test_coordinates_and_rank_must_be_integers():
    """int() would read the rank 2.7 as 2 and True as 1, and accept 1.0 and
    True as coordinates; the error names the entry at fault."""
    c = build_cartan("A", 2)
    with pytest.raises(TypeError, match=r"^coordinate 0 must be an integer, got 1\.0"):
        c.coweight((1.0, True))
    with pytest.raises(TypeError, match="^coordinate 1 must be an integer, got True"):
        c.weight((1, True))
    for rank in [2.7, True, "2"]:
        with pytest.raises(TypeError, match=f"^rank must be an integer, got {rank!r}"):
            build_cartan("A", rank)
    assert c.coweight([np.int64(1), 2]).coords == (1, 2)
    assert build_cartan("A", np.int64(2)) == c

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpolytopes import rep
from mvpolytopes.cartan import build_cartan
from mvpolytopes.weyl import weyl_group


def dominant_coweights(group, bound):
    out = []
    for coords in itertools.product(range(-bound, bound + 1), repeat=group.rank):
        mu = group.cartan.coweight(coords)
        if mu.is_dominant():
            out.append(mu)
    return out


def test_adjoint_zero_weight_a2(a2):
    theta = a2.cartan.coweight((1, 1))
    zero = a2.cartan.coweight((0, 0))
    assert rep.weight_mult_mv(a2, theta, zero) == 2
    assert rep.weight_mult_canonical(a2, theta, zero) == 2
    assert rep.kostant_weight_mult(a2, theta, zero) == 2


def test_weight_mult_extremes(a2):
    theta = a2.cartan.coweight((1, 1))
    assert rep.weight_mult_mv(a2, theta, theta) == 1
    # w0 theta is an extreme weight too, multiplicity 1
    lo = a2.apply_coweight(a2.w0, theta)
    assert rep.weight_mult_mv(a2, theta, lo) == 1
    outside = a2.cartan.coweight((2, 2))
    assert rep.weight_mult_mv(a2, theta, outside) == 0


def test_weyl_dim_frozen(a2, b2):
    assert rep.weyl_dim(a2, a2.cartan.coweight((1, 1))) == 8
    assert rep.weyl_dim(b2, b2.cartan.coweight((1, 1))) == 5
    assert rep.weyl_dim(a2, a2.cartan.coweight((0, 0))) == 1


def test_dimension_equals_orbit_weighted_mult_sum(a2, b2):
    # sum over the coroot lattice of weight multiplicities = dim of the rep
    for g, lam_coords in [(a2, (1, 1)), (a2, (2, 1)), (b2, (1, 1)), (b2, (2, 2))]:
        lam = g.cartan.coweight(lam_coords)
        total = 0
        span = range(-6, 7)
        for coords in itertools.product(span, repeat=2):
            total += rep.weight_mult_mv(g, lam, g.cartan.coweight(coords))
        assert total == rep.weyl_dim(g, lam)


@pytest.mark.parametrize("lam_coords", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_three_weight_routes_agree_a2(a2, lam_coords):
    lam = a2.cartan.coweight(lam_coords)
    for coords in itertools.product(range(-4, 5), repeat=2):
        mu = a2.cartan.coweight(coords)
        m1 = rep.weight_mult_mv(a2, lam, mu)
        assert m1 == rep.weight_mult_canonical(a2, lam, mu)
        assert m1 == rep.kostant_weight_mult(a2, lam, mu)


@pytest.mark.parametrize("lam_coords", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_three_weight_routes_agree_b2(b2, lam_coords):
    lam = b2.cartan.coweight(lam_coords)
    for coords in itertools.product(range(-5, 6), repeat=2):
        mu = b2.cartan.coweight(coords)
        m1 = rep.weight_mult_mv(b2, lam, mu)
        assert m1 == rep.weight_mult_canonical(b2, lam, mu)
        assert m1 == rep.kostant_weight_mult(b2, lam, mu)


def test_weight_mult_requires_dominant(a2):
    with pytest.raises(ValueError):
        rep.weight_mult_mv(a2, a2.cartan.coweight((-1, 0)), a2.cartan.coweight((0, 0)))


def test_tensor_adjoint_cubed_spot(a2):
    theta = a2.cartan.coweight((1, 1))
    assert rep.tensor_mult_mv(a2, theta, theta, theta) == 2
    assert rep.steinberg_tensor_mult(a2, theta, theta, theta) == 2


def test_tensor_routes_agree_a2(a2):
    doms = [m for m in dominant_coweights(a2, 2) if m.is_nonneg()]
    for lam, mu in itertools.product(doms, repeat=2):
        for nu in doms:
            got = rep.tensor_mult_mv(a2, lam, mu, nu)
            want = rep.steinberg_tensor_mult(a2, lam, mu, nu)
            assert got == want, (lam.coords, mu.coords, nu.coords)


def test_tensor_routes_agree_b2_spot(b2):
    c = b2.cartan
    cases = [
        ((1, 1), (1, 1), (0, 0)),
        ((1, 1), (1, 1), (2, 2)),
        ((2, 1), (1, 1), (1, 1)),
        ((2, 1), (2, 1), (2, 2)),
    ]
    for lam, mu, nu in cases:
        got = rep.tensor_mult_mv(b2, c.coweight(lam), c.coweight(mu), c.coweight(nu))
        want = rep.steinberg_tensor_mult(b2, c.coweight(lam), c.coweight(mu), c.coweight(nu))
        assert got == want


def test_tensor_b2_singlet_in_five_squared(b2):
    # the 5-dimensional rep tensored with itself contains one singlet
    c = b2.cartan
    five = c.coweight((1, 1))
    zero = c.coweight((0, 0))
    assert rep.tensor_mult_mv(b2, five, five, zero) == 1
    assert rep.steinberg_tensor_mult(b2, five, five, zero) == 1


def test_tensor_dimension_identity_a2(a2):
    # lam + mu lies in the coroot lattice, so every constituent nu does too
    # and sum_nu mult * dim(nu) accounts for the whole product
    c = a2.cartan
    theta = c.coweight((1, 1))
    total = 0
    for coords in itertools.product(range(0, 6), repeat=2):
        nu = c.coweight(coords)
        if not nu.is_dominant():
            continue
        m = rep.steinberg_tensor_mult(a2, theta, theta, nu)
        if m:
            total += m * rep.weyl_dim(a2, nu)
    assert total == rep.weyl_dim(a2, theta) ** 2 == 64


# -- properties in rank 3: lambda, mu and nu with coordinates at most 2 ------


def _group(draw):
    return weyl_group(build_cartan(*draw(st.sampled_from([("A", 3), ("B", 3), ("C", 3)]))))


def _dominant(draw, group):
    box = itertools.product(range(3), repeat=group.rank)
    return draw(st.sampled_from([m for m in map(group.cartan.coweight, box) if m.is_dominant()]))


@st.composite
def weight_queries(draw):
    g = _group(draw)
    mu = g.cartan.coweight(draw(st.tuples(*[st.integers(-2, 2)] * g.rank)))
    return g, _dominant(draw, g), mu, draw(st.sampled_from(g.elements()))


@st.composite
def tensor_queries(draw):
    g = _group(draw)
    return g, _dominant(draw, g), _dominant(draw, g), _dominant(draw, g)


@settings(max_examples=30, deadline=None)
@given(weight_queries())
def test_weight_mult_is_weyl_invariant_rank3(query):
    """The shift w.mu is in general not dominant, and lambda - w.mu runs over
    other enumeration keys than lambda - mu."""
    g, lam, mu, w = query
    moved = g.apply_coweight(w, mu)
    got = rep.weight_mult_mv(g, lam, mu)
    assert got == rep.weight_mult_mv(g, lam, moved) == rep.kostant_weight_mult(g, lam, moved)
    assert got == rep.weight_mult_canonical(g, lam, moved)


@settings(max_examples=30, deadline=None)
@given(tensor_queries())
def test_tensor_mult_is_symmetric_rank3(query):
    """Swapping lambda and mu swaps which bound binds: conv(W.lambda) against
    <nu, gamma> - mu_level, and conv(W.mu) against <nu, gamma> - lambda_level."""
    g, lam, mu, nu = query
    got = rep.tensor_mult_mv(g, lam, mu, nu)
    assert got == rep.tensor_mult_mv(g, mu, lam, nu) == rep.steinberg_tensor_mult(g, lam, mu, nu)

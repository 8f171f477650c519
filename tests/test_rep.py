import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpolytopes import rep
from mvpolytopes.cartan import build_cartan
from mvpolytopes.weyl import WeylGroup, weyl_group


def kostant_loop(group, lam, mu):
    """The per-element Kostant sum that ``rep.kostant_weight_mult`` replaced:
    one ``Coweight`` per element of W, and every even argument, negative ones
    too, sent to the partition function."""
    rep._require_dominant("lambda", lam)
    T = group.two_rho
    fixed = T + 2 * mu
    return sum(
        sign * rep._kpf_halved(group, image - fixed)
        for sign, image in rep._alternating(group, 2 * lam + T)
    )


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


def test_steinberg_keeps_no_negative_argument_in_the_kpf_memo():
    """The double alternating sum sends many negative arguments to ``kpf``;
    they are 0 without a memo entry, and the answer stays the MV route's."""
    g = WeylGroup(build_cartan("A", 3))  # a fresh memo
    theta = g.cartan.coweight((1, 1, 1))  # the highest coroot
    assert rep.steinberg_tensor_mult(g, theta, theta, theta) == 2
    assert g._kpf and all(min(key) >= 0 for key in g._kpf)
    assert rep.tensor_mult_mv(g, theta, theta, theta) == 2
    size = len(g._kpf)
    assert g.kpf(g.cartan.coweight((-1, 2, 0))) == 0 and len(g._kpf) == size


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


# -- the array Kostant sum against the per-element loop ----------------------


ORACLE_GROUPS = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4)]


@pytest.mark.parametrize("family, rank", ORACLE_GROUPS, ids=[f"{f}{r}" for f, r in ORACLE_GROUPS])
def test_kostant_matches_the_loop(family, rank):
    """Every dominant lambda with coordinates at most 2, and every mu with
    lambda - mu in [-1, 2]^rank: below, level with and above lambda.  In D4,
    where the loop takes about 2.6 ms a query, the box is [-1, 1]^4."""
    g = weyl_group(build_cartan(family, rank))
    c = g.cartan
    side = range(-1, 2 if rank > 3 else 3)
    box = [c.coweight(d) for d in itertools.product(side, repeat=rank)]
    lams = [lam for lam in dominant_coweights(g, 2) if lam.is_nonneg()]
    nonzero = 0
    for lam in lams:
        for d in box:
            want = kostant_loop(g, lam, lam - d)
            assert rep.kostant_weight_mult(g, lam, lam - d) == want, (lam.coords, d.coords)
            nonzero += want != 0
    assert nonzero > len(lams)  # more than the highest weights themselves


@st.composite
def kostant_queries(draw):
    g = _group(draw)
    box = itertools.product(range(5), repeat=g.rank)
    lam = draw(st.sampled_from([m for m in map(g.cartan.coweight, box) if m.is_dominant()]))
    mu = lam - g.cartan.coweight(draw(st.tuples(*[st.integers(-2, 6)] * g.rank)))
    return g, lam, mu, draw(st.sampled_from(g.elements()))


@settings(max_examples=40, deadline=None)
@given(kostant_queries())
def test_kostant_matches_the_loop_rank3(query):
    """lambda up to 4 and mu anywhere near it, moved by a drawn w: the sum is
    W-invariant in mu, and both forms agree at mu and at w.mu."""
    g, lam, mu, w = query
    moved = g.apply_coweight(w, mu)
    want = kostant_loop(g, lam, mu)
    assert rep.kostant_weight_mult(g, lam, mu) == want
    assert rep.kostant_weight_mult(g, lam, moved) == kostant_loop(g, lam, moved) == want


@pytest.mark.parametrize("family, rank", [("A", 2), ("B", 3), ("C", 3)])
def test_kostant_is_exact_beyond_int64(family, rank):
    """At lambda = 2**70 T the doubled arguments need Python ints; lambda - mu
    stays in a small box, so only a few arguments are nonnegative and P stays
    small."""
    g = weyl_group(build_cartan(family, rank))
    lam = 2**70 * g.two_rho
    got = []
    for d in itertools.product(range(-1, 3), repeat=rank):
        mu = lam - g.cartan.coweight(d)
        got.append(rep.kostant_weight_mult(g, lam, mu))
        assert got[-1] == kostant_loop(g, lam, mu), d
    assert any(m > 1 for m in got)


def test_kostant_rejects_other_data_and_nondominant_lambda(b3):
    c3 = weyl_group(build_cartan("C", 3))
    with pytest.raises(ValueError, match="different Cartan data"):
        rep.kostant_weight_mult(b3, b3.two_rho, c3.cartan.coweight((0, 0, 0)))
    with pytest.raises(ValueError, match="different Cartan data"):
        rep.kostant_weight_mult(b3, c3.two_rho, c3.cartan.coweight((0, 0, 0)))
    with pytest.raises(ValueError, match="must be a dominant coweight"):
        rep.kostant_weight_mult(b3, b3.cartan.coweight((1, 1, 1)), b3.cartan.coweight((0, 0, 0)))


# -- the MV routes beyond int64 --------------------------------------------------


BIG = [2**62, 2**63 - 1, 2**70]
BIG_GROUPS = [("A", 2), ("B", 2), ("A", 3)]


@pytest.mark.parametrize("size", BIG, ids=["2^62", "2^63-1", "2^70"])
@pytest.mark.parametrize("family, rank", BIG_GROUPS, ids=[f"{f}{r}" for f, r in BIG_GROUPS])
def test_three_weight_routes_agree_beyond_int64(family, rank, size):
    """lambda at ``size`` and lambda - mu in [-1, 2]^rank: the values of the
    small polytopes, translated by mu, and the thresholds of lambda all pass
    2**62, where the counts run on Python ints."""
    g = weyl_group(build_cartan(family, rank))
    c = g.cartan
    lam = c.coweight((size,) * rank)
    for d in itertools.product(range(-1, 3), repeat=rank):
        mu = lam - c.coweight(d)
        want = rep.kostant_weight_mult(g, lam, mu)
        assert rep.weight_mult_mv(g, lam, mu) == want, d
        assert rep.weight_mult_canonical(g, lam, mu) == want, d


@pytest.mark.parametrize("family, rank", BIG_GROUPS, ids=[f"{f}{r}" for f, r in BIG_GROUPS])
def test_tensor_route_matches_steinberg_at_2_70(family, rank):
    g = weyl_group(build_cartan(family, rank))
    c = g.cartan
    lam = c.coweight((2**70,) * rank)
    nus = [2 * lam - c.coweight(d) for d in itertools.product(range(3), repeat=rank)]
    nus = [nu for nu in nus if nu.is_dominant()]
    assert len(nus) > 1 and nus[0] == 2 * lam
    for nu in nus:
        want = rep.steinberg_tensor_mult(g, lam, lam, nu)
        assert rep.tensor_mult_mv(g, lam, lam, nu) == want, (2 * lam - nu).coords


# -- rank 4: the dimension from multiplicities and orbit sizes ------------------


def test_dimension_is_the_orbit_weighted_kostant_sum_rank4():
    """dim V(lambda) = sum over the dominant mu <= lambda of m_lambda(mu) |W.mu|,
    with m_lambda from the Kostant sum and |W.mu| the distinct rows of the
    coweight-action stack times mu: neither polytopes nor the loop."""
    cases = {
        ("A", 4): [(1, 1, 1, 1), (1, 2, 2, 1)],
        ("B", 4): [(1, 2, 2, 1), (2, 2, 2, 1)],
        ("C", 4): [(1, 1, 1, 1), (1, 2, 2, 2)],
        ("D", 4): [(1, 2, 1, 1), (2, 2, 1, 1)],
    }
    for (family, rank), lams in cases.items():
        g = weyl_group(build_cartan(family, rank))
        c = g.cartan
        for lam in map(c.coweight, lams):
            # a dominant mu <= lambda has coordinates in [0, lambda_i]
            below = itertools.product(*(range(k + 1) for k in lam.coords))
            total = 0
            for mu in map(c.coweight, below):
                if mu.is_dominant():
                    orbit = len(np.unique(g._comats @ np.array(mu.coords), axis=0))
                    total += rep.kostant_weight_mult(g, lam, mu) * orbit
            assert total == rep.weyl_dim(g, lam), (family, lam.coords)

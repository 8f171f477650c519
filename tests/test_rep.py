import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpolytopes import polytope, rep
from mvpolytopes.bz import BZDatum
from mvpolytopes.cartan import Coweight, build_cartan
from mvpolytopes.weyl import WeylGroup, weyl_group


def kostant_loop(group, lam, mu):
    """The per-element Kostant sum that ``rep.kostant_weight_mult`` replaced:
    one ``Coweight`` per element of W, and every even argument, negative ones
    too, sent to the partition function."""
    ref_require_dominant("lambda", lam)
    T = group.two_rho
    fixed = T + 2 * mu
    return sum(
        sign * rep._kpf_halved(group, image - fixed)
        for sign, image in rep._alternating(group, 2 * lam + T)
    )


# -- the object-based MV routes that the coordinate-tuple routes replaced ------
#
# Each builds its vectors as ``Coweight`` objects (lam - mu, the Weyl
# thresholds, nu - mu) and its value matrix from the cached ``BZDatum``s on
# every call.


def ref_require_dominant(name: str, mu: Coweight) -> None:
    if not mu.is_dominant():
        raise ValueError(f"{name}={mu.coords} must be a dominant coweight")


def ref_count_inside(
    group: WeylGroup, diff: Coweight, shift: Coweight, lower: np.ndarray, cols=slice(None)
) -> int:
    if not diff.is_nonneg():
        return 0
    data = polytope.enumerate_mv(group, diff)
    if not data:
        return 0
    dtype = lower.dtype
    vals = np.array([d.values for d in data], dtype=dtype)[:, cols]
    coords = group._chamber_coords[cols].astype(dtype, copy=False)
    vals += coords @ np.array(shift.coords, dtype=dtype)
    return int((vals >= lower).all(axis=1).sum())


def ref_weight_thresholds(group: WeylGroup, lam: Coweight, mu: Coweight):
    diff, thresholds = lam - mu, polytope.weyl_thresholds(group, lam)
    return diff, np.array(thresholds, dtype=rep._dtype(group, diff.coords, mu.coords, thresholds))


def ref_weight_mult_mv(group: WeylGroup, lam: Coweight, mu: Coweight) -> int:
    ref_require_dominant("lambda", lam)
    diff, thresholds = ref_weight_thresholds(group, lam, mu)
    group.chamber_weights()  # builds _chamber_levels on first use
    return ref_count_inside(group, diff, mu, thresholds[group._chamber_levels - 1])


def ref_weight_mult_canonical(group: WeylGroup, lam: Coweight, mu: Coweight) -> int:
    ref_require_dominant("lambda", lam)
    diff, thresholds = ref_weight_thresholds(group, lam, mu)
    group.chamber_weights()  # builds _chamber_array on first use
    letters = np.arange(group.rank)
    cols = group._chamber_array[group._right_array[group.w0.index], letters]
    return ref_count_inside(group, diff, mu, thresholds, cols)


def ref_tensor_mult_mv(group: WeylGroup, lam: Coweight, mu: Coweight, nu: Coweight) -> int:
    ref_require_dominant("lambda", lam)
    ref_require_dominant("mu", mu)
    ref_require_dominant("nu", nu)
    diff, shift = lam + mu - nu, nu - mu
    thresholds = polytope.weyl_thresholds(group, lam)
    dtype = rep._dtype(group, diff.coords, shift.coords, thresholds, mu.coords, nu.coords)
    group.chamber_weights()  # builds _chamber_coords and _chamber_levels on first use
    levels = group._chamber_levels - 1
    per_level = np.array([thresholds, mu.coords], dtype=dtype)
    coords = group._chamber_coords.astype(dtype, copy=False)
    lower = np.maximum(
        per_level[0, levels], coords @ np.array(nu.coords, dtype=dtype) - per_level[1, levels]
    )
    return ref_count_inside(group, diff, shift, lower)


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


BIG = [2**62, 2**63 - 1, 2**63, 2**64 - 1, 2**70]
BIG_GROUPS = [("A", 2), ("B", 2), ("A", 3)]


@pytest.mark.parametrize("size", BIG, ids=["2^62", "2^63-1", "2^63", "2^64-1", "2^70"])
@pytest.mark.parametrize("family, rank", BIG_GROUPS, ids=[f"{f}{r}" for f, r in BIG_GROUPS])
def test_three_weight_routes_agree_beyond_int64(family, rank, size):
    """lambda at ``size`` and lambda - mu in [-1, 2]^rank: the values of the
    small polytopes, translated by mu, and the thresholds of lambda all pass
    2**62, where the counts run on Python ints.  At 2**63 and 2**64 - 1 numpy
    would read such entries as float64 if it chose the dtype itself."""
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


@pytest.mark.parametrize("size", [2**63, 2**64 - 1], ids=["2^63", "2^64-1"])
@pytest.mark.parametrize("family, rank", BIG_GROUPS, ids=[f"{f}{r}" for f, r in BIG_GROUPS])
def test_tensor_route_matches_steinberg_past_2_63(family, rank, size):
    """mu a little below lambda, so mu, nu and nu - mu mix entries on both
    sides of 2**63, which numpy would read as float64 if it chose the dtype
    itself."""
    g = weyl_group(build_cartan(family, rank))
    c = g.cartan
    lam = c.coweight((size,) * rank)
    mus = [lam - c.coweight(d) for d in itertools.product(range(2), repeat=rank)]
    mus = [mu for mu in mus if mu.is_dominant() and mu != lam][:2]
    assert mus
    for mu in mus:
        nus = [lam + mu - c.coweight(d) for d in itertools.product(range(3), repeat=rank)]
        for nu in filter(Coweight.is_dominant, nus):
            want = rep.steinberg_tensor_mult(g, lam, mu, nu)
            assert rep.tensor_mult_mv(g, lam, mu, nu) == want, (mu.coords, nu.coords)


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


# -- the coordinate-tuple routes against the object reference -------------------


REFERENCE_GROUPS = [("A", 2), ("B", 2), ("A", 3), ("B", 3), ("C", 3)]


@pytest.mark.parametrize(
    "family, rank", REFERENCE_GROUPS, ids=[f"{f}{r}" for f, r in REFERENCE_GROUPS]
)
def test_routes_match_the_object_reference(family, rank):
    """Every weight query with lambda dominant in [0, 3]^rank and lambda - mu in
    [0, 3]^rank, and every tensor query with lambda and mu dominant in
    [0, 2]^rank and lambda + mu - nu in [-1, 2]^rank, nu dominant."""
    g = weyl_group(build_cartan(family, rank))
    c = g.cartan
    box = [c.coweight(d) for d in itertools.product(range(4), repeat=rank)]
    nonzero = 0
    for lam in dominant_coweights(g, 3):
        if not lam.is_nonneg():
            continue
        for d in box:
            mu = lam - d
            want, at = ref_weight_mult_mv(g, lam, mu), (lam.coords, mu.coords)
            assert rep.weight_mult_mv(g, lam, mu) == want, at
            canonical = rep.weight_mult_canonical(g, lam, mu)
            assert canonical == ref_weight_mult_canonical(g, lam, mu) == want, at
            nonzero += want != 0
    assert nonzero
    small = [lam for lam in dominant_coweights(g, 2) if lam.is_nonneg()]
    near = [c.coweight(d) for d in itertools.product(range(-1, 3), repeat=rank)]
    nonzero = 0
    for lam, mu in itertools.product(small, repeat=2):
        for d in near:
            nu = lam + mu - d
            if not nu.is_dominant():
                continue
            want = ref_tensor_mult_mv(g, lam, mu, nu)
            assert rep.tensor_mult_mv(g, lam, mu, nu) == want, (lam.coords, mu.coords, nu.coords)
            nonzero += want != 0
    assert nonzero


# -- the argument checks at the boundary ---------------------------------------


ROUTES = {
    "weight_mult_mv": ("lambda", "mu"),
    "weight_mult_canonical": ("lambda", "mu"),
    "kostant_weight_mult": ("lambda", "mu"),
    "tensor_mult_mv": ("lambda", "mu", "nu"),
    "steinberg_tensor_mult": ("lambda", "mu", "nu"),
    "weyl_dim": ("lambda",),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_routes_reject_other_arguments_by_name(a2, route):
    """Each argument in turn is a ``Weight``, a tuple or a coweight of B2;
    the others are the A2 coweight (1, 1).  The error names the argument."""
    fn, names = getattr(rep, route), ROUTES[route]
    good = a2.cartan.coweight((1, 1))
    bad = [
        (TypeError, a2.cartan.weight((1, 1))),
        (TypeError, (1, 1)),
        (ValueError, build_cartan("B", 2).coweight((1, 1))),
    ]
    for k, name in enumerate(names):
        for error, arg in bad:
            args = [good] * len(names)
            args[k] = arg
            with pytest.raises(error, match=f"^{name}[ =]"):
                fn(a2, *args)


# -- the weight routes on a warm cache -----------------------------------------


def test_weight_routes_make_no_objects_on_a_warm_cache(monkeypatch):
    """After one call of each weight route, a second call builds no
    ``Coweight`` and no ``BZDatum``; the cached value array is read-only, and
    a repeated lambda - mu adds no cache entry."""
    g = WeylGroup(build_cartan("B", 3))  # a fresh cache
    c = g.cartan
    lam, mu = c.coweight((2, 3, 2)), c.coweight((1, 2, 1))
    routes = (rep.weight_mult_mv, rep.weight_mult_canonical, rep.kostant_weight_mult)
    got = [route(g, lam, mu) for route in routes]
    assert len(set(got)) == 1 and got[0] > 0
    # the same lambda - mu from another lambda and mu
    up = c.coweight((3, 4, 2))
    up_mu = up - (lam - mu)
    up_want = rep.kostant_weight_mult(g, up, up_mu)
    entries = len(g._mv_cache)
    made = []
    post_init, trusted = Coweight.__post_init__, BZDatum._trusted.__func__

    def counted_post_init(self):
        made.append(type(self))
        post_init(self)

    def counted_trusted(cls, *args):
        made.append(cls)
        return trusted(cls, *args)

    monkeypatch.setattr(Coweight, "__post_init__", counted_post_init)
    monkeypatch.setattr(BZDatum, "_trusted", classmethod(counted_trusted))
    assert [route(g, lam, mu) for route in routes] == got
    assert rep.weight_mult_mv(g, up, up_mu) == up_want
    assert made == [] and len(g._mv_cache) == entries
    monkeypatch.undo()
    data, values = polytope._enumerated(g, (lam - mu).coords)
    assert values.shape == (len(data), len(g.chamber_weights()))
    assert values.dtype == np.int64 and not values.flags.writeable
    assert values.tolist() == [list(d.values) for d in data]

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpolytopes import cones
from test_cone_oracle import clear_denominators, fraction_invert


def test_primitive():
    assert cones.primitive((4, -6, 2)) == (2, -3, 1)
    assert cones.primitive((0, 5, 0)) == (0, 1, 0)
    with pytest.raises(ValueError):
        cones.primitive((0, 0))


def test_clear_denominators():
    got = clear_denominators((Fraction(1, 2), Fraction(-1, 3), Fraction(0)))
    assert got == (3, -2, 0)


def test_rank():
    rows = [(1, 0, -1), (0, 1, -1), (1, 1, -2)]
    assert cones.rank(rows) == 2
    assert cones.rank([]) == 0


def test_invert_and_det():
    a = [(2, 1), (1, 1)]
    assert cones.inverse(a) == (1, [[1, -1], [-1, 2]])
    for mat in (a, [(2, 0), (0, 4)], [(1, 2), (3, 4)]):
        den, num = cones.inverse(mat)
        assert den > 0
        assert [[Fraction(v, den) for v in row] for row in num] == fraction_invert(mat)
    assert cones.det(a) == 1
    assert cones.det([(2, 0), (0, 3)]) == 6
    with pytest.raises(ValueError):
        cones.inverse([(1, 2), (2, 4)])


def facet_rays(rays, facets):
    """Each facet row with the rays its bitmask names."""
    return {row: {r for j, r in enumerate(rays) if mask >> j & 1} for row, mask in facets}


def test_extreme_rays_quadrant():
    rays, facets = cones.extreme_rays([(1, 0), (0, 1)], 2)
    assert sorted(rays) == [(0, 1), (1, 0)]
    assert facet_rays(rays, facets) == {(1, 0): {(0, 1)}, (0, 1): {(1, 0)}}


def test_extreme_rays_ice_cream_cross_section():
    # x >= 0, y >= 0, x + y >= z, z >= 0 in R^3: 4 rays
    rows = [(1, 0, 0), (0, 1, 0), (1, 1, -1), (0, 0, 1)]
    rays, facets = cones.extreme_rays(rows, 3)
    assert sorted(rays) == [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]
    assert facet_rays(rays, facets) == {
        (1, 0, 0): {(0, 1, 0), (0, 1, 1)},
        (0, 1, 0): {(1, 0, 0), (1, 0, 1)},
        (1, 1, -1): {(0, 1, 1), (1, 0, 1)},
        (0, 0, 1): {(0, 1, 0), (1, 0, 0)},
    }


def test_extreme_rays_not_pointed():
    with pytest.raises(ValueError, match="pointed"):
        cones.extreme_rays([(1, 0)], 2)


def test_extreme_rays_redundant_rows():
    rows = [(1, 0), (0, 1), (1, 1), (2, 1)]
    rays, facets = cones.extreme_rays(rows, 2)
    assert sorted(rays) == [(0, 1), (1, 0)]
    assert facet_rays(rays, facets) == {(1, 0): {(0, 1)}, (0, 1): {(1, 0)}}


def test_extreme_rays_name_one_facet_of_every_ray_when_not_full_dimensional():
    """z = 0 in the orthant of R^3: both rows of the equation vanish on every
    ray, the one maximal zero set, which the first of them stands for."""
    rows = [(1, 0, 0), (0, 0, -1), (0, 1, 0), (0, 0, 1)]
    rays, facets = cones.extreme_rays(rows, 3)
    assert sorted(rays) == [(0, 1, 0), (1, 0, 0)]
    assert facets == [((0, 0, -1), 0b11)]


def brute_rays_check(rows, dim, rays):
    # every reported ray satisfies all inequalities
    for r in rays:
        assert all(sum(a * b for a, b in zip(row, r)) >= 0 for row in rows)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        min_size=3,
        max_size=7,
    )
)
def test_extreme_rays_feasible_random(rows):
    rows = [tuple(r) for r in rows]
    try:
        rays, _ = cones.extreme_rays(rows, 3)
    except ValueError:
        return  # not pointed, fine
    brute_rays_check(rows, 3, rays)
    # rays are pairwise non-proportional and primitive
    assert len({cones.primitive(r) for r in rays}) == len(rays)


def test_hilbert_basis_simplicial_unimodular():
    hb = cones.hilbert_basis(*cones.extreme_rays([(1, 0), (0, 1)], 2))
    assert sorted(hb) == [(0, 1), (1, 0)]


def test_hilbert_basis_needs_interior_point():
    # cone spanned by (1,0) and (1,2): (1,1) is irreducible but not a ray
    rays = [(1, 0), (1, 2)]
    facets = [((0, 1), 0b01), ((2, -1), 0b10)]  # y >= 0, 2x - y >= 0
    hb = cones.hilbert_basis(rays, facets)
    assert sorted(hb) == [(1, 0), (1, 1), (1, 2)]


def test_hilbert_basis_every_member_generated():
    rays, facets = cones.extreme_rays([(0, 1), (3, -1)], 2)
    assert sorted(rays) == [(1, 0), (1, 3)]
    hb = cones.hilbert_basis(rays, facets)
    assert sorted(hb) == [(1, 0), (1, 1), (1, 2), (1, 3)]
    # every lattice point in the cone with small coordinates decomposes
    members = [
        (x, y)
        for x, y in itertools.product(range(6), repeat=2)
        if y >= 0 and 3 * x - y >= 0
    ]
    for target in members:
        assert _decomposes(target, hb)


def _decomposes(target, gens):
    frontier = {target}
    seen = set()
    while frontier:
        cur = frontier.pop()
        if all(c == 0 for c in cur):
            return True
        if cur in seen:
            continue
        seen.add(cur)
        for g in gens:
            nxt = tuple(c - a for c, a in zip(cur, g))
            if all(c >= 0 for c in nxt):
                frontier.add(nxt)
    return False


def test_hilbert_basis_rejects_negative_rays():
    # x >= 0, x + y >= 0: the rays (0, 1) and (1, -1)
    with pytest.raises(ValueError, match="needs nonnegative rays"):
        cones.hilbert_basis(*cones.extreme_rays([(1, 0), (1, 1)], 2))


def test_hilbert_basis_rejects_a_cone_that_is_not_full_dimensional():
    # the quadrant x, y >= 0 in the plane z = 0 of R^3
    described = cones.extreme_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)], 3)
    with pytest.raises(ValueError, match="needs a full-dimensional cone"):
        cones.hilbert_basis(*described)

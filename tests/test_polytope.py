import itertools

import numpy as np
import pytest

from mvpolytopes import bz, polytope
from test_acceptance import _psi_matrices
from test_assembly_oracle import group_of, perturbed, random_data


def test_vertices_frozen(a2):
    d = bz.from_lusztig(a2, (1, 2, 1), (2, 1, 1))
    assert polytope.mu1(a2, d).coords == (0, 0)
    assert polytope.mu2(a2, d).coords == (3, 2)
    assert polytope.coweight(a2, d).coords == (3, 2)
    vs = polytope.vertices(a2, d)
    assert vs[a2.identity].coords == (0, 0)
    assert vs[a2.w0].coords == (3, 2)
    assert len(vs) == 6


def test_translate_moves_vertices(a2):
    d = bz.from_lusztig(a2, (1, 2, 1), (1, 1, 0))
    nu = a2.cartan.coweight((2, -1))
    t = polytope.translate(a2, d, nu)
    for w, v in polytope.vertices(a2, d).items():
        assert polytope.vertex(a2, t, w).coords == (v + nu).coords
    assert bz.is_valid(a2, t)


def test_normalize_puts_mu1_at_origin(a2):
    d = bz.from_lusztig(a2, (1, 2, 1), (1, 2, 1))
    shifted = polytope.translate(a2, d, a2.cartan.coweight((-3, 5)))
    back = polytope.normalize(a2, shifted)
    assert polytope.mu1(a2, back).coords == (0, 0)
    assert back == d


def test_minkowski_sum_adds_values_and_vertices(a2):
    d1 = bz.from_lusztig(a2, (1, 2, 1), (1, 0, 0))
    d2 = bz.from_lusztig(a2, (1, 2, 1), (0, 0, 2))
    s = polytope.minkowski_sum(a2, d1, d2)
    v1 = polytope.vertices(a2, d1)
    v2 = polytope.vertices(a2, d2)
    for w, v in polytope.vertices(a2, s).items():
        assert v.coords == (v1[w] + v2[w]).coords
    # edge inequalities are linear, so they survive any sum of valid data
    assert not bz.validate(a2, s).edge_violations


def test_minkowski_sum_of_segments_can_leave_the_family(a2):
    # two segments along different coroots sum to a parallelogram, whose
    # support data breaks exactly one hexagon min-relation
    d1 = bz.from_lusztig(a2, (1, 2, 1), (1, 0, 0))
    d2 = bz.from_lusztig(a2, (1, 2, 1), (0, 0, 2))
    report = bz.validate(a2, polytope.minkowski_sum(a2, d1, d2))
    assert not report.edge_violations
    assert len(report.face_violations) == 1


def test_sum_with_itself_stays_valid(b2):
    ref = b2.reference_word
    for n in itertools.product(range(2), repeat=4):
        d = bz.from_lusztig(b2, ref, n)
        assert bz.is_valid(b2, polytope.minkowski_sum(b2, d, d))


def test_scale(a2):
    d = bz.from_lusztig(a2, (1, 2, 1), (1, 1, 1))
    s = polytope.scale(a2, d, 3)
    assert bz.lusztig_data(a2, s, (1, 2, 1)) == (3, 3, 3)
    with pytest.raises(ValueError):
        polytope.scale(a2, d, -1)
    # int() would truncate 0.5 to 0 and return the valid zero datum
    for c in [0.5, 2.0, "2", True]:
        with pytest.raises(TypeError, match="^scale factor must be an integer"):
            polytope.scale(a2, d, c)
    assert polytope.scale(a2, d, np.int64(3)) == s


def test_psi_is_support_function_on_rays(a2):
    d = bz.from_lusztig(a2, (1, 2, 1), (2, 1, 1))
    # at a chamber weight, psi returns the stored value
    for cw in a2.chamber_weights():
        assert polytope.psi(a2, d, cw.weight) == d.value(cw.weight.coords)


def test_psi_superadditive_on_valid(a2):
    d = bz.from_lusztig(a2, (1, 2, 1), (2, 0, 1))
    cws = [cw.weight for cw in a2.chamber_weights()]
    for x, y in itertools.product(cws, repeat=2):
        pz = polytope.psi(a2, d, x + y)
        assert pz >= polytope.psi(a2, d, x) + polytope.psi(a2, d, y)


@pytest.mark.parametrize("family, rank", [("B", 2), ("A", 3), ("B", 3)])
def test_psi_matches_chamber_rows(family, rank):
    # the object-based rows of the acceptance suite: min over rows is psi
    g = group_of(family, rank)
    rng = np.random.default_rng(31 * rank + ord(family))
    mats = _psi_matrices(g)
    for word, n in random_data(g, rng, 3):
        good = bz.from_lusztig(g, word, n)
        for d in (good, perturbed(g, rng, good)):
            values = np.array(d.values, dtype=np.int64)
            for coords, mat in mats.items():
                want = int((mat @ values).min())
                assert polytope.psi(g, d, g.cartan.weight(coords)) == want, coords


def test_psi_rejects_foreign_directions(a2, b2):
    d = bz.from_lusztig(a2, (1, 2, 1), (2, 1, 1))
    with pytest.raises(ValueError):
        polytope.psi(a2, d, b2.cartan.weight((1, 0)))
    with pytest.raises(TypeError):
        polytope.psi(a2, d, a2.cartan.coweight((1, 0)))


def contains_in_weyl(group, datum, lam):
    """Whether the polytope sits inside the convex hull of the W-orbit of lam."""
    t = polytope.weyl_thresholds(group, lam)
    return all(v >= t[c.level - 1] for v, c in zip(datum.values, group.chamber_weights()))


def test_weyl_thresholds_and_containment(a2):
    lam = a2.cartan.coweight((1, 1))
    assert polytope.weyl_thresholds(a2, lam) == (-1, -1)
    d = bz.from_lusztig(a2, (1, 2, 1), (0, 1, 0))
    assert contains_in_weyl(a2, d, lam)
    big = bz.from_lusztig(a2, (1, 2, 1), (3, 3, 3))
    assert not contains_in_weyl(a2, big, lam)
    with pytest.raises(ValueError):
        polytope.weyl_thresholds(a2, a2.cartan.coweight((1, -5)))


def test_enumerate_mv_counts(a2, b2):
    for g in (a2, b2):
        for coords in itertools.product(range(3), repeat=2):
            mu = g.cartan.coweight(coords)
            assert len(polytope.enumerate_mv(g, mu)) == g.kpf(mu)
    assert polytope.enumerate_mv(a2, a2.cartan.coweight((-1, 0))) == ()


def test_enumerate_mv_is_cached(a3):
    mu = a3.cartan.coweight((1, 1, 1))
    first = polytope.enumerate_mv(a3, mu)
    assert polytope.enumerate_mv(a3, mu) is first

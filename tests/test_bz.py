import itertools

import numpy as np
import pytest

from mvpolytopes import bz, lusztig, polytope, serialize
from mvpolytopes.cartan import CartanDatum, build_cartan
from mvpolytopes.weyl import WeylGroup, weyl_group


def a2_datum(a2, m2, m23, m3, m13):
    """The running two-parameter family: M at Lambda-orbit points fixed to 0."""
    return bz.make_bz(
        a2,
        {
            (1, 0): 0,
            (0, 1): 0,
            (-1, 1): m2,
            (-1, 0): m23,
            (0, -1): m3,
            (1, -1): m13,
        },
    )


def test_make_bz_checks_keys(a2):
    with pytest.raises(ValueError, match="missing"):
        bz.make_bz(a2, {(1, 0): 0})
    with pytest.raises(ValueError, match="not chamber weights"):
        bz.make_bz(a2, {(9, 9): 0})


def test_values_must_be_integers(a2):
    zeros = (0,) * 6
    for bad in [0.9, 1.0, "1", True, np.True_, None]:
        values = (0, 0, 0, bad, 0, 0)
        with pytest.raises(TypeError, match=r"^value at chamber index 3 must be an integer"):
            bz.BZDatum(a2.cartan, values)
    d = bz.BZDatum(a2.cartan, [np.int64(-2), 0, 0, 0, np.int32(1), 0])
    assert d.values == (-2, 0, 0, 0, 1, 0) and {type(v) for v in d.values} == {int}
    assert bz.BZDatum(a2.cartan, zeros).values is zeros


def test_value_lookup(a2):
    d = a2_datum(a2, -2, -3, -2, -1)
    assert d.value((-1, 0)) == -3
    assert d.value((1, -1)) == -1


def test_from_lusztig_frozen(a2):
    d = bz.from_lusztig(a2, (1, 2, 1), (2, 1, 1))
    assert d.value((-1, 1)) == -2
    assert d.value((-1, 0)) == -3
    assert d.value((0, -1)) == -2
    assert d.value((1, -1)) == -1
    assert d.value((1, 0)) == 0 and d.value((0, 1)) == 0


def test_lusztig_data_round_trip(a2):
    d = bz.from_lusztig(a2, (1, 2, 1), (2, 1, 1))
    assert bz.lusztig_data(a2, d, (1, 2, 1)) == (2, 1, 1)
    assert bz.lusztig_data(a2, d, (2, 1, 2)) == (1, 1, 2)


def test_round_trip_all_words_b2(b2):
    words = b2.reduced_words(b2.w0)
    for n in itertools.product(range(3), repeat=4):
        d = bz.from_lusztig(b2, words[0], n)
        assert bz.lusztig_data(b2, d, words[0]) == n
        m = bz.lusztig_data(b2, d, words[1])
        assert bz.from_lusztig(b2, words[1], m) == d


def test_edge_lengths_nonneg_iff_valid_family(a2):
    # M2 = -2, M23 = -3, M3 = -2; M13 = x free
    for x, edges_ok in [(-2, True), (-1, True), (0, True), (1, False), (-3, False)]:
        d = a2_datum(a2, -2, -3, -2, x)
        report = bz.validate(a2, d)
        assert (not report.edge_violations) == edges_ok


def test_tropical_relation_picks_one_point(a2):
    # within the edge-valid window only x = -1 satisfies the min-relation
    valid = [x for x in range(-2, 1) if bz.is_valid(a2, a2_datum(a2, -2, -3, -2, x))]
    assert valid == [-1]


def test_validation_report_lines(a2):
    d = a2_datum(a2, -2, -3, -2, 1)
    report = bz.validate(a2, d)
    assert not report.is_valid
    assert any("edge" in line for line in report.lines())
    good = bz.from_lusztig(a2, (1, 2, 1), (0, 1, 2))
    assert bz.validate(a2, good).lines() == ["valid"]


def test_from_lusztig_covers_all_words_consistently(a3):
    n = (1, 0, 2, 0, 1, 1)
    ref = a3.reference_word
    d = bz.from_lusztig(a3, ref, n)
    for word in a3.reduced_words(a3.w0):
        expected = lusztig.transport(a3, ref, word, n)
        assert bz.lusztig_data(a3, d, word) == expected


def test_edge_length_is_lusztig_entry(b2):
    ref = b2.reference_word
    n = (2, 0, 1, 3)
    d = bz.from_lusztig(b2, ref, n)
    w = b2.identity
    for k, i in enumerate(ref):
        assert bz.edge_length(b2, d, w, i) == n[k]
        w = b2.right(w, i)


B3_C3_READERS = {
    "validate": lambda g, d: bz.validate(g, d),
    "lusztig_data": lambda g, d: bz.lusztig_data(g, d, g.reference_word),
    "edge_length": lambda g, d: bz.edge_length(g, d, g.identity, 1),
    "vertex": lambda g, d: polytope.vertex(g, d, g.w0),
    "vertex_matrix": lambda g, d: polytope.vertex_matrix(g, d),
    "psi": lambda g, d: polytope.psi(g, d, g.cartan.fundamental_weight(1)),
    "translate": lambda g, d: polytope.translate(g, d, g.cartan.coweight((1, 0, 0))),
    "scale": lambda g, d: polytope.scale(g, d, 2),
    "datum_to_doc": lambda g, d: serialize.datum_to_doc(g, d),
}


@pytest.mark.parametrize("name", sorted(B3_C3_READERS))
def test_datum_of_another_type_is_refused(b3, name):
    # B3 and C3 have the same number of chamber weights, so only the type
    # tells a B3 datum from a C3 one
    d = bz.from_lusztig(b3, b3.reference_word, range(1, b3.m + 1))
    c3 = weyl_group(build_cartan("C", 3))
    with pytest.raises(ValueError, match="different Cartan datum"):
        B3_C3_READERS[name](c3, d)
    # an equal, not identical, datum: build_cartan returns b3's own
    fresh = WeylGroup(CartanDatum("B", 3, b3.cartan.a))
    assert fresh.cartan == b3.cartan and fresh.cartan is not b3.cartan
    got, want = B3_C3_READERS[name](fresh, d), B3_C3_READERS[name](b3, d)
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    else:
        assert got == want

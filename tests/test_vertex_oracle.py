"""Vertex rows, documents and 2-face drawings against per-element references.

``reference_vertex`` builds each vertex mu_w from ``Weight`` and ``Coweight``
objects, one element at a time.  ``reference_doc`` builds a document the way
it was built before vertex rows existed: a ``Coweight`` and a ``word_key``
per element, a key per chamber weight.  ``reference_face_points`` projects
the vertices of a 2-face with ``Fraction`` arithmetic.  None of them reads
``polytope.vertex_matrix`` or the keys of the index table.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpolytopes import bz, draw, polytope, serialize, sln
from test_assembly_oracle import group_of, reference_validate, reference_vertex

GROUPS = [("A", 2), ("B", 2), ("A", 3), ("B", 3), ("C", 3), ("A", 4), ("D", 4)]
HUGE = 2**70  # past int64, so the vertex rows must be Python ints


@st.composite
def data(draw_):
    """(group, datum, scaled): an assembled datum along a random word, perhaps
    moved at 1 to 3 random chambers, perhaps scaled by 2**70."""
    g = group_of(*draw_(st.sampled_from(GROUPS)))
    words = g.braid_graph().words
    word = words[draw_(st.integers(0, len(words) - 1))]
    n = draw_(st.lists(st.integers(0, 6), min_size=g.m, max_size=g.m))
    values = list(bz.from_lusztig(g, word, n).values)
    size = len(values)
    moves = draw_(
        st.lists(
            st.tuples(st.integers(0, size - 1), st.sampled_from([-3, -2, -1, 1, 2, 3])),
            max_size=3,
            unique_by=lambda m: m[0],
        )
    )
    for t, delta in moves:
        values[t] += delta
    scaled = draw_(st.booleans())
    if scaled:
        values = [HUGE * v for v in values]
    return g, bz.BZDatum(g.cartan, tuple(values)), scaled


def reference_doc(group, datum, subset_keys=False):
    if subset_keys:
        n = group.rank + 1
        key = lambda coords: sln.subset_key(sln.subset_of_coords(n, coords))
    else:
        key = serialize.coords_key
    verts = {w: reference_vertex(group, datum, w) for w in group.elements()}
    return {
        "group": {"family": group.cartan.family, "rank": group.rank},
        "values": {
            key(c.weight.coords): v for c, v in zip(group.chamber_weights(), datum.values)
        },
        "mu1": list(verts[group.identity].coords),
        "mu2": list(verts[group.w0].coords),
        "valid": reference_validate(group, datum).is_valid,
        "vertices": {serialize.word_key(w.word): list(v.coords) for w, v in verts.items()},
    }


def reference_face_points(group, datum, face):
    """Distinct exact (x, y) with mu_u - mu_w = x w.alpha_i^vee + y w.alpha_j^vee
    over the coset w<s_i, s_j>."""
    w, i, j = face.w, face.i, face.j
    coset, frontier = {w}, [w]
    while frontier:
        nxt = []
        for u in frontier:
            for v in (group.right(u, i), group.right(u, j)):
                if v not in coset:
                    coset.add(v)
                    nxt.append(v)
        frontier = nxt
    b1 = group.w_coroot(w, i).coords
    b2 = group.w_coroot(w, j).coords
    p, q = next(
        (p, q)
        for p in range(group.rank)
        for q in range(p + 1, group.rank)
        if b1[p] * b2[q] != b1[q] * b2[p]
    )
    det = b1[p] * b2[q] - b1[q] * b2[p]
    base = reference_vertex(group, datum, w).coords
    pts = set()
    for u in coset:
        diff = [a - b for a, b in zip(reference_vertex(group, datum, u).coords, base)]
        x = Fraction(diff[p] * b2[q] - diff[q] * b2[p], det)
        y = Fraction(b1[p] * diff[q] - b1[q] * diff[p], det)
        assert all(x * c1 + y * c2 == d for c1, c2, d in zip(b1, b2, diff))
        pts.add((x, y))
    return pts


@settings(max_examples=60, deadline=None)
@given(data())
def test_vertex_rows_match_reference(case):
    g, d, scaled = case
    rows = polytope.vertex_matrix(g, d)
    assert rows.shape == (len(g.elements()), g.rank)
    assert rows.dtype == (object if scaled and any(d.values) else np.int64)
    verts = polytope.vertices(g, d)
    for w, row in zip(g.elements(), rows.tolist()):
        want = reference_vertex(g, d, w)
        assert tuple(row) == want.coords
        assert verts[w] == want
        assert polytope.vertex(g, d, w) == want
        assert all(type(v) is int for v in row)


def test_vertex_rows_leave_int64_before_they_could_wrap():
    g = group_of("D", 4)
    d = bz.from_lusztig(g, g.reference_word, (1,) * g.m)
    biggest = max(abs(v) for v in d.values)
    coroot_max = max(abs(a) for a in g._comats.ravel().tolist())
    # the largest factor keeping max|M| * max|w.alpha_i^vee| * r below 2**62
    c = ((1 << 62) - 1) // (biggest * coroot_max * g.rank)
    for k, dtype in [(c, np.int64), (c + 1, object), (1 << 62, object)]:
        scaled = polytope.scale(g, d, k)
        rows = polytope.vertex_matrix(g, scaled)
        assert rows.dtype == dtype
        for w, row in zip(g.elements(), rows.tolist()):
            assert tuple(row) == reference_vertex(g, scaled, w).coords


@settings(max_examples=60, deadline=None)
@given(data(), st.booleans())
def test_document_matches_reference(case, subset_keys):
    g, d, _ = case
    subset_keys = subset_keys and g.cartan.family == "A"
    text = serialize.canonical_json(serialize.datum_to_doc(g, d, subset_keys=subset_keys))
    assert text == serialize.canonical_json(reference_doc(g, d, subset_keys))
    assert serialize.load_datum(text) == (g, d)


def test_load_datum_keeps_other_spellings_of_keys(a2):
    d = bz.from_lusztig(a2, a2.reference_word, (2, 1, 1))
    doc = serialize.datum_to_doc(a2, d)
    spelled = {
        ",".join(f" {int(c):+} " for c in key.split(",")): v
        for key, v in doc["values"].items()
    }
    assert all(k not in doc["values"] for k in spelled)
    assert serialize.doc_to_datum({**doc, "values": spelled}) == (a2, d)
    subset = serialize.datum_to_doc(a2, d, subset_keys=True)["values"]
    assert serialize.doc_to_datum({**doc, "values": {**doc["values"], **subset}}) == (a2, d)
    subset["1"] += 1  # the chamber weight (1, 0) again, with another value
    with pytest.raises(ValueError, match="conflicting values"):
        serialize.doc_to_datum({**doc, "values": {**doc["values"], **subset}})


@settings(max_examples=60, deadline=None)
@given(data(), st.data())
def test_face_drawing_matches_fraction_reference(case, choose):
    g, d, _ = case
    check_face_drawing(g, d, choose.draw(st.sampled_from(g.two_faces())))


def test_face_drawing_with_a_negative_pivot_determinant():
    # the coroots of this face give det -1 at the first pivot; 0 / -1 is -0.0,
    # which atan2 puts at -pi, so the polygon would start at another vertex
    g = group_of("B", 3)
    values = (-1, 0, 0, -2, -1, 0, 2, 0, 0, -2, -2, -1, 0, 0, 0, -2, -2, -1, 0, -1, 0, -1, 0)
    d = bz.BZDatum(g.cartan, values + (-1, 0, -1))
    face = next(f for f in g.two_faces() if (f.w.word, f.i, f.j) == ((1, 2, 3), 1, 2))
    assert draw._face_points(g, d, ((1, 2, 3), 1, 2))[1] == 1
    check_face_drawing(g, d, face)


def check_face_drawing(g, d, face):
    """The drawn points equal the Fraction reference, and so does the SVG."""
    spec = (face.w.word, face.i, face.j)
    pts, det, pair = draw._face_points(g, d, spec)
    want = reference_face_points(g, d, face)
    assert pair == (face.i, face.j) and len(pts) == len(set(pts)) == len(want)
    assert {(Fraction(x, det), Fraction(y, det)) for x, y in pts} == want

    def fraction_points(group, datum, spec):
        return sorted(want), 1, pair

    svg = draw.render_svg(g, d, face=spec, unit=True)
    with mock.patch.object(draw, "_face_points", fraction_points):
        assert svg == draw.render_svg(g, d, face=spec, unit=True)
    assert svg.count('r="3.5"') == len(want)

"""SVG rendering of polytopes.

All geometry stays exact until the final embedding into the plane.  Rank 1
and 2 groups draw the whole polytope; higher ranks draw a chosen 2-face,
projected exactly onto the coroot pair spanning the face before embedding:
its points are integer numerators over one denominator, divided only when
they become floats.
"""

from __future__ import annotations

import itertools
import math

from . import polytope
from .bz import BZDatum
from .weyl import WeylGroup

FILL = "#cfe2f3"
STROKE = "#1f3864"
SCALE = 60.0  # pixels per unit of the embedded plane
ARROWS = ("#b00020", "#00600f")


def _embed_basis(a12: int, a21: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """Plane vectors with the reflection geometry of a rank-2 bond."""
    if a12 == 0 or a21 == 0:
        return (1.0, 0.0), (0.0, 1.0)
    z = a21 / 2.0
    y = a21 / a12  # squared length of the second vector
    h = math.sqrt(y - z * z)
    return (1.0, 0.0), (z, h)


def _face_points(group: WeylGroup, datum: BZDatum, face) -> tuple[list, int, tuple]:
    """The distinct 2-face vertices in the coroot basis of the face.

    Returns integer numerators (x, y) over one common denominator ``det > 0``:
    the vertex rows of the coset w<s_i, s_j>, less the row of w, solved
    exactly in the basis w.alpha_i^vee, w.alpha_j^vee.
    """
    word, i, j = face
    group.cartan._check_index(i)
    group.cartan._check_index(j)
    w = group.from_word(word)
    b1 = group.w_coroot(w, i).coords
    b2 = group.w_coroot(w, j).coords
    pivots = [
        (p, q)
        for p, q in itertools.combinations(range(group.rank), 2)
        if b1[p] * b2[q] != b1[q] * b2[p]
    ]
    if not pivots:
        raise RuntimeError(f"face {face}: coroots {b1} and {b2} are not independent")
    p, q = pivots[0]
    det = b1[p] * b2[q] - b1[q] * b2[p]
    if det < 0:
        # a negative det would put 0 / det = -0.0 on the plane, where atan2
        # turns to -pi; swapping the pivot negates det and the numerators
        p, q, det = q, p, -det
    # the coset is the polygon's cycle w, w s_i, w s_i s_j, ... of 2 m_ij elements
    coset = [group._row(w)]
    for k in range(2 * group.braid_order(i, j) - 1):
        coset.append(group._right_array.item(coset[-1], (i, j)[k % 2] - 1))
    rows = polytope.vertex_matrix(group, datum)
    base = rows[coset[0]].tolist()
    pts = set()
    for u in coset:
        diff = [a - b for a, b in zip(rows[u].tolist(), base)]
        x = diff[p] * b2[q] - diff[q] * b2[p]
        y = b1[p] * diff[q] - b1[q] * diff[p]
        if any(x * c1 + y * c2 != det * d for c1, c2, d in zip(b1, b2, diff)):
            raise RuntimeError(
                f"face {face}: vertex at {group.elements()[u].word} leaves the face plane"
            )
        pts.add((x, y))
    return sorted(pts), det, (i, j)


def _polygon_order(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    uniq = sorted(set(points))
    if len(uniq) <= 2:
        return uniq
    cx = sum(p[0] for p in uniq) / len(uniq)
    cy = sum(p[1] for p in uniq) / len(uniq)
    return sorted(uniq, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def render_svg(
    group: WeylGroup,
    datum: BZDatum,
    face=None,
    unit: bool = False,
) -> str:
    """Standalone SVG for the polytope (rank <= 2) or one of its 2-faces."""
    if face is None:
        if group.rank > 2:
            raise ValueError("rank > 2 needs a 2-face: pass face=(word, i, j)")
        verts = polytope.vertex_matrix(group, datum).tolist()
        den = 1
        if group.rank == 1:
            exact = [(c[0], 0) for c in verts]
            basis = ((1.0, 0.0), (0.0, 1.0))
            arrow_vecs = [(1, 0)]
            arrow_names = ["a1"]
        else:
            exact = [(c[0], c[1]) for c in verts]
            basis = _embed_basis(group.cartan.entry(1, 2), group.cartan.entry(2, 1))
            arrow_vecs = [(1, 0), (0, 1)]
            arrow_names = ["a1", "a2"]
    else:
        exact, den, (i, j) = _face_points(group, datum, face)
        basis = _embed_basis(group.cartan.entry(i, j), group.cartan.entry(j, i))
        arrow_vecs = [(1, 0), (0, 1)]
        arrow_names = [f"a{i}", f"a{j}"]

    v1, v2 = basis
    def to_xy(c):
        return (
            float(c[0]) * v1[0] + float(c[1]) * v2[0],
            float(c[0]) * v1[1] + float(c[1]) * v2[1],
        )

    pts = [to_xy((x / den, y / den)) for x, y in exact]
    shown = list(pts) + [(0.0, 0.0)]
    arrows = []
    if unit:
        for vec, name, color in zip(arrow_vecs, arrow_names, ARROWS):
            tip = to_xy(vec)
            arrows.append((tip, name, color))
            shown.append(tip)
    xs = [p[0] for p in shown]
    ys = [p[1] for p in shown]
    pad = 30.0
    span_x = max(xs) - min(xs) or 1.0
    span_y = max(ys) - min(ys) or 1.0
    width = span_x * SCALE + 2 * pad
    height = span_y * SCALE + 2 * pad

    def place(p):
        return (
            pad + (p[0] - min(xs)) * SCALE,
            height - pad - (p[1] - min(ys)) * SCALE,
        )

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="100%" height="100%" fill="white"/>',
    ]
    ordered = _polygon_order(pts)
    placed = [place(p) for p in ordered]
    if len(placed) == 1:
        x, y = placed[0]
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5" fill="{STROKE}"/>')
    elif len(placed) == 2:
        (x1, y1), (x2, y2) = placed
        out.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{STROKE}" stroke-width="3"/>'
        )
    else:
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in placed)
        out.append(
            f'<polygon points="{coords}" fill="{FILL}" stroke="{STROKE}" stroke-width="2"/>'
        )
    for x, y in placed:
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="{STROKE}"/>')
    ox, oy = place((0.0, 0.0))
    out.append(
        f'<path d="M {ox-5:.2f} {oy:.2f} H {ox+5:.2f} M {ox:.2f} {oy-5:.2f} '
        f'V {oy+5:.2f}" stroke="#888" stroke-width="1.5"/>'
    )
    for (tx, ty), name, color in arrows:
        ax, ay = place((tx, ty))
        out.append(
            f'<line x1="{ox:.2f}" y1="{oy:.2f}" x2="{ax:.2f}" y2="{ay:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<circle cx="{ax:.2f}" cy="{ay:.2f}" r="2.5" fill="{color}"/>'
        )
        out.append(
            f'<text x="{ax+6:.2f}" y="{ay-4:.2f}" font-size="12" fill="{color}">{name}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"

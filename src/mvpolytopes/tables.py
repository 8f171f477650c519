"""Integer index tables of a Weyl group, read by the inner loops.

Every constraint on a datum, and every step of assembling one from Lusztig
data, reads the values tuple at fixed chamber indices.  ``index_table``
computes those indices once per group and keeps them on the group, so the
loops in :mod:`bz`, :mod:`polytope` and :mod:`primes` touch ints only;
``Weight`` and ``Coweight`` objects appear only at the API boundary.  The
tables are indexed by element index, which is each element's own
``WeylElement.index`` (its row in the group's action stacks), so no map from
elements back to indices is kept, and the table holds no objects but ints.

The polytope constraints are integer rows over the values tuple, held here
and nowhere else, each once, as the check rows: one padded gather pair
``(check_index, check_coef)`` with a column per row.  The edge block comes
first, one row per ascent (w, i), l(w s_i) > l(w), whose value is the edge
length; it follows the row-major order of ``group._ascents``, so the column
of (w, i) counts the ascents before it (:func:`_edge_columns`).  Then, for
each min-relation lhs = min(args) of a hexagonal or octagonal 2-face, a row
arg_k - lhs per argument k, laid out as :func:`by_relation` reads them (a
hexagon repeats its last).  The relations are written once, in
:data:`FACE_RELATIONS`, over a face's chamber weights A..H.
:func:`bz.validate` sums every column: a datum is valid when the edge lengths
are nonnegative and the least sum over each relation's columns, its residual
min(args) - lhs, is zero.  :func:`primes.build_catalog` reads the same rows:
a choice of one argument per relation cuts out the cone where the chosen
argument's row is zero and the edge rows and the other arguments' rows are
nonnegative.

Each block of 2-faces (``group._face_blocks``) gathers its chamber indices
A..H as one int array, which fills its relations' check columns and feeds the
program; ``faces`` keeps each face as (t, i, j).

The vertices mu_w = sum_i M(w Lambda_i) w.alpha_i^vee of a datum are one
integer product: the table keeps the chamber indices w Lambda_i as an
``(|W|, r)`` array and the coweight actions w.alpha_i^vee as an
``(|W|, r, r)`` stack (see :func:`polytope.vertex_matrix`), both the
group's own arrays from its walk, not copies.

The table also holds the assembly program of :func:`bz.from_lusztig`: a
straight-line program from the Lusztig data n along the reference word to the
values tuple.  Its m edge steps solve the edge block's rows along that word
for M(gamma_k).  A polytope is MV exactly when its 2-faces are, so each face
step takes one relation lhs = min(args) of :data:`FACE_RELATIONS` with a
single unknown x in lhs and sets x = min(args) - (lhs - x).  Relations of
negated faces, read through the ``negation`` column gamma -> -gamma, count
too, as -P is MV with P; without them the program stalls in C3 and C4.  The
build checks that the program reaches every chamber weight and compiles it to
one Python function on Python ints, exact at any size.  No reduced word of w0
but the reference word is read, so the braid graph is never built.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .weyl import WeylGroup

# sparse integer row: the value is sum(coef * x[index] for index, coef in row)
Row = tuple[tuple[int, int], ...]

# The 2-face min-relations lhs = min(args), by face kind.  Each row is
# (position, coefficient) pairs over the face's chamber weights, at positions
# 0..7 = A..H:
#   A = w Lambda_i, B = w Lambda_j, C = w s_i Lambda_i, D = w s_j Lambda_j,
#   E = w s_i s_j Lambda_j, F = w s_j s_i Lambda_i,
#   G = w s_i s_j s_i Lambda_i, H = w s_j s_i s_j Lambda_j,
# with octagons oriented so that a_ij = -1 and a_ji = -2.  Catalog choice
# vectors index into ``args`` in this order.
FACE_RELATIONS: dict[str, tuple[tuple[Row, tuple[Row, ...]], ...]] = {
    "hexagon": (
        # C + D = min(A + E, F + B)
        (((2, 1), (3, 1)), (((0, 1), (4, 1)), ((5, 1), (1, 1)))),
    ),
    "octagon": (
        # D + E + C = min(2E + A, 2B + G, B + H + C)
        (
            ((3, 1), (4, 1), (2, 1)),
            (((4, 2), (0, 1)), ((1, 2), (6, 1)), ((1, 1), (7, 1), (2, 1))),
        ),
        # F + 2E + C = min(2B + 2G, 2H + 2C, G + 2E + A)
        (
            ((5, 1), (4, 2), (2, 1)),
            (((1, 2), (6, 2)), ((7, 2), (2, 2)), ((6, 1), (4, 2), (0, 1))),
        ),
    ),
}

# the most args of a relation; the check rows give every relation this many
RELATION_ARGS = max(len(args) for rels in FACE_RELATIONS.values() for _, args in rels)


class Step(NamedTuple):
    """One assignment of the assembly program: M[x] = min(args) - rest, less
    n_k for an edge step.  A face step has ``k`` None."""

    x: int
    args: tuple[Row, ...]
    rest: Row
    k: int | None


@dataclass(frozen=True)
class IndexTable:
    """Chamber and element indices of one group; see the module docstring.

    Element indices follow ``group.elements()`` (0 is the identity), so the
    row of an element w is ``w.index``; chamber indices follow
    ``group.chamber_weights()``.
    """

    n_edges: int  # E, the columns of the check rows' edge block
    # [i - 1]: (j - 1, a_ji) for each j != i with a_ji != 0, Cartan column i
    cartan_columns: tuple[tuple[tuple[int, int], ...], ...]
    # intp (F, 3): (t, i, j) of the hexagons and octagons in group.two_faces
    # order; their relations, in FACE_RELATIONS order per face, are the rows
    # of ``by_relation``
    faces: np.ndarray
    negation: tuple[int, ...]  # [x]: chamber index of -gamma for chamber weight x
    program: tuple[Step, ...]  # the m edge steps, then the face steps
    # the program compiled to one function from the Lusztig data along the
    # reference word to the values tuple
    assemble: Callable[[tuple[int, ...]], tuple[int, ...]]
    # the check rows, one per column, as chamber indices and coefficients
    # padded with 0: the E edge rows, then the rows arg_k - lhs of the R
    # relations, at the columns ``by_relation`` reads
    check_index: np.ndarray  # intp (width, E + RELATION_ARGS * R)
    check_coef: np.ndarray  # int64 (width, E + RELATION_ARGS * R)
    check_norm: int  # max over the check rows of sum |coef|
    chamber_array: np.ndarray  # intp (|W|, r): [t][i - 1] is the chamber index of w_t . Lambda_i
    coaction: np.ndarray  # int64 (|W|, r, r): [t][c][i - 1] is coordinate c of w_t . alpha_i^vee


def index_table(group: WeylGroup) -> IndexTable:
    """The group's table, built on first use and kept on the group."""
    if group._table is None:
        group._table = _build(group)
    return group._table


def by_relation(table: IndexTable, per_column: np.ndarray) -> np.ndarray:
    """The relation columns of an array with one entry per check row, as an
    ``(R, RELATION_ARGS)`` view whose entry [r][k] belongs to the row
    arg_k - lhs of relation r.  Applied to the check sums it gives each
    relation's residuals, and applied to the column numbers the columns."""
    return per_column[table.n_edges :].reshape(RELATION_ARGS, -1).T


def _build(group: WeylGroup) -> IndexTable:
    chambers = group.chamber_weights()
    a, r = group.cartan.a, group.rank
    columns = tuple(tuple((j, a[j][i]) for j in range(r) if j != i and a[j][i]) for i in range(r))
    blocks = group._face_blocks(("hexagon", "octagon"))
    gathered = [(kind, _face_chambers(group, kind, i, j, t)) for kind, i, j, t in blocks]
    edges = _edge_block(group, columns)
    check_index, check_coef = _checks(edges, gathered)
    negation = tuple(group.chamber_index(tuple(-v for v in c.weight.coords)) for c in chambers)
    program = _program(group, (check_index, check_coef), gathered, negation)
    faces = [np.stack(np.broadcast_arrays(t, i, j), axis=1) for _, i, j, t in blocks]
    return IndexTable(
        n_edges=edges[0].shape[1],
        cartan_columns=columns,
        faces=np.concatenate([np.zeros((0, 3), dtype=np.intp), *faces]),
        negation=negation,
        program=program,
        assemble=_compiled(program, len(chambers), group._chamber_array[0].tolist()),
        check_index=check_index,
        check_coef=check_coef,
        check_norm=int(np.abs(check_coef).sum(0).max()),
        chamber_array=group._chamber_array,
        coaction=group._comats,
    )


def _edge_block(group: WeylGroup, columns) -> tuple[np.ndarray, np.ndarray]:
    """The edge rows as a padded gather pair, one column per ascent (t, i) in
    row-major order, whose value is the edge length at (w_t, i):
    -M(w Lambda_i) - M(w s_i Lambda_i) - sum_{j != i} a_ji M(w Lambda_j)."""
    width = max(map(len, columns))
    # [i][p]: (j, a_ji) of the Cartan column i, padded with (i, 0)
    near = [col + ((i, 0),) * (width - len(col)) for i, col in enumerate(columns)]
    near = np.array(near, dtype=np.intp).reshape(len(columns), width, 2)
    t, i = np.nonzero(group._ascents)
    j, a, chamber = near[i, :, 0].T, near[i, :, 1].T, group._chamber_array  # (width, E)
    index = [chamber[t, i], chamber[group._right_array[t, i], i], np.where(a, chamber[t, j], 0)]
    return np.vstack(index), np.vstack([np.full((2, len(t)), -1), -a]).astype(np.int64)


def _edge_columns(group: WeylGroup, word: tuple[int, ...]) -> np.ndarray:
    """The check columns of the edges (w_{k-1}, i_k) along a reduced word of
    w0: in the edge block, an ascent's column counts the ascents before it."""
    at = np.array(group._prefixes(word)[:-1]) * group.rank + np.array(word) - 1
    return np.cumsum(group._ascents.ravel())[at] - 1


def _face_chambers(group: WeylGroup, kind: str, i: int, j: int, t: np.ndarray) -> np.ndarray:
    """The chamber indices A..F of the hexagons of s_i and s_j at the w_t,
    or A..H of the octagons, as one ``(F, 6 | 8)`` gather from the group's
    chamber and right arrays."""
    right, i, j = group._right_array, i - 1, j - 1
    ti, tj = right[t, i], right[t, j]
    rows, letters = [t, t, ti, tj, right[ti, j], right[tj, i]], [i, j, i, j, j, i]  # A..F
    if kind == "octagon":  # G, H
        rows, letters = rows + [right[rows[4], i], right[rows[5], j]], letters + [i, j]
    return group._chamber_array[np.stack(rows, axis=1), letters]


def _relation_rows(rels) -> tuple[np.ndarray, np.ndarray]:
    """The rows arg_k - lhs of one face kind's relations over face positions,
    a hexagon's last argument repeated, as positions and coefficients of shape
    ``(RELATION_ARGS, relations, width)``, padded with 0 in both."""
    rows = []
    for k in range(RELATION_ARGS):
        for lhs, args in rels:
            total = Counter(dict(args[min(k, len(args) - 1)]))
            total.subtract(dict(lhs))
            rows.append([(p, c) for p, c in total.items() if c])
    cells = np.zeros((len(rows), max(map(len, rows)), 2), dtype=np.int64)
    for row, cell in zip(rows, cells):
        cell[: len(row)] = row
    cells = cells.reshape(RELATION_ARGS, len(rels), -1, 2)
    return cells[..., 0].astype(np.intp), cells[..., 1].copy()


# per face kind, its relation rows over face positions (see _relation_rows)
RELATION_ROWS = {kind: _relation_rows(rels) for kind, rels in FACE_RELATIONS.items()}


def _checks(edges, blocks: list[tuple[str, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The edge block's columns, then the relation rows of the face blocks,
    as one ``(width, columns)`` pair padded with 0.  Argument k of relation q
    of face f in a block, a hexagon's last repeated, is column E + k R +
    start + f * (relations per face) + q (see :func:`by_relation`); a block
    fills its columns with one gather of its chamber indices through its
    kind's :data:`RELATION_ROWS`."""
    n = sum(len(FACE_RELATIONS[kind]) * len(at) for kind, at in blocks)  # R
    edge_width, e = edges[0].shape
    width = max([edge_width, *(RELATION_ROWS[kind][0].shape[2] for kind, _ in blocks)])
    index = np.zeros((width, e + RELATION_ARGS * n), dtype=np.intp)
    coef = np.zeros(index.shape, dtype=np.int64)
    index[:edge_width, :e], coef[:edge_width, :e] = edges
    # the relation columns, as (width, RELATION_ARGS, R) views
    rel_index = index[:, e:].reshape(width, RELATION_ARGS, n)
    rel_coef = coef[:, e:].reshape(width, RELATION_ARGS, n)
    start = 0
    for kind, at in blocks:
        positions, coefs = RELATION_ROWS[kind]
        w, stop = positions.shape[2], start + positions.shape[1] * len(at)
        # [f, k, q, p] -> [p, k, f, q]: cell p of argument k of relation q of face f
        cells = np.where(coefs != 0, at[:, positions], 0).transpose(3, 1, 0, 2)
        rel_index[:w, :, start:stop] = cells.reshape(w, RELATION_ARGS, -1)
        rel_coef[:w, :, start:stop] = np.broadcast_to(
            coefs.transpose(2, 0, 1)[:, :, None], cells.shape
        ).reshape(w, RELATION_ARGS, -1)
        start = stop
    return index, coef


def _program(group: WeylGroup, checks, blocks: list, negation: tuple[int, ...]) -> tuple[Step, ...]:
    """The assembly program over the relations of the face blocks, each a
    kind and its :func:`_face_chambers`, and of their negations.

    Edge step k solves the edge block's row at (w_{k-1}, i_k), of length n_k,
    for M(gamma_k), whose other chamber weights are Lambda_j or earlier
    gamma_l.  Then, in passes over the distinct relations, each one with a
    single unknown x in lhs, of coefficient 1, and all else known becomes a
    face step.  Raises if some chamber weight is left unreached.
    """
    known, steps = set(group._chamber_array[0].tolist()), []
    index, coef = checks
    for k, e in enumerate(_edge_columns(group, group.reference_word).tolist()):
        # the row is -M(x) plus the rest, x = gamma_k its second entry
        row = list(zip(index[:, e].tolist(), coef[:, e].tolist()))
        x = row[1][0]
        steps.append(Step(x, (tuple(p for p in row if p[1] and p[0] != x),), (), k))
        known.add(x)
    # the distinct relations in first-occurrence order: a negated face often
    # gives a relation already listed, whose later copies would never be a step
    pending, negate = {}, np.array(negation, dtype=np.intp)
    for kind, at in blocks:
        for face in zip(at.tolist(), negate[at].tolist()):
            for x in face:
                for lhs, args in FACE_RELATIONS[kind]:
                    pending[_gathered(x, lhs), tuple(_gathered(x, a) for a in args)] = None
    pending = list(pending)
    while pending:
        left = []
        for lhs, args in pending:
            unknown = [(p, c) for p, c in lhs if p not in known]
            if not unknown:
                continue
            if len(unknown) == 1 and unknown[0][1] == 1 and all(
                p in known for arg in args for p, _ in arg
            ):
                x = unknown[0][0]
                steps.append(Step(x, args, tuple(e for e in lhs if e[0] != x), None))
                known.add(x)
            else:
                left.append((lhs, args))
        if len(left) == len(pending):
            break
        pending = left
    missed = sorted(set(range(len(negation))) - known)
    if missed:
        coords = [group.chamber_weights()[x].weight.coords for x in missed]
        raise RuntimeError(f"assembly program misses the chamber weights {coords}")
    return tuple(steps)


def _compiled(
    program: tuple[Step, ...], size: int, identity: list[int]
) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The program as the source of one Python function, compiled: value x
    is the local v<x>, n_k the local n<k>, and each step one assignment, so
    evaluating it makes no call but ``min`` and stays on Python ints."""

    def expr(row: Row) -> str:
        text = ""
        for x, c in row:
            text += " - " if c < 0 else " + "
            text += f"{abs(c)} * v{x}" if abs(c) != 1 else f"v{x}"
        return text.removeprefix(" + ") or "0"

    m = sum(step.k is not None for step in program)
    lines = [
        "def assemble(n):",
        "    " + "".join(f"n{k}, " for k in range(m)) + "= n",
        "    " + "".join(f"v{x} = " for x in identity) + "0",
    ]
    for x, args, rest, k in program:
        value = expr(args[0]) if len(args) == 1 else "min(" + ", ".join(map(expr, args)) + ")"
        if rest:
            value += f" - ({expr(rest)})"
        if k is not None:
            value += f" - n{k}"
        lines.append(f"    v{x} = {value}")
    lines.append("    return (" + "".join(f"v{x}, " for x in range(size)) + ")")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<assembly program>", "exec"), namespace)
    return namespace["assemble"]


def _gathered(at: list[int], row: Row) -> Row:
    """A row over face positions as a row over their chamber indices ``at``."""
    return tuple((at[p], c) for p, c in row)

"""Integer index tables of a Weyl group, read by the inner loops.

Every constraint on a datum, and every step of assembling one from Lusztig
data, reads the values tuple at fixed chamber indices.  ``index_table``
computes those indices once per group and keeps them on the group, so the
loops in :mod:`bz`, :mod:`polytope` and :mod:`primes` touch ints only;
``Weight`` and ``Coweight`` objects appear only at the API boundary.  The
tables are indexed by element index, which is each element's own
``WeylElement.index`` (its row in the group's action stacks), so no map from
elements back to indices is kept.

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

The vertices mu_w = sum_i M(w Lambda_i) w.alpha_i^vee of a datum are one
integer product: the table keeps the chamber indices w Lambda_i as an
``(|W|, r)`` array and the coweight actions w.alpha_i^vee as an
``(|W|, r, r)`` stack (see :func:`polytope.vertex_matrix`), both the
group's own arrays from its walk, not copies.  These and the group's right
table ``_right_array`` are the only form of each table: the build's loops
read a local ``.tolist()`` that is not kept, and a reader of a few entries
indexes the array.  The table also keeps the document keys of
:mod:`serialize`: the canonical word of every element and the coordinates of
every chamber weight, with the inverse map from a key to its chamber index.

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

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .weyl import Face, WeylGroup

Word = tuple[int, ...]
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
    # the hexagons and octagons in group.two_faces order; their relations, in
    # FACE_RELATIONS order per face, are the rows of ``by_relation``
    faces: tuple[Face, ...]
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
    coaction_max: int  # max |entry| of ``coaction``
    word_keys: tuple[str, ...]  # [t]: serialize.word_key of the canonical word of w_t
    chamber_keys: tuple[str, ...]  # [x]: serialize.coords_key of chamber weight x
    key_chamber: dict[str, int]  # inverse of ``chamber_keys``


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


def _face_indices(chamber, right, t: int, i: int, j: int, kind: str) -> tuple[int, ...]:
    """Chamber indices A..F of a hexagon, or A..H of an octagon."""
    ti, tj = right[t][i - 1], right[t][j - 1]
    tij, tji = right[ti][j - 1], right[tj][i - 1]
    out = (
        chamber[t][i - 1],  # A
        chamber[t][j - 1],  # B
        chamber[ti][i - 1],  # C
        chamber[tj][j - 1],  # D
        chamber[tij][j - 1],  # E
        chamber[tji][i - 1],  # F
    )
    if kind == "octagon":
        out += (
            chamber[right[tij][i - 1]][i - 1],  # G
            chamber[right[tji][j - 1]][j - 1],  # H
        )
    return out


def _build(group: WeylGroup) -> IndexTable:
    from .serialize import coords_key, word_key  # serialize imports this module

    chambers = group.chamber_weights()
    a, r = group.cartan.a, group.rank
    columns = tuple(tuple((j, a[j][i]) for j in range(r) if j != i and a[j][i]) for i in range(r))
    # build-time copies of the group's arrays, dropped when the build returns
    chamber = group._chamber_array.tolist()
    right = group._right_array.tolist()
    faces = group.two_faces(("hexagon", "octagon"))
    relations = []  # per relation, its rows arg_k - lhs
    for f in faces:
        at = _face_indices(chamber, right, group._row(f.w), f.i, f.j, f.kind)
        relations += [
            [_difference(at, arg, lhs) for arg in args] for lhs, args in FACE_RELATIONS[f.kind]
        ]
    # the layout by_relation reads: the edge block, then block k holds
    # argument k of every relation, a hexagon's last argument repeated
    rows = [args[min(k, len(args) - 1)] for k in range(RELATION_ARGS) for args in relations]
    edges = _edge_block(group, columns)
    check_index, check_coef = _padded(edges, rows)
    del relations, rows  # the program's build peaks the memory; free them first
    negation = tuple(group.chamber_index(tuple(-v for v in c.weight.coords)) for c in chambers)
    program = _program(group, chamber, right, (check_index, check_coef), faces, negation)
    chamber_keys = tuple(coords_key(c.weight.coords) for c in chambers)
    return IndexTable(
        n_edges=edges[0].shape[1],
        cartan_columns=columns,
        faces=faces,
        negation=negation,
        program=program,
        assemble=_compiled(program, len(chambers), chamber[0]),
        check_index=check_index,
        check_coef=check_coef,
        check_norm=int(np.abs(check_coef).sum(0).max()),
        chamber_array=group._chamber_array,
        coaction=group._comats,
        coaction_max=int(np.abs(group._comats).max()),
        word_keys=tuple(word_key(w.word) for w in group.elements()),
        chamber_keys=chamber_keys,
        key_chamber={key: x for x, key in enumerate(chamber_keys)},
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


def _edge_columns(group: WeylGroup, word: Word) -> np.ndarray:
    """The check columns of the edges (w_{k-1}, i_k) along a reduced word of
    w0: in the edge block, an ascent's column counts the ascents before it."""
    at = np.array(group._prefixes(word)[:-1]) * group.rank + np.array(word) - 1
    return np.cumsum(group._ascents.ravel())[at] - 1


def _difference(at: tuple[int, ...], arg: Row, lhs: Row) -> Row:
    """The row arg - lhs over face positions as a row over the chamber indices
    ``at`` of those positions, one entry per index, zeros dropped."""
    total: dict[int, int] = {}
    for p, c in arg:
        total[at[p]] = total.get(at[p], 0) + c
    for p, c in lhs:
        total[at[p]] = total.get(at[p], 0) - c
    return tuple((t, c) for t, c in total.items() if c)


def _program(
    group: WeylGroup, chamber, right, checks, faces: tuple[Face, ...], negation: tuple[int, ...]
) -> tuple[Step, ...]:
    """The assembly program over the relations of ``faces`` and their negations.

    Edge step k solves the edge block's row at (w_{k-1}, i_k), of length n_k,
    for M(gamma_k), whose other chamber weights are Lambda_j or earlier
    gamma_l.  Then, in passes over the distinct relations, each one with a
    single unknown x in lhs, of coefficient 1, and all else known becomes a
    face step.  Raises if some chamber weight is left unreached.
    """
    known, steps = set(chamber[0]), []
    index, coef = checks
    for k, e in enumerate(_edge_columns(group, group.reference_word).tolist()):
        # the row is -M(x) plus the rest, x = gamma_k its second entry
        row = list(zip(index[:, e].tolist(), coef[:, e].tolist()))
        x = row[1][0]
        steps.append(Step(x, (tuple(p for p in row if p[1] and p[0] != x),), (), k))
        known.add(x)
    # the distinct relations in first-occurrence order: a negated face often
    # gives a relation already listed, whose later copies would never be a step
    pending = {}
    for f in faces:
        at = _face_indices(chamber, right, group._row(f.w), f.i, f.j, f.kind)
        for face_at in (at, tuple(negation[p] for p in at)):
            for lhs, args in FACE_RELATIONS[f.kind]:
                pending[_gathered(face_at, lhs), tuple(_gathered(face_at, a) for a in args)] = None
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


def _gathered(at: tuple[int, ...], row: Row) -> Row:
    """A row over face positions as a row over their chamber indices ``at``."""
    return tuple((at[p], c) for p, c in row)


def _padded(edges, rows: list[Row]) -> tuple[np.ndarray, np.ndarray]:
    """The edge block's columns, then the rows, as one ``(width, columns)``
    pair of chamber indices and coefficients padded with 0."""
    width, e = edges[0].shape
    shape = (max([width, *map(len, rows)]), e + len(rows))
    index, coef = np.zeros(shape, dtype=np.intp), np.zeros(shape, dtype=np.int64)
    index[:width, :e], coef[:width, :e] = edges
    for k, row in enumerate(rows, e):
        for p, (t, c) in enumerate(row):
            index[p, k], coef[p, k] = t, c
    return index, coef

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
arg_k - lhs per argument k (a hexagon repeats its last), argument-major:
:func:`by_relation` reads them as an ``(RELATION_ARGS, R)`` view, the only
view of these columns.  The relations are written once, in
:data:`FACE_RELATIONS`, over a face's chamber weights A..H.
:func:`bz.validate` sums every column (:func:`check_sums`): a datum is valid
when the edge lengths are nonnegative and the least sum over each relation's
columns, its residual min(args) - lhs, is zero.  :func:`primes.build_catalog`
reads the same rows: a choice of one argument per relation cuts out the cone
where the chosen argument's row is zero and the edge rows and the other
arguments' rows are nonnegative, and the zero rows of a datum's sums name
the choice whose cone holds it.

Each block of 2-faces (``group._face_blocks``) gathers its chamber indices
A..H as one int array, which fills its relations' check columns; ``faces``
keeps each face as (t, i, j).

The vertices mu_w = sum_i M(w Lambda_i) w.alpha_i^vee of a datum are one
integer product: the table keeps the chamber indices w Lambda_i as an
``(|W|, r)`` array and the coweight actions w.alpha_i^vee as an
``(|W|, r, r)`` stack (see :func:`polytope.vertex_matrix`), both the
group's own arrays from its walk, not copies.

The table also holds the assembly program of :func:`bz.from_lusztig`, from
the Lusztig data n along the reference word to the values tuple, read off the
check rows alone.  Each step writes one chamber weight x from check columns,
read directly or through the ``negation`` column gamma -> -gamma, in whose
rows x has coefficient -1 and every other cell is known: x is the least of
those rows without x, less n_k for an edge step.  The m edge steps solve the
edge rows along the reference word, and each face step one relation, as a
polytope is MV exactly when its 2-faces are.  Negated faces count too, as -P
is MV with P; without them the program stalls in C3 and C4.  The program
(:class:`Program`) and its compiled Python function, exact at any size, are
kept per Cartan datum.  No reduced word of w0 but the reference word is read,
so the braid graph is never built.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cartan import CartanDatum
from .cones import exact_dtype
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


class Program(NamedTuple):
    """The assembly program, one entry per step, the m edge steps first: a
    step writes x as the least of its columns' rows without x, less n_k."""

    x: np.ndarray  # intp (S,): the chamber index the step writes
    columns: np.ndarray  # intp (S, RELATION_ARGS): its check columns, an edge step's repeated
    negated: np.ndarray  # bool (S,): whether it reads them through ``negation``
    k: np.ndarray  # intp (S,): k for edge step k, -1 for a face step


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
    # order; their relations, in FACE_RELATIONS order per face, are the
    # columns r of ``by_relation``
    faces: np.ndarray
    negation: tuple[int, ...]  # [x]: chamber index of -gamma for chamber weight x
    program: Program  # shared by every table of the Cartan datum, as is ``assemble``
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


# per Cartan datum, its program and the program compiled, which keep no group alive
_PROGRAMS: dict[CartanDatum, tuple[Program, Callable[[tuple[int, ...]], tuple[int, ...]]]] = {}


def index_table(group: WeylGroup) -> IndexTable:
    """The group's table, built on first use and kept on the group."""
    if group._table is None:
        group._table = _build(group)
    return group._table


def by_relation(table: IndexTable, per_column: np.ndarray) -> np.ndarray:
    """The relation columns of an array with one entry per check row, as a
    contiguous ``(RELATION_ARGS, R)`` view whose entry [k, r] belongs to the
    row arg_k - lhs of relation r, so flat position k R + r is check column
    E + k R + r.  Applied to the check sums it gives each relation's gaps,
    how far argument k lies above the minimum (each relation's residual is
    the least of its column), and applied to the column numbers the columns."""
    return per_column[table.n_edges :].reshape(RELATION_ARGS, -1)


def check_sums(table: IndexTable, M: tuple[int, ...]) -> np.ndarray:
    """Every check row's value at the values tuple M, one per column, from
    one product.  Each is bounded by max|M| times the largest absolute row
    sum, which picks the dtype (:func:`cones.exact_dtype`)."""
    values = np.array(M, dtype=exact_dtype(max(max(M), -min(M)), table.check_norm))
    # on Python ints the int64 coefficients are taken as Python ints too
    return (values[table.check_index] * table.check_coef).sum(0)


def _build(group: WeylGroup) -> IndexTable:
    chambers = group.chamber_weights()
    a, r = group.cartan.a, group.rank
    columns = tuple(tuple((j, a[j][i]) for j in range(r) if j != i and a[j][i]) for i in range(r))
    blocks = group._face_blocks(("hexagon", "octagon"))
    gathered = [(kind, _face_chambers(group, kind, i, j, t)) for kind, i, j, t in blocks]
    edges = _edge_block(group, columns)
    check_index, check_coef = _checks(edges, gathered)
    negation = tuple(group.chamber_index(tuple(-v for v in c.weight.coords)) for c in chambers)
    if group.cartan not in _PROGRAMS:
        program = _program(group, check_index, check_coef, negation)
        for array in program:  # shared by every table of the datum
            array.flags.writeable = False
        _PROGRAMS[group.cartan] = program, _compiled(program, check_index, check_coef, negation)
    program, assemble = _PROGRAMS[group.cartan]
    faces = [np.stack(np.broadcast_arrays(t, i, j), axis=1) for _, i, j, t in blocks]
    return IndexTable(
        n_edges=edges[0].shape[1],
        cartan_columns=columns,
        faces=np.concatenate([np.zeros((0, 3), dtype=np.intp), *faces]),
        negation=negation,
        program=program,
        assemble=assemble,
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
    n = sum(RELATION_ROWS[kind][0].shape[1] * len(at) for kind, at in blocks)  # R
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


def _program(group: WeylGroup, index: np.ndarray, coef: np.ndarray, negation) -> Program:
    """The assembly program over the check rows ``(index, coef)``; see the
    module docstring.  The face steps are found in linear time by a count of
    unknowns per relation and a queue of the relations down to one unknown.
    Raises if some chamber weight is unreached."""
    size, edge = len(negation), _edge_columns(group, group.reference_word)
    e = int(group._ascents.sum())
    n = (index.shape[1] - e) // RELATION_ARGS  # R
    # every relation's rows (by_relation's layout), read directly (numbered
    # 0..R) and through negation (R..2R), as int32 (width, RELATION_ARGS, 2R)
    # cells, 0 at the padding, and coefficients, stacked as the relations' keys
    keys = np.concatenate([index[:, e:], coef[:, e:]]).astype(np.int32)
    keys = np.tile(keys.reshape(2 * len(index), RELATION_ARGS, n), 2)
    cells, coefs = keys[: len(index)], keys[len(index) :]
    cells[:, :, n:] = np.asarray(negation, dtype=np.int32)[cells[:, :, n:]]
    cells[coefs == 0] = 0
    # the distinct relations at first occurrence, as a negated face often
    # gives one already listed
    keys = keys.reshape(2 * RELATION_ARGS * len(index), -1)
    order = np.lexsort(keys)
    ranked, new = keys[:, order], np.ones(len(order), dtype=bool)
    new[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(0)
    first = np.sort(order[new])
    cells, coefs = cells[:, :, first], coefs[:, :, first]
    del keys, ranked
    # edge step k writes gamma_k, the second cell of its row
    written, edge = index[1, edge].tolist(), edge.tolist()
    known = np.zeros(size, dtype=bool)
    known[group._chamber_array[0]] = known[written] = True
    # the (relation, unknown chamber) pairs; a pair is solvable when the
    # chamber has coefficient -1 in every row of the relation.  return_index
    # keeps np.unique on the stable sort that the group walk already loaded
    cell = (coefs != 0) & ~known[cells]
    key = np.nonzero(cell)[2] * size + cells[cell]  # relation * size + chamber
    pairs, _, pair = np.unique(key, return_index=True, return_inverse=True)
    solvable = set(pairs[np.bincount(pair, coefs[cell] == -1) == RELATION_ARGS].tolist())
    rel, at = pairs // size, pairs % size
    by_chamber = np.argsort(at, kind="stable")  # per chamber, the relations it is unknown in
    readers = np.split(rel[by_chamber], np.searchsorted(at[by_chamber], np.arange(1, size)))
    # per relation, its unknowns' count and sum, which is the unknown once one is left
    count, total = np.bincount(rel, minlength=len(first)), np.bincount(rel, at, len(first))
    queue = deque(np.flatnonzero(count == 1).tolist())
    count, total, first = count.tolist(), total.astype(np.intp).tolist(), first.tolist()
    steps = [(x, (c,) * RELATION_ARGS, False, k) for k, (x, c) in enumerate(zip(written, edge))]
    while queue:
        r = queue.popleft()
        x = total[r]
        if count[r] == 1 and r * size + x in solvable:
            # its relation's columns, read through negation past the first R
            columns = range(e + first[r] % n, index.shape[1], n)
            steps.append((x, tuple(columns), first[r] >= n, -1))
            known[x] = True
            for q in readers[x].tolist():
                count[q] -= 1
                total[q] -= x
                if count[q] == 1:
                    queue.append(q)
    missed = np.flatnonzero(~known).tolist()
    if missed:
        coords = [group.chamber_weights()[x].weight.coords for x in missed]
        raise RuntimeError(f"assembly program misses the chamber weights {coords}")
    return Program(*map(np.array, zip(*steps)))


def _compiled(program: Program, index, coef, negation) -> Callable[[tuple[int, ...]], tuple]:
    """The program as the source of one Python function, compiled: value x
    is the local v<x>, and each step one assignment, the least of its distinct
    columns' rows without x, less n[k] for an edge step, so evaluating it makes
    no call but ``min`` and stays on Python ints.  The values no step writes,
    at the Lambda_i, are 0."""
    negation = np.asarray(negation)

    def term(x: int, column: int, negated: bool) -> str:
        at = negation[index[:, column]] if negated else index[:, column]
        text = ""
        for y, c in zip(at.tolist(), coef[:, column].tolist()):
            if c and y != x:
                text += " - " if c < 0 else " + "
                text += f"{abs(c)} * v{y}" if abs(c) != 1 else f"v{y}"
        return text.removeprefix(" + ") or "0"

    unwritten = sorted(set(range(len(negation))) - set(program.x.tolist()))
    lines = ["def assemble(n):", "    " + "".join(f"v{x} = " for x in unwritten) + "0"]
    for x, columns, negated, k in zip(*(a.tolist() for a in program)):
        terms = [term(x, c, negated) for c in dict.fromkeys(columns)]
        value = terms[0] if len(terms) == 1 else "min(" + ", ".join(terms) + ")"
        lines.append(f"    v{x} = {value}" + (f" - n[{k}]" if k >= 0 else ""))
    lines.append("    return (" + "".join(f"v{x}, " for x in range(len(negation))) + ")")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<assembly program>", "exec"), namespace)
    return namespace["assemble"]

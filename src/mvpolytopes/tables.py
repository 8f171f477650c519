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
and nowhere else as the check rows: one padded gather pair ``(check_index,
check_coef)`` with a column per row.  The edge block comes first, one row per
(w, i) whose value is the edge length; then, for each min-relation
lhs = min(args) of a hexagonal or octagonal 2-face, a row arg_k - lhs per
argument k, laid out as :func:`by_relation` reads them (a hexagon repeats its
last).  The relations are written once, in :data:`FACE_RELATIONS`, over a
face's chamber weights A..H.  :func:`bz.validate` sums every column: a datum
is valid when the edge lengths are nonnegative and the least sum over each
relation's columns, its residual min(args) - lhs, is zero.
:func:`primes.build_catalog` reads the same rows: a choice of one argument
per relation cuts out the cone where the chosen argument's row is zero and
the edge rows and the other arguments' rows are nonnegative.

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
values tuple.  Its m edge steps solve the edge rows along that word for
M(gamma_k).  A polytope is MV exactly when its 2-faces are, so each face step
takes one relation lhs = min(args) of :data:`FACE_RELATIONS` with a single
unknown x in lhs and sets x = min(args) - (lhs - x).  Relations of negated
faces, read through the ``negation`` column gamma -> -gamma, count too, as -P
is MV with P; without them the program stalls in C3 and C4.  The build checks
that the program reaches every chamber weight and compiles it to one Python
function on Python ints, exact at any size.

The parent tree, a braid edge per reduced word of w0 one step toward the
reference word, is grown breadth first over the braid graph's move arrays, a
level at a time with the first discovery in queue order, without reading the
graph's ``adjacency``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .weyl import BraidEdge, BraidGraph, Face, WeylGroup

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

    edge_rows: tuple[tuple[Row, ...], ...]  # [t][i - 1]: edge length at (w_t, i)
    # (word of w, i) for each w and then each i with l(w s_i) > l(w): the
    # edge block of the check rows, in column order
    edges: tuple[tuple[Word, int], ...]
    # the hexagons and octagons in group.two_faces order; their relations, in
    # FACE_RELATIONS order per face, are the rows of ``by_relation``
    faces: tuple[Face, ...]
    parent: dict[Word, BraidEdge | None]  # toward the reference word; None at it
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
    return per_column[len(table.edges) :].reshape(RELATION_ARGS, -1).T


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

    r = group.rank
    a = group.cartan.a
    elements = group.elements()
    chambers = group.chamber_weights()
    # build-time copies of the group's arrays, dropped when the build returns
    chamber = group._chamber_array.tolist()
    right = group._right_array.tolist()
    # edge length at (w, i):
    #   -M(w Lambda_i) - M(w s_i Lambda_i) - sum_{j != i} a_ji M(w Lambda_j)
    edge_rows = tuple(
        tuple(
            ((chamber[t][i], -1), (chamber[right[t][i]][i], -1))
            + tuple((chamber[t][j], -a[j][i]) for j in range(r) if j != i and a[j][i])
            for i in range(r)
        )
        for t in range(len(elements))
    )
    ascents = [(t, i + 1) for t, i in np.argwhere(group._ascents).tolist()]
    faces = group.two_faces(("hexagon", "octagon"))
    relations = []  # per relation, its rows arg_k - lhs
    for f in faces:
        at = _face_indices(chamber, right, group._row(f.w), f.i, f.j, f.kind)
        relations += [
            [_difference(at, arg, lhs) for arg in args] for lhs, args in FACE_RELATIONS[f.kind]
        ]
    # the layout by_relation reads: the edge block, then block k holds
    # argument k of every relation, a hexagon's last argument repeated
    rows = [edge_rows[t][i - 1] for t, i in ascents]
    for k in range(RELATION_ARGS):
        rows += [args[min(k, len(args) - 1)] for args in relations]
    check_index, check_coef = _padded(rows)
    negation = tuple(group.chamber_index(tuple(-v for v in c.weight.coords)) for c in chambers)
    program = _program(group, chamber, right, edge_rows, faces, negation)
    chamber_keys = tuple(coords_key(c.weight.coords) for c in chambers)
    return IndexTable(
        edge_rows=edge_rows,
        edges=tuple((elements[t].word, i) for t, i in ascents),
        faces=faces,
        parent=_parents(group.braid_graph(), group.reference_word),
        negation=negation,
        program=program,
        assemble=_compiled(program, len(chambers), chamber[0]),
        check_index=check_index,
        check_coef=check_coef,
        check_norm=int(np.abs(check_coef).sum(0).max()),
        chamber_array=group._chamber_array,
        coaction=group._comats,
        coaction_max=int(np.abs(group._comats).max()),
        word_keys=tuple(word_key(w.word) for w in elements),
        chamber_keys=chamber_keys,
        key_chamber={key: x for x, key in enumerate(chamber_keys)},
    )


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
    group: WeylGroup,
    chamber: list[list[int]],
    right: list[list[int]],
    edge_rows: tuple[tuple[Row, ...], ...],
    faces: tuple[Face, ...],
    negation: tuple[int, ...],
) -> tuple[Step, ...]:
    """The assembly program over the relations of ``faces`` and their negations.

    Edge step k solves the edge row at (w_{k-1}, i_k), of length n_k, for
    M(gamma_k); the row's other chamber weights are Lambda_j or earlier
    gamma_l.  Then, in passes, every relation with one unknown x in lhs, of
    coefficient 1, and every other chamber weight known becomes a face step.
    Raises if some chamber weight is left unreached.
    """
    known = set(chamber[0])
    steps = []
    t = 0
    for k, i in enumerate(group.reference_word):
        x = chamber[right[t][i - 1]][i - 1]
        # the row is -M(x) plus the rest
        steps.append(Step(x, (tuple(e for e in edge_rows[t][i - 1] if e[0] != x),), (), k))
        known.add(x)
        t = right[t][i - 1]
    pending = []
    for f in faces:
        at = _face_indices(chamber, right, group._row(f.w), f.i, f.j, f.kind)
        for face_at in (at, tuple(negation[p] for p in at)):
            pending += [
                (_gathered(face_at, lhs), tuple(_gathered(face_at, arg) for arg in args))
                for lhs, args in FACE_RELATIONS[f.kind]
            ]
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


def _padded(rows: list[Row]) -> tuple[np.ndarray, np.ndarray]:
    """The rows as one ``(width, rows)`` pair of chamber indices and
    coefficients, padded with 0."""
    shape = (max(map(len, rows)), len(rows))
    index, coef = np.zeros(shape, dtype=np.intp), np.zeros(shape, dtype=np.int64)
    for k, row in enumerate(rows):
        for p, (t, c) in enumerate(row):
            index[p, k], coef[p, k] = t, c
    return index, coef


def _levels(graph: BraidGraph, root: int):
    """The breadth-first levels of the braid graph from word ``root``, each as
    the moves that first reach its words, in queue order: a word's moves in
    order of k, the words in the order their level reached them."""
    seen = np.zeros(len(graph.words), dtype=bool)
    seen[root] = True
    frontier = np.array([root])
    while True:
        lo, hi = graph.starts[frontier], graph.starts[frontier + 1]
        count = hi - lo
        # the moves of every frontier word, one after another
        ids = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
        ids = ids[~seen[graph.dst[ids]]]
        _, first = np.unique(graph.dst[ids], return_index=True)
        ids = ids[np.sort(first)]
        if not ids.size:
            return
        frontier = graph.dst[ids]
        seen[frontier] = True
        yield ids


def _parents(graph: BraidGraph, root: Word) -> dict[Word, BraidEdge | None]:
    """For each word, the braid edge one step back along a breadth-first tree
    grown from ``root``: a flipped window alternates again, so the reverse of
    a move is a move of its dst at the same k."""
    words = graph.words
    parent: dict[Word, BraidEdge | None] = {root: None}
    for ids in _levels(graph, words.index(root)):
        src, k, d, dst = (a[ids].tolist() for a in (graph.src, graph.k, graph.d, graph.dst))
        parent.update(
            (words[t], BraidEdge(words[t], words[s], at, span))
            for s, t, at, span in zip(src, dst, k, d)
        )
    if len(parent) != len(words):
        raise RuntimeError("braid graph is not connected")
    return parent

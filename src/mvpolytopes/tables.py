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
group's own arrays from its walk, not copies.  It also keeps
the document keys of :mod:`serialize`: the canonical word of every element
and the coordinates of every chamber weight, with the inverse map from a key
to its chamber index.

The table also holds the transport plan of :func:`bz.from_lusztig`.  A
datum is fixed by its Lusztig data along one reduced word, and the value at
gamma_k = w_k Lambda_{i_k} of a word is sum_{l <= k} <beta_l, gamma_k> n_l,
so it suffices to move n to a few words whose gamma_k cover every chamber
weight.  The plan is a parent braid edge per reduced word, each one step
closer to the reference word, and a fixed chain of braid edges from the
reference word through such covering words (its stops).  The tree is grown
breadth first over the braid graph's move arrays, a level at a time with the
first discovery in queue order, and the plan walks the same moves as integer
neighbour lists.  Neither reads the graph's ``adjacency``: ``BraidEdge``
objects are made only for the tree and the stops.  Pairing rows are
kept for the stops only: rows for all 2316 reduced words of D4 would cost
more memory than the rest of the table.  The stops' rows are stacked as an
``(S, m, m)`` array ``pairing`` with the chamber index of each row in
``targets``, so that every stop is read off with one product; ``source``
names, per chamber weight, the first row reaching it, and building it checks
that the plan reaches every chamber weight.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Stop:
    """A word of the plan whose chamber weights get values; ``edges`` lead to
    it from the previous stop (none for the reference word)."""

    word: Word
    edges: tuple[BraidEdge, ...]


@dataclass(frozen=True)
class IndexTable:
    """Chamber and element indices of one group; see the module docstring.

    Element indices follow ``group.elements()`` (0 is the identity), so the
    row of an element w is ``w.index``; chamber indices follow
    ``group.chamber_weights()``.
    """

    chamber: tuple[tuple[int, ...], ...]  # [t][i - 1]: chamber index of w_t . Lambda_i
    right: tuple[tuple[int, ...], ...]  # [t][i - 1]: element index of w_t s_i
    edge_rows: tuple[tuple[Row, ...], ...]  # [t][i - 1]: edge length at (w_t, i)
    # (word of w, i) for each w and then each i with l(w s_i) > l(w): the
    # edge block of the check rows, in column order
    edges: tuple[tuple[Word, int], ...]
    # the hexagons and octagons in group.two_faces order; their relations, in
    # FACE_RELATIONS order per face, are the rows of ``by_relation``
    faces: tuple[Face, ...]
    parent: dict[Word, BraidEdge | None]  # toward the reference word; None at it
    plan: tuple[Stop, ...]  # starts at the reference word
    # the check rows, one per column, as chamber indices and coefficients
    # padded with 0: the E edge rows, then the rows arg_k - lhs of the R
    # relations, at the columns ``by_relation`` reads
    check_index: np.ndarray  # intp (width, E + RELATION_ARGS * R)
    check_coef: np.ndarray  # int64 (width, E + RELATION_ARGS * R)
    check_norm: int  # max over the check rows of sum |coef|
    pairing: np.ndarray  # int64 (S, m, m): [s][k][l] is <beta_l, gamma_k> at stop s
    pairing_norm: int  # max over the pairing rows of sum |coef|
    targets: np.ndarray  # intp (S * m,): chamber index of gamma_k of stop s at s * m + k
    # intp (|Gamma|,): the first position in ``targets`` of each chamber
    # weight, and S * m (one past the end) for the identity chamber weights
    source: np.ndarray
    chamber_array: np.ndarray  # intp (|W|, r), the same indices as ``chamber``
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
    chamber = tuple(map(tuple, group._chamber_array.tolist()))
    right = group._right
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
    graph = group.braid_graph()
    ref = graph.words.index(group.reference_word)
    plan = _plan(group, graph, ref)
    pairing, targets, source = _pairing_stack(group, plan, chamber[0])
    chamber_keys = tuple(coords_key(c.weight.coords) for c in chambers)
    return IndexTable(
        chamber=chamber,
        right=right,
        edge_rows=edge_rows,
        edges=tuple((elements[t].word, i) for t, i in ascents),
        faces=faces,
        parent=_parents(graph, ref),
        plan=plan,
        check_index=check_index,
        check_coef=check_coef,
        check_norm=int(np.abs(check_coef).sum(0).max()),
        pairing=pairing,
        pairing_norm=int(np.abs(pairing).sum(2).max()),
        targets=targets,
        source=source,
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


def _padded(rows: list[Row]) -> tuple[np.ndarray, np.ndarray]:
    """The rows as one ``(width, rows)`` pair of chamber indices and
    coefficients, padded with 0."""
    shape = (max(map(len, rows)), len(rows))
    index, coef = np.zeros(shape, dtype=np.intp), np.zeros(shape, dtype=np.int64)
    for k, row in enumerate(rows):
        for p, (t, c) in enumerate(row):
            index[p, k], coef[p, k] = t, c
    return index, coef


def _pairing_stack(
    group: WeylGroup, plan: tuple[Stop, ...], identity: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stops' pairing rows as ``(pairing, targets, source)``: at stop s,
    row k pairs gamma_k of its word with the coroots beta_l, l <= k."""
    m = group.m
    pairing = np.zeros((len(plan), m, m), dtype=np.int64)
    targets = np.zeros(len(plan) * m, dtype=np.intp)
    for s, stop in enumerate(plan):
        data = group.word_data(stop.word)
        gammas = [gamma.coords for gamma in data.gammas]
        coroots = np.array([beta.coords for beta in data.coroots], dtype=np.int64)
        pairing[s] = np.tril(np.array(gammas, dtype=np.int64) @ coroots.T)
        targets[s * m : (s + 1) * m] = [group.chamber_index(g) for g in gammas]
    source = np.full(len(group.chamber_weights()), -1, dtype=np.intp)
    source[list(identity)] = targets.size
    for p, t in enumerate(targets.tolist()):
        if source[t] < 0:
            source[t] = p
    missed = np.flatnonzero(source < 0)
    if missed.size:
        coords = [group.chamber_weights()[x].weight.coords for x in missed]
        raise RuntimeError(f"transport plan misses the chamber weights {coords}")
    return pairing, targets, source


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


def _edges(graph: BraidGraph, ids: np.ndarray, back: bool = False) -> list[BraidEdge]:
    """Braid moves ``ids`` as :class:`BraidEdge` objects, or their reverses if
    ``back``: a flipped window alternates again, so the reverse of a move is
    a move of its dst at the same k."""
    words = graph.words
    src, k, d, dst = (a[ids].tolist() for a in (graph.src, graph.k, graph.d, graph.dst))
    if back:
        src, dst = dst, src
    return [BraidEdge(words[s], words[t], at, span) for s, t, at, span in zip(src, dst, k, d)]


def _parents(graph: BraidGraph, ref: int) -> dict[Word, BraidEdge | None]:
    """For each word, the braid edge one step back along a breadth-first tree
    grown from word ``ref``."""
    parent: dict[Word, BraidEdge | None] = {graph.words[ref]: None}
    for ids in _levels(graph, ref):
        parent.update((edge.src, edge) for edge in _edges(graph, ids, back=True))
    if len(parent) != len(graph.words):
        raise RuntimeError("braid graph is not connected")
    return parent


def _plan(group: WeylGroup, graph: BraidGraph, ref: int) -> tuple[Stop, ...]:
    """Greedy cover of the chamber weights by words near each other.

    From the current stop, the next one is the nearest word, in braid moves,
    that adds uncovered chamber weights; among the nearest, the first found
    breadth first of those adding the most.
    """
    # masks[x]: bit c is set where chamber weight c is some gamma_k of word x
    words = graph.array
    cover = np.zeros((len(words), len(group.chamber_weights())), dtype=bool)
    rows, t = np.arange(len(words)), np.zeros(len(words), dtype=np.intp)
    for k in range(group.m):
        i = words[:, k] - 1
        t = group._right_array[t, i]
        cover[rows, group._chamber_array[t, i]] = True
    packed = np.packbits(cover, axis=1, bitorder="little").tobytes()
    width = len(packed) // len(words)
    masks = [int.from_bytes(packed[p : p + width], "little") for p in range(0, len(packed), width)]
    full = (1 << cover.shape[1]) - 1
    at, covered = ref, masks[ref]
    for c in group._chamber_array[0].tolist():
        covered |= 1 << c
    starts, src, dst = graph.starts.tolist(), graph.src.tolist(), graph.dst.tolist()
    stops = [Stop(graph.words[at], ())]
    while covered != full:
        via = {at: -1}  # the move that reached each word
        level, best, gain = [at], at, 0
        while not gain:
            if not level:
                raise RuntimeError("reduced words of w0 miss some chamber weight")
            nxt = []
            for x in level:
                for e in range(starts[x], starts[x + 1]):
                    y = dst[e]
                    if y in via:
                        continue
                    via[y] = e
                    nxt.append(y)
                    new = (masks[y] & ~covered).bit_count()
                    if new > gain:
                        best, gain = y, new
            level = nxt
        path, x = [], best
        while x != at:
            path.append(via[x])
            x = src[via[x]]
        at = best
        covered |= masks[at]
        stops.append(Stop(graph.words[at], tuple(_edges(graph, np.array(path[::-1])))))
    return tuple(stops)

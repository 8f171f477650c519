"""Table-driven assembly and validation against object-based references.

``bfs_from_lusztig`` is the braid-graph assembly: it walks the braid graph
from the given word, reads values off every word it reaches with
``n_to_partial_M``, and cross-checks every revisited word and every chamber
weight reached twice.  ``shortest_word_path`` is a breadth-first
chain of braid moves between two words.  ``reference_validate`` recomputes
edge lengths and 2-face residuals from ``Weight`` objects, over the edges
``edge_pairs`` lists; ``edge_row`` and ``relation_rows`` are the same
constraints as dense rows over the values tuple, the latter placing
``tables.FACE_RELATIONS`` at a face's chamber weights A..H.
``reference_checks`` lays the same rows out as the table's padded check
rows, by a walk over ``Face`` objects that merges each row per chamber
index.  ``coweight_of``
is the coweight sum n_k beta_k of Lusztig data along a word.  None of them
reads the per-group index table, so they are independent of the assembly
program, the parent tree and the check rows they check.
"""

import ast
import dataclasses
import gc
import itertools
import re
import weakref
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpolytopes import bz, lusztig, polytope, primes, serialize, tables
from mvpolytopes.cartan import build_cartan
from mvpolytopes.tables import index_table
from mvpolytopes.weyl import WeylGroup, weyl_group

# -- references ------------------------------------------------------------------


def edge_pairs(group):
    """All (w, i) with l(w s_i) > l(w); one per edge of the vertex path graph."""
    return tuple(
        (w, i)
        for w in group.elements()
        for i in range(1, group.rank + 1)
        if group.right(w, i).length > w.length
    )


def coweight_of(group, word, n):
    """Total coweight sum n_k beta_k along the word; invariant under braid moves."""
    total = group.cartan.zero_coweight()
    for c, b in zip(n, group.word_data(tuple(word)).coroots):
        total = total + c * b
    return total


def reference_edge_length(group, datum, w, i):
    wsi = group.right(w, i)
    val = -datum.value(group.w_lambda(w, i).coords)
    val -= datum.value(group.w_lambda(wsi, i).coords)
    for j in range(1, group.rank + 1):
        if j != i:
            val -= group.cartan.entry(j, i) * datum.value(group.w_lambda(w, j).coords)
    return val


def edge_row(group, w, i):
    """Dense row of the edge length at (w, i) over the values tuple."""
    row = [0] * len(group.chamber_weights())
    at = lambda u, t: group.chamber_index(group.w_lambda(u, t).coords)
    row[at(w, i)] -= 1
    row[at(group.right(w, i), i)] -= 1
    for j in range(1, group.rank + 1):
        if j != i:
            row[at(w, j)] -= group.cartan.entry(j, i)
    return tuple(row)


def face_weights(group, face):
    """The chamber weights A..F of a hexagon, or A..H of an octagon."""
    w, i, j = face.w, face.i, face.j
    wsi, wsj = group.right(w, i), group.right(w, j)
    wsij, wsji = group.right(wsi, j), group.right(wsj, i)
    out = [(w, i), (w, j), (wsi, i), (wsj, j), (wsij, j), (wsji, i)]
    if face.kind == "octagon":
        out += [(group.right(wsij, i), i), (group.right(wsji, j), j)]
    return [group.w_lambda(u, t) for u, t in out]


def relation_rows(group, face):
    """Dense rows ``(lhs, args)`` of the face's min-relations lhs = min(args),
    by ``tables.FACE_RELATIONS`` at its chamber weights A..H; none for a
    rectangle."""
    if face.kind not in tables.FACE_RELATIONS:
        return []
    at = [group.chamber_index(x.coords) for x in face_weights(group, face)]
    size = len(group.chamber_weights())

    def dense(row):
        out = [0] * size
        for p, c in row:
            out[at[p]] += c
        return tuple(out)

    return [
        (dense(lhs), tuple(map(dense, args))) for lhs, args in tables.FACE_RELATIONS[face.kind]
    ]


def face_chambers(group, face):
    """The chamber indices of the face's chamber weights A..F or A..H."""
    return [group.chamber_index(x.coords) for x in face_weights(group, face)]


def face_blocks(group):
    """The hexagons and octagons in ``two_faces`` order as the blocks that
    ``tables._program`` reads, one per face: its kind and its chamber
    indices as a one-row array."""
    faces = group.two_faces(("hexagon", "octagon"))
    return [(f.kind, np.array([face_chambers(group, f)])) for f in faces]


def merged(at, arg, lhs):
    """The row arg - lhs over face positions as a row over the chamber
    indices ``at`` of those positions, one entry per index, zeros dropped."""
    total = {}
    for p, c in arg:
        total[at[p]] = total.get(at[p], 0) + c
    for p, c in lhs:
        total[at[p]] = total.get(at[p], 0) - c
    return tuple((x, c) for x, c in total.items() if c)


def reference_checks(group):
    """The check rows as ``(check_index, check_coef)``, padded with 0: one
    edge row per pair of ``edge_pairs``, -1 at w Lambda_i and w s_i Lambda_i
    and -a_ji at w Lambda_j; then, for each argument k, the row arg_k - lhs
    of every relation of the hexagons and octagons in ``two_faces`` order, a
    hexagon's last argument repeated."""
    at = lambda u, t: group.chamber_index(group.w_lambda(u, t).coords)
    a = group.cartan.a
    rows = []
    for w, i in edge_pairs(group):
        rows.append(((at(w, i), -1), (at(group.right(w, i), i), -1)))
        rows[-1] += tuple(
            (at(w, j), -a[j - 1][i - 1])
            for j in range(1, group.rank + 1)
            if j != i and a[j - 1][i - 1]
        )
    relations = []
    for face in group.two_faces(("hexagon", "octagon")):
        chambers = face_chambers(group, face)
        for lhs, args in tables.FACE_RELATIONS[face.kind]:
            relations.append([merged(chambers, arg, lhs) for arg in args])
    rows += [
        args[min(k, len(args) - 1)] for k in range(tables.RELATION_ARGS) for args in relations
    ]
    index = np.zeros((max(map(len, rows)), len(rows)), dtype=np.intp)
    coef = np.zeros(index.shape, dtype=np.int64)
    for column, row in enumerate(rows):
        for p, (x, c) in enumerate(row):
            index[p, column], coef[p, column] = x, c
    return index, coef


def reference_negation(group):
    """[x]: the chamber index of -gamma for chamber weight x."""
    return tuple(group.chamber_index((-c.weight).coords) for c in group.chamber_weights())


def reference_residuals(group, datum, face):
    w, i, j = face.w, face.i, face.j
    wl = lambda u, t: datum.value(group.w_lambda(u, t).coords)
    wsi, wsj = group.right(w, i), group.right(w, j)
    A, B = wl(w, i), wl(w, j)
    C, D = wl(wsi, i), wl(wsj, j)
    if face.kind == "rectangle":
        return ()
    E = wl(group.right(wsi, j), j)
    F = wl(group.right(wsj, i), i)
    if face.kind == "hexagon":
        return (min(A + E, F + B) - (C + D),)
    G = wl(group.right(group.right(wsi, j), i), i)
    H = wl(group.right(group.right(wsj, i), j), j)
    r1 = min(2 * E + A, 2 * B + G, B + H + C) - (D + E + C)
    r2 = min(2 * B + 2 * G, 2 * H + 2 * C, G + 2 * E + A) - (F + 2 * E + C)
    return (r1, r2)


def reference_validate(group, datum):
    edge_bad = []
    for w, i in edge_pairs(group):
        c = reference_edge_length(group, datum, w, i)
        if c < 0:
            edge_bad.append((w.word, i, c))
    face_bad = []
    for face in group.two_faces(("hexagon", "octagon")):
        res = reference_residuals(group, datum, face)
        if any(r != 0 for r in res):
            face_bad.append((face.w.word, face.i, face.j, res))
    return bz.ValidationReport(tuple(edge_bad), tuple(face_bad))


def reference_vertex(group, datum, w):
    total = group.cartan.zero_coweight()
    for i in range(1, group.rank + 1):
        total = total + datum.value(group.w_lambda(w, i).coords) * group.w_coroot(w, i)
    return total


def n_to_partial_M(group, word, n):
    """Values M_gamma on the chamber weights seen along the word.

    M at gamma_k = w_k Lambda_{i_k} equals sum_{l<=k} <beta_l, gamma_k> n_l;
    the identity chamber weights Lambda_i carry M = 0 (bottom vertex at the
    origin).
    """
    word, n = tuple(word), lusztig._checked(group, n)
    data = group.word_data(word)
    out = {}
    for i in range(1, group.rank + 1):
        out[group.cartan.fundamental_weight(i).coords] = 0
    for k, gamma in enumerate(data.gammas):
        val = 0
        for l in range(k + 1):
            val += n[l] * sum(a * b for a, b in zip(data.coroots[l].coords, gamma.coords))
        if gamma.coords in out and out[gamma.coords] != val:
            raise RuntimeError(
                f"word {word}: chamber weight {gamma.coords} revisited at {k} with value "
                f"{val}, not {out[gamma.coords]}"
            )
        out[gamma.coords] = val
    return out


def bfs_from_lusztig(group, word, n):
    """Assemble by propagating n across the whole braid graph."""
    word = tuple(word)
    graph = group.braid_graph()
    if word not in graph.adjacency:
        raise ValueError(f"{word} is not a reduced word for the longest element")
    total = len(group.chamber_weights())
    values = {}

    def merge(w, nv):
        for coords, val in n_to_partial_M(group, w, nv).items():
            if values.setdefault(coords, val) != val:
                raise RuntimeError(
                    f"inconsistent value at chamber weight {coords}: "
                    f"{values[coords]} vs {val} from word {w}"
                )

    n_by_word = {word: lusztig._checked(group, n)}
    merge(word, n_by_word[word])
    queue = deque([word])
    while queue:
        src = queue.popleft()
        for e in graph.adjacency[src]:
            known = e.dst in n_by_word
            if not known and len(values) == total:
                continue
            moved = lusztig.braid_transition(group, e, n_by_word[src])
            if known:
                if n_by_word[e.dst] != moved:
                    raise RuntimeError(
                        f"path-dependent transport: word {e.dst} reached with "
                        f"{moved} but previously {n_by_word[e.dst]}"
                    )
                continue
            n_by_word[e.dst] = moved
            merge(e.dst, moved)
            queue.append(e.dst)
    if len(values) != total:
        raise RuntimeError("braid moves did not reach every chamber weight")
    datum = bz.make_bz(group, values)
    report = reference_validate(group, datum)
    if not report.is_valid:
        raise RuntimeError("transported data violates polytope conditions")
    return datum


def shortest_word_path(group, src, dst):
    """A shortest chain of braid moves from ``src`` to ``dst``."""
    adjacency = group.braid_graph().adjacency
    via = {src: None}
    queue = deque([src])
    while dst not in via:
        word = queue.popleft()
        for e in adjacency[word]:
            if e.dst not in via:
                via[e.dst] = e
                queue.append(e.dst)
    path = []
    while via[dst] is not None:
        path.append(via[dst])
        dst = via[dst].src
    return path[::-1]


def group_of(family, rank):
    return weyl_group(build_cartan(family, rank))


def random_data(group, rng, count):
    """Seeded (word, n) pairs along random reduced words; one n is all zeros."""
    words = group.braid_graph().words
    out = [(words[rng.integers(len(words))], (0,) * group.m)]
    for _ in range(count - 1):
        word = words[rng.integers(len(words))]
        out.append((word, tuple(int(v) for v in rng.integers(0, 6, group.m))))
    return out


# -- assembly ----------------------------------------------------------------------


# the groups whose assembly program the tests below read
PROGRAM_GROUPS = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 3), ("D", 4),
]


@pytest.mark.parametrize(
    "family, rank, count",
    [
        ("A", 1, 4), ("A", 2, 12), ("A", 3, 20), ("A", 4, 4),
        ("B", 2, 12), ("B", 3, 8), ("B", 4, 1),
        ("C", 2, 12), ("C", 3, 8), ("C", 4, 1),
        ("D", 3, 12), ("D", 4, 2),
    ],
)
def test_plan_matches_bfs_oracle(family, rank, count):
    g = group_of(family, rank)
    rng = np.random.default_rng(1000 * rank + ord(family))
    for word, n in random_data(g, rng, count):
        assert bz.from_lusztig(g, word, n) == bfs_from_lusztig(g, word, n), (word, n)


def test_plan_matches_bfs_oracle_every_word_b2(b2):
    for word in b2.braid_graph().words:
        for n in itertools.product(range(3), repeat=b2.m):
            assert bz.from_lusztig(b2, word, n) == bfs_from_lusztig(b2, word, n)


def off_reference_word(group):
    """The chamber weights neither Lambda_i nor a gamma_k of the reference word."""
    lambdas = tuple(group.cartan.fundamental_weight(i) for i in range(1, group.rank + 1))
    gammas = group.word_data(group.reference_word).gammas
    on = {group.chamber_index(c.coords) for c in lambdas + gammas}
    return set(range(len(group.chamber_weights()))) - on


@pytest.mark.parametrize("family, rank", PROGRAM_GROUPS)
def test_program_covers_every_chamber_weight(family, rank):
    g = group_of(family, rank)
    table = index_table(g)
    edge, face = table.program[: g.m], table.program[g.m :]
    # edge step k writes gamma_k of the reference word
    assert [s.k for s in edge] == list(range(g.m))
    gammas = g.word_data(g.reference_word).gammas
    assert [s.x for s in edge] == [g.chamber_index(c.coords) for c in gammas]
    assert all(s.k is None for s in face)
    assert len(face) == len(off_reference_word(g)) == len(g.chamber_weights()) - g.rank - g.m
    # every value is written once, after every value its step reads
    written = set(table.chamber_array[0].tolist())
    for s in table.program:
        assert {x for row in s.args + (s.rest,) for x, _ in row} <= written
        assert s.x not in written
        written.add(s.x)
    assert written == set(range(len(g.chamber_weights())))


@pytest.mark.parametrize("family, rank", PROGRAM_GROUPS)
def test_table_matches_the_face_walk(family, rank):
    """The gathered check rows, negation, program and faces equal the ones
    a walk over ``Face`` objects builds, face by face."""
    g = group_of(family, rank)
    table = index_table(g)
    index, coef = reference_checks(g)
    assert table.check_index.dtype == index.dtype and table.check_coef.dtype == coef.dtype
    assert np.array_equal(table.check_index, index) and np.array_equal(table.check_coef, coef)
    negation = reference_negation(g)
    assert table.negation == negation
    assert table.program == tables._program(g, (index, coef), face_blocks(g), negation)
    faces = g.two_faces(("hexagon", "octagon"))
    assert table.faces.dtype == np.intp and table.faces.shape == (len(faces), 3)
    assert table.faces.tolist() == [[f.w.index, f.i, f.j] for f in faces]


@pytest.mark.parametrize("family, rank", PROGRAM_GROUPS[1:])  # A1 has no 2-face
def test_table_build_refuses_a_program_that_misses_a_chamber_weight(family, rank):
    g = group_of(family, rank)
    table = index_table(g)
    faces = face_blocks(g)  # one block per face, in the table's face order

    def build(kept):
        checks = table.check_index, table.check_coef
        return tables._program(g, checks, [faces[p] for p in kept], table.negation)

    # withhold faces while the others still fix every value; each face left
    # is then needed, and withholding one more must fail
    needed = range(len(table.faces))
    for face in range(len(table.faces)):
        try:
            build([p for p in needed if p != face])
        except RuntimeError:
            continue
        needed = [p for p in needed if p != face]
    pattern = r"^assembly program misses the chamber weights \[\("
    with pytest.raises(RuntimeError, match=pattern) as caught:
        build(needed[1:])
    named = [g.chamber_index(c) for c in ast.literal_eval(str(caught.value).split("weights ")[1])]
    assert named == sorted(set(named)) and set(named) <= off_reference_word(g)
    if len(table.faces) == 1:  # rank 2: the edge steps reach only the reference word
        assert set(named) == off_reference_word(g)


def test_table_lives_and_dies_with_its_group():
    g = WeylGroup(build_cartan("A", 3))
    assert g._table is None
    d = bz.from_lusztig(g, g.reference_word, (1, 0, 2, 0, 1, 1))
    assert g._table is not None and index_table(g) is g._table
    assert index_table(group_of("A", 3)) is not g._table
    assert d == bz.from_lusztig(group_of("A", 3), g.reference_word, (1, 0, 2, 0, 1, 1))
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3)])
def test_table_and_edge_lengths_build_no_braid_graph(family, rank):
    shared = group_of(family, rank)
    n = tuple(range(1, shared.m + 1))
    datum = bz.BZDatum(shared.cartan, index_table(shared).assemble(n))
    readers = [
        index_table,
        lambda g: bz.validate(g, bz.BZDatum(g.cartan, datum.values)),
        lambda g: bz.lusztig_data(g, datum, g.reference_word),
        lambda g: [bz.edge_length(g, datum, w, i) for w in g.elements() for i in (1, 2)],
    ]
    for read in readers:
        g = WeylGroup(shared.cartan)  # nothing built on it yet
        read(g)
        assert g._braid_graph is None and g._parent_tree is None
    assert bz.validate(g, datum).is_valid and bz.lusztig_data(g, datum, g.reference_word) == n
    # the first transport between two distinct words builds the braid graph
    # and the parent tree
    other = g.reduced_words(g.w0)[-1]
    assert other != g.reference_word
    there = lusztig.transport(g, g.reference_word, other, n)
    assert bz.lusztig_data(g, datum, other) == there
    assert g._braid_graph is not None and g._parent_tree is lusztig.parent_tree(g)


# a fresh group per read, of every family the tier-1 tests build
FRESH_GROUPS = [("A", 2), ("B", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 3), ("D", 4)]


@pytest.mark.parametrize("family, rank", FRESH_GROUPS)
def test_reference_word_paths_build_no_braid_graph(family, rank):
    """Assembly along the reference word, enumeration, the prime catalog and
    transport from a word to itself cross no braid move, so they build
    neither the braid graph nor the parent tree."""
    shared = group_of(family, rank)
    n = tuple(k % 3 for k in range(shared.m))
    word = shared.reduced_words(shared.w0)[-1]
    assert word != shared.reference_word
    datum = bz.from_lusztig(shared, word, n)
    mu = shared.cartan.coweight((1,) * rank)
    readers = [
        lambda g: bz.from_lusztig(g, g.reference_word, bz.lusztig_data(g, datum, g.reference_word)),
        lambda g: polytope.enumerate_mv(g, mu),
        lambda g: lusztig.transport(g, word, word, n),
    ]
    if (family, rank) in [("A", 2), ("B", 2), ("A", 3), ("D", 3)]:
        readers.append(primes.build_catalog)
    for read in readers:
        g = WeylGroup(shared.cartan)  # nothing built on it yet
        read(g)
        assert g._braid_graph is None and g._parent_tree is None
    g = WeylGroup(shared.cartan)
    at_ref = bz.lusztig_data(g, datum, g.reference_word)
    assert bz.from_lusztig(g, g.reference_word, at_ref) == datum
    assert lusztig.transport(g, word, word, n) == n
    assert len(polytope.enumerate_mv(g, mu)) == shared.kpf(mu)
    # a word of the wrong length, a letter out of range, a product other than w0
    for bad in [word[1:], (rank + 1,) + word[1:], word[:1] * shared.m]:
        with pytest.raises(ValueError, match=rf"^endpoint {re.escape(str(bad))} is not"):
            lusztig.transport(g, bad, bad, n)
    assert g._braid_graph is None and g._parent_tree is None


@pytest.mark.parametrize("family", "ABCD")
def test_rank_5_assembles_along_the_reference_word(monkeypatch, family):
    """Rank 5 assembles along the reference word without the braid graph,
    whose words number from 292,864 (A5) to 7.0e8 (B5, C5)."""
    monkeypatch.setenv("MVPOLY_MAX_RANK", "5")
    g = WeylGroup(build_cartan(family, 5))
    n = tuple(k % 3 for k in range(g.m))
    datum = bz.from_lusztig(g, g.reference_word, n)
    assert bz.validate(g, datum).is_valid
    assert bz.lusztig_data(g, datum, g.reference_word) == n
    assert g._braid_graph is None and g._parent_tree is None


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("C", 3)])
def test_table_validation_and_assembly_make_no_face_objects(family, rank):
    shared = group_of(family, rank)
    n = tuple(range(shared.m))
    datum = bz.from_lusztig(shared, shared.reference_word, n)
    bad = bz.BZDatum(shared.cartan, tuple(v + x % 2 for x, v in enumerate(datum.values)))
    report = reference_validate(shared, bad)
    assert report.face_violations
    readers = [
        index_table,
        lambda g: bz.validate(g, bz.BZDatum(g.cartan, datum.values)),
        lambda g: bz.validate(g, bz.BZDatum(g.cartan, bad.values)),  # names faces
        lambda g: bz.from_lusztig(g, g.reference_word, n),
    ]
    for read in readers:
        g = WeylGroup(shared.cartan)  # nothing built on it yet
        read(g)
        assert g._faces is None
    assert bz.validate(g, bz.BZDatum(g.cartan, bad.values)) == report


# -- transport ---------------------------------------------------------------------


@st.composite
def word_pairs(draw):
    """(group, src, dst, n): two random reduced words of w0 in B3, C3, A4 or D4."""
    g = group_of(*draw(st.sampled_from([("B", 3), ("C", 3), ("A", 4), ("D", 4)])))
    words = g.braid_graph().words
    src, dst = (words[draw(st.integers(0, len(words) - 1))] for _ in range(2))
    n = tuple(draw(st.lists(st.integers(0, 6), min_size=g.m, max_size=g.m)))
    return g, src, dst, n


@settings(max_examples=40, deadline=None)
@given(word_pairs())
def test_transport_round_trip_keeps_coweight(case):
    g, src, dst, n = case
    there = lusztig.transport(g, src, dst, n)
    assert lusztig.transport(g, dst, src, there) == n
    assert coweight_of(g, dst, there) == coweight_of(g, src, n)


@settings(max_examples=40, deadline=None)
@given(word_pairs())
def test_transport_matches_shortest_chain(case):
    g, src, dst, n = case
    want = n
    for edge in shortest_word_path(g, src, dst):
        want = lusztig.braid_transition(g, edge, want)
    assert lusztig.transport(g, src, dst, n) == want


def parent_chain(parent, word):
    chain = []
    while parent[word] is not None:
        chain.append(parent[word])
        word = chain[-1].dst
    return chain


def test_word_path_turns_where_the_parent_chains_meet(b3):
    parent = lusztig.parent_tree(b3)
    words = b3.braid_graph().words
    for src in words[::3]:
        up = parent_chain(parent, src)
        assert list(lusztig.word_path(b3, src, b3.reference_word)) == up
        for dst in words[::5]:
            path = lusztig.word_path(b3, src, dst)
            at = src
            for e in path:
                assert e.src == at
                at = e.dst
            assert at == dst
            assert len(path) <= len(up) + len(parent_chain(parent, dst))
            assert len({e.src for e in path} | {dst}) == len(path) + 1  # no word twice
    with pytest.raises(ValueError):
        lusztig.word_path(b3, b3.reference_word, (1, 2, 3))


# -- constraints -------------------------------------------------------------------


def row_residuals(group, datum, face):
    """The residuals min(args) - lhs of the face's dense relation rows."""
    dot = lambda row: sum(a * b for a, b in zip(row, datum.values))
    return tuple(
        min(dot(arg) for arg in args) - dot(lhs) for lhs, args in relation_rows(group, face)
    )


def perturbed(group, rng, datum):
    """The datum with 1 to 3 random chamber values moved by up to 3."""
    values = list(datum.values)
    for t in rng.choice(len(values), size=int(rng.integers(1, 4)), replace=False):
        values[t] += int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return bz.BZDatum(group.cartan, tuple(values))


def scaled(group, datum, c):
    """The datum with every value times c, which may be negative."""
    return bz.BZDatum(group.cartan, tuple(c * v for v in datum.values))


@pytest.mark.parametrize(
    "family, rank",
    [("A", 2), ("B", 2), ("A", 3), ("B", 3), ("C", 3), ("A", 4), ("D", 4)],
)
def test_table_constraints_match_object_reference(family, rank):
    g = group_of(family, rank)
    rng = np.random.default_rng(rank * 7 + ord(family))
    faces = g.two_faces()
    invalid = 0
    for word, n in random_data(g, rng, 6):
        good = bz.from_lusztig(g, word, n)
        cases = [good] + [perturbed(g, rng, good) for _ in range(4)]
        # Python-int sums (2**70) and int64 sums of a reflected polytope
        cases += [scaled(g, cases[-1], 1 << 70), scaled(g, cases[-2], -(1 << 40))]
        for d in cases:
            report = bz.validate(g, d)
            assert report == reference_validate(g, d)
            invalid += not report.is_valid
            for face in faces:
                assert row_residuals(g, d, face) == reference_residuals(g, d, face)
            for w in g.elements():
                assert polytope.vertex(g, d, w) == reference_vertex(g, d, w)
                for i in range(1, g.rank + 1):
                    want = reference_edge_length(g, d, w, i)
                    assert bz.edge_length(g, d, w, i) == want
                    row = edge_row(g, w, i)
                    assert sum(a * b for a, b in zip(row, d.values)) == want
            other = g.braid_graph().words[rng.integers(len(g.braid_graph().words))]
            data = g.word_data(other)
            assert bz.lusztig_data(g, d, other) == tuple(
                reference_edge_length(g, d, data.prefixes[k], other[k]) for k in range(g.m)
            )
    assert invalid >= 30  # perturbations reach the failing branches


@pytest.mark.parametrize("family, rank", [("A", 1), ("B", 2), ("A", 3)])
def test_every_unit_move_matches_reference(family, rank):
    """Each value of a few valid data moved by +-1, one at a time; some of
    these break only an edge, by exactly 1, and no 2-face relation."""
    g = group_of(family, rank)
    rng = np.random.default_rng(rank * 13 + ord(family))
    edge_only = 0
    for word, n in random_data(g, rng, 4):
        good = bz.from_lusztig(g, word, n)
        for t in range(len(good.values)):
            for delta in (-1, 1):
                values = list(good.values)
                values[t] += delta
                d = bz.BZDatum(g.cartan, tuple(values))
                report = bz.validate(g, d)
                assert report == reference_validate(g, d)
                if report.edge_violations and not report.face_violations:
                    edge_only += all(c == -1 for _, _, c in report.edge_violations)
    assert edge_only >= 2


@pytest.mark.parametrize("family, rank", [("B", 2), ("B", 3), ("C", 3), ("D", 4)])
def test_validate_is_exact_at_the_int64_bound(family, rank):
    g = group_of(family, rank)
    table = index_table(g)
    # the check row of largest absolute sum, filled with +-b by the sign of
    # each coefficient, sums to b * check_norm; 2**63 wraps in int64
    norms = np.abs(table.check_coef).sum(0)
    k = int(norms.argmax())
    assert norms[k] == table.check_norm
    for total in [(1 << 62) - 1, 1 << 62, (1 << 63) - 1, 1 << 63, 1 << 64]:
        b = -(-total // table.check_norm)  # at least total / check_norm
        values = [0] * len(g.chamber_weights())
        for t, c in zip(table.check_index[:, k].tolist(), table.check_coef[:, k].tolist()):
            if c:
                values[t] = b if c > 0 else -b
        for sign in (1, -1):
            d = scaled(g, bz.BZDatum(g.cartan, tuple(values)), sign)
            report = bz.validate(g, d)
            assert not report.is_valid
            assert report == reference_validate(g, d)


@pytest.mark.parametrize("family, rank", [("C", 3), ("C", 4)])
def test_c_types_need_the_negated_relations(family, rank):
    g = group_of(family, rank)
    table = index_table(g)
    unchanged = tuple(range(len(g.chamber_weights())))  # no face read negated
    with pytest.raises(RuntimeError, match="^assembly program misses the chamber weights"):
        checks = table.check_index, table.check_coef
        tables._program(g, checks, face_blocks(g), unchanged)


@pytest.mark.parametrize("family, rank", [("B", 3), ("A", 4), ("D", 4)])
def test_from_lusztig_is_exact_past_int64(family, rank):
    g = group_of(family, rank)
    rng = np.random.default_rng(rank * 11 + ord(family))
    # the data (1, ..., 1) are fixed by every braid move; c (1, ..., 1) at c
    # on both sides of 2**63, past which int64 wraps
    cases = [(g.reference_word, (1,) * g.m, c) for c in [(1 << 63) - 1, 1 << 63]]
    cases += [(word, n, 1 << 70) for word, n in random_data(g, rng, 3)]
    for word, n, c in cases:
        big = tuple(c * v for v in n)
        d = bz.from_lusztig(g, word, big)
        assert d == scaled(g, bz.from_lusztig(g, word, n), c)
        assert bz.lusztig_data(g, d, word) == big
        assert bz.from_lusztig(g, g.reference_word, bz.lusztig_data(g, d, g.reference_word)) == d


def corrupted(group, **fields):
    """A fresh group of the same type whose index table has other fields."""
    fresh = WeylGroup(group.cartan)
    fresh._table = dataclasses.replace(index_table(group), **fields)
    return fresh


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("D", 4)])
def test_a_corrupted_step_fails_certification(family, rank):
    g = group_of(family, rank)
    table = index_table(g)
    ones = (1,) * g.m  # fixed by every braid move, so the program runs on ones
    good = table.assemble(ones)
    # the last edge step and the last face step, each made to subtract one
    # more value: a chamber weight written before it, nonzero on ones
    for s in (g.m - 1, len(table.program) - 1):
        step = table.program[s]
        y = next(t.x for t in table.program[:s] if good[t.x])
        program = list(table.program)
        program[s] = step._replace(rest=step.rest + ((y, 1),))
        bad = tables._compiled(tuple(program), len(good), table.chamber_array[0].tolist())
        values = bad(ones)
        assert values[step.x] == good[step.x] - good[y]
        d = bz.BZDatum(g.cartan, values)
        report = reference_validate(g, d)
        if report.is_valid:
            # another valid datum, whose Lusztig data are not n
            data = g.word_data(g.reference_word)
            back = tuple(
                reference_edge_length(g, d, data.prefixes[k], i)
                for k, i in enumerate(g.reference_word)
            )
            assert back != ones
            want = f"assembled datum has Lusztig data {back} along {g.reference_word}, not {ones}"
        else:
            want = "assembled data violates polytope conditions: " + "; ".join(report.lines())
        # a face step breaks a relation that validate reads
        assert report.is_valid == (step.k is not None)
        with pytest.raises(RuntimeError) as caught:
            broken = corrupted(g, program=tuple(program), assemble=bad)
            bz.from_lusztig(broken, g.reference_word, ones)
        assert str(caught.value) == want


def test_report_is_kept_on_the_datum(a3):
    rng = np.random.default_rng(17)
    word, n = random_data(a3, rng, 2)[1]
    good = bz.from_lusztig(a3, word, n)
    other = bz.from_lusztig(a3, a3.reference_word, (0,) * a3.m)
    # valid data share one empty report
    assert bz.validate(a3, good) is bz.validate(a3, other) is bz.validate(a3, good)
    bad = perturbed(a3, rng, good)
    report = bz.validate(a3, bad)
    assert not report.is_valid and bz.validate(a3, bad) is report
    assert serialize.datum_to_doc(a3, bad)["valid"] is False
    assert serialize.datum_to_doc(a3, good)["valid"] is True
    # the report takes no part in equality or hashing
    again = bz.BZDatum(a3.cartan, bad.values)
    assert again == bad and hash(again) == hash(bad) and again._report is None
    assert bz.validate(a3, again) == report


def test_face_relations_rows_match_residuals():
    """The densified check rows, read through ``tables.by_relation``, give
    the reference edge lengths and 2-face residuals."""
    rng = np.random.default_rng(5)
    for family, rank in [("B", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        g = group_of(family, rank)
        table = index_table(g)
        checks = primes._check_matrix(table, len(g.chamber_weights())).tolist()
        faces = g.two_faces(("hexagon", "octagon"))
        n_args = [len(args) for f in faces for _, args in tables.FACE_RELATIONS[f.kind]]
        layout = tables.by_relation(table, np.arange(len(checks))).tolist()
        assert np.shape(layout) == (len(n_args), tables.RELATION_ARGS)
        assert sorted(c for columns in layout for c in columns) == list(
            range(table.n_edges, len(checks))
        )
        assert table.faces.tolist() == [[f.w.index, f.i, f.j] for f in faces]
        # the edge block's columns are the ascents in row-major order
        edges = [(g.elements()[t].word, i + 1) for t, i in np.argwhere(g._ascents).tolist()]
        assert edges == [(w.word, i) for w, i in edge_pairs(g)] and table.n_edges == len(edges)
        for columns, k in zip(layout, n_args):
            # a relation with fewer arguments repeats its last
            assert all(checks[c] == checks[columns[k - 1]] for c in columns[k:])
        for word, n in random_data(g, rng, 3):
            d = perturbed(g, rng, bz.from_lusztig(g, word, n))
            sums = [sum(a * b for a, b in zip(row, d.values)) for row in checks]
            for (w, i), c in zip(edge_pairs(g), sums):
                assert c == reference_edge_length(g, d, w, i)
            residuals = iter(min(sums[c] for c in cols[:k]) for cols, k in zip(layout, n_args))
            for face in faces:
                res = tuple(next(residuals) for _ in tables.FACE_RELATIONS[face.kind])
                assert res == row_residuals(g, d, face) == reference_residuals(g, d, face)

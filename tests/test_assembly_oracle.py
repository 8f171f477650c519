"""Table-driven assembly and validation against object-based references.

``bfs_from_lusztig`` is the braid-graph assembly: it walks the braid graph
from the given word, reads values off every word it reaches with
``n_to_partial_M``, and cross-checks every revisited word and every chamber
weight reached twice.  ``shortest_word_path`` is a breadth-first
chain of braid moves between two words.  ``reference_validate`` recomputes
edge lengths and 2-face residuals from ``Weight`` objects, over the edges
``edge_pairs`` lists; ``edge_row`` and ``relation_rows`` are the same
constraints as dense rows over the values tuple, the latter placing
``tables.FACE_RELATIONS`` at a face's chamber weights A..H.  ``coweight_of``
is the coweight sum n_k beta_k of Lusztig data along a word.  None of them
reads the per-group index table, so they are independent of the transport
plan, the parent tree and the check rows they check.
"""

import dataclasses
import gc
import itertools
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


@pytest.mark.parametrize(
    "family, rank, count",
    [("A", 3, 20), ("B", 3, 8), ("C", 3, 8), ("A", 4, 4), ("D", 4, 2)],
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


def test_plan_covers_every_chamber_weight():
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        g = group_of(family, rank)
        table = index_table(g)
        assert table.plan[0].word == g.reference_word and not table.plan[0].edges
        reached = set(table.chamber[0])
        for stop in table.plan:
            at = stop.edges[0].src if stop.edges else stop.word
            for e in stop.edges:
                assert e.src == at
                at = e.dst
            assert at == stop.word
        reached |= set(table.targets.tolist())
        assert reached == set(range(len(g.chamber_weights())))


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


def parent_chain(table, word):
    chain = []
    while table.parent[word] is not None:
        chain.append(table.parent[word])
        word = chain[-1].dst
    return chain


def test_word_path_turns_where_the_parent_chains_meet(b3):
    table = index_table(b3)
    words = b3.braid_graph().words
    for src in words[::3]:
        up = parent_chain(table, src)
        assert list(lusztig.word_path(b3, src, b3.reference_word)) == up
        for dst in words[::5]:
            path = lusztig.word_path(b3, src, dst)
            at = src
            for e in path:
                assert e.src == at
                at = e.dst
            assert at == dst
            assert len(path) <= len(up) + len(parent_chain(table, dst))
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


@pytest.mark.parametrize("family, rank", [("B", 3), ("A", 4), ("D", 4)])
def test_from_lusztig_is_exact_past_int64(family, rank):
    g = group_of(family, rank)
    table = index_table(g)
    rng = np.random.default_rng(rank * 11 + ord(family))
    # the data (1, ..., 1) are fixed by every braid move, so each read-off
    # sums b times a row of the pairing stack; 2**63 wraps in int64
    at_bound = [-(-(1 << 63) // table.pairing_norm), ((1 << 62) - 1) // table.pairing_norm]
    cases = [(g.reference_word, (1,) * g.m, c) for c in at_bound]
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
def test_read_off_names_the_chamber_and_word_of_a_clash(family, rank):
    g = group_of(family, rank)
    table = index_table(g)
    ones = (1,) * g.m  # fixed by every braid move, so every stop reads ones
    # a row that reaches a chamber weight some earlier row reached first
    p = next(p for p, t in enumerate(table.targets) if table.source[t] != p)
    s, k = divmod(p, g.m)
    coords = g.chamber_weights()[table.targets[p]].weight.coords
    word = table.plan[s].word
    pairing = table.pairing.copy()
    pairing[s, k, 0] += 1
    with pytest.raises(RuntimeError, match="inconsistent value") as caught:
        bz.from_lusztig(corrupted(g, pairing=pairing), g.reference_word, ones)
    assert str(coords) in str(caught.value) and str(word) in str(caught.value)
    # a row sent to an identity chamber weight must read 0 there
    targets = table.targets.copy()
    identity = table.chamber[0][0]
    p = int(np.flatnonzero(table.pairing.sum(2).ravel())[0])  # reads nonzero on ones
    targets[p] = identity
    with pytest.raises(RuntimeError, match="inconsistent value") as caught:
        bz.from_lusztig(corrupted(g, targets=targets), g.reference_word, ones)
    coords = g.chamber_weights()[identity].weight.coords
    assert coords == g.cartan.fundamental_weight(1).coords
    assert str(coords) in str(caught.value)
    assert str(table.plan[p // g.m].word) in str(caught.value)


def test_table_build_refuses_a_plan_that_misses_a_chamber_weight(a3):
    table = index_table(a3)
    with pytest.raises(RuntimeError, match=r"^transport plan misses the chamber weights \[\("):
        tables._pairing_stack(a3, table.plan[:1], table.chamber[0])


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
        n_args = [len(args) for f in table.faces for _, args in tables.FACE_RELATIONS[f.kind]]
        layout = tables.by_relation(table, np.arange(len(checks))).tolist()
        assert np.shape(layout) == (len(n_args), tables.RELATION_ARGS)
        assert sorted(c for columns in layout for c in columns) == list(
            range(len(table.edges), len(checks))
        )
        assert list(table.faces) == list(g.two_faces(("hexagon", "octagon")))
        assert table.edges == tuple((w.word, i) for w, i in edge_pairs(g))
        for columns, k in zip(layout, n_args):
            # a relation with fewer arguments repeats its last
            assert all(checks[c] == checks[columns[k - 1]] for c in columns[k:])
        for word, n in random_data(g, rng, 3):
            d = perturbed(g, rng, bz.from_lusztig(g, word, n))
            sums = [sum(a * b for a, b in zip(row, d.values)) for row in checks]
            for (w, i), c in zip(edge_pairs(g), sums):
                assert c == reference_edge_length(g, d, w, i)
            residuals = iter(min(sums[c] for c in cols[:k]) for cols, k in zip(layout, n_args))
            for face in table.faces:
                res = tuple(next(residuals) for _ in tables.FACE_RELATIONS[face.kind])
                assert res == row_residuals(g, d, face) == reference_residuals(g, d, face)

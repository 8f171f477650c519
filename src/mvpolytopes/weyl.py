"""Weyl groups, reduced words, chamber weights and 2-faces, in exact integers.

One walk by length levels builds the group as two int64 ``(|W|, r, r)``
stacks: the action matrices on the weight lattice (column i of row t is
w_t.Lambda_i) and the contragredient matrices on coweights (column i is
w_t.alpha_i^vee).  The two stay dual, which is what makes chamber-weight
bookkeeping cheap: {w.Lambda_i} and {w.alpha_i^vee} are dual bases for every
w.  An element is its position t in ``elements()``, which is also its row in
both stacks; it carries its word and length but no copy of its action.  The
right table comes from the walk's steps and is held once, as the int
``(|W|, r)`` array ``_right_array``: a step of a walk reads one entry with
``.item(t, i - 1)``, and a loop over the whole table takes a local
``.tolist()`` that it does not keep.  Chamber weights, chamber indices, orbits
and the index table's ``coaction`` are read off the stacks.  The stacks are
allocated at |W|, known in closed form from the Cartan type.

The braid graph is arrays too: the reduced words of w0 are found as the rows
of an int ``(N, m)`` matrix, grown a letter a level through the right table,
and kept as tuples; each braid move is a row of the ``(src, k, d, dst)`` move
arrays, found by one window match per position k and looked up by the
flipped word's radix-r key.  ``BraidEdge`` objects are made only where asked
for: by ``BraidGraph.adjacency`` and by :func:`lusztig.parent_tree`.

So are the 2-faces: ``_face_blocks`` gives per pair (i, j) the kind, the
oriented pair and the int array of the faces' elements, which the index table
gathers over; ``two_faces`` wraps them in ``Face`` objects on first use.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import _kernels
from .cartan import CartanDatum, Coweight, Weight

def _mat_vec(a: list[list[int]], v) -> tuple[int, ...]:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per row of a 2-D int64 array, in the rows' lexicographic
    order: the row's mixed-radix number, each column shifted to start at 0.
    ``np.unique`` on these keys costs far less than ``np.unique(axis=0)``,
    whose structured view dominates the small levels of small groups."""
    low = rows.min(axis=0)
    spans = [high - lo + 1 for high, lo in zip(rows.max(axis=0).tolist(), low.tolist())]
    if math.prod(spans) >= 1 << 63:
        raise RuntimeError(f"rows spanning {spans} have no int64 mixed-radix key")
    radix = np.cumprod([1, *spans[:0:-1]], dtype=np.int64)[::-1]
    return (rows - low) @ radix


# |W| of the exceptional types, by (family, rank)
EXCEPTIONAL_ORDERS = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("G", 2): 12,
}


def weyl_order(cartan: CartanDatum) -> int:
    """|W| from the closed form for the family and rank of ``cartan``."""
    n = cartan.rank
    if cartan.family == "A":
        return math.factorial(n + 1)
    if cartan.family in ("B", "C"):
        return 2**n * math.factorial(n)
    if cartan.family == "D":
        return 2 ** (n - 1) * math.factorial(n)
    if (cartan.family, n) in EXCEPTIONAL_ORDERS:
        return EXCEPTIONAL_ORDERS[cartan.family, n]
    raise ValueError(f"no finite Weyl group of type {cartan.family}{n}")


@dataclass(frozen=True)
class WeylElement:
    """Group element: ``index`` is its position in ``elements()`` and its row
    in the group's action stacks; equality and hashing go through
    (cartan, index)."""

    cartan: CartanDatum
    index: int = field(repr=False)
    word: tuple[int, ...] = field(compare=False)
    length: int = field(compare=False)

    def __repr__(self) -> str:
        return "W[e]" if not self.word else "W[" + " ".join(map(str, self.word)) + "]"


@dataclass(frozen=True)
class ChamberWeight:
    """A weight in the orbit of some Lambda_i; deduplicated by coordinates."""

    weight: Weight
    level: int


FACE_KINDS = ("rectangle", "hexagon", "octagon")


@dataclass(frozen=True)
class Face:
    """2-face of the permutohedron: minimal coset representative plus {i, j}.

    ``kind`` is rectangle/hexagon/octagon according to a_ij * a_ji = 0/1/2;
    octagon faces are oriented so that a_ij = -1 and a_ji = -2.
    """

    w: WeylElement
    i: int
    j: int
    kind: str


@dataclass(frozen=True)
class WordData:
    """Prefix path of a reduced word for w0 and its attached data."""

    word: tuple[int, ...]
    prefixes: tuple[WeylElement, ...]  # w_0 = e, w_1, ..., w_m
    coroots: tuple[Coweight, ...]  # beta_k = w_{k-1} . alpha_{i_k}^vee
    gammas: tuple[Weight, ...]  # gamma_k = w_k . Lambda_{i_k}


@dataclass(frozen=True)
class BraidEdge:
    """Directed braid move: positions k..k+d-1 of ``src`` flip to give ``dst``."""

    src: tuple[int, ...]
    dst: tuple[int, ...]
    k: int
    d: int

    @property
    def i(self) -> int:
        return self.src[self.k]

    @property
    def j(self) -> int:
        return self.src[self.k + 1]


@dataclass(frozen=True)
class BraidGraph:
    """The reduced words of w0 and the braid moves between them.

    ``words`` are in lexicographic order.  Braid move e flips positions
    k[e]..k[e] + d[e] - 1 of word src[e] to give word dst[e]; the moves are
    sorted by (src, k), so word x's moves are ``starts[x]:starts[x + 1]``.
    ``adjacency`` maps each word to those moves as :class:`BraidEdge`
    objects, made on first access.
    """

    words: tuple[tuple[int, ...], ...]
    src: np.ndarray = field(repr=False, compare=False)
    k: np.ndarray = field(repr=False, compare=False)
    d: np.ndarray = field(repr=False, compare=False)
    dst: np.ndarray = field(repr=False, compare=False)
    starts: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def adjacency(self) -> Mapping[tuple[int, ...], tuple[BraidEdge, ...]]:
        words = self.words
        edges = [
            BraidEdge(words[s], words[t], k, d)
            for s, k, d, t in zip(*(a.tolist() for a in (self.src, self.k, self.d, self.dst)))
        ]
        starts = self.starts.tolist()
        return MappingProxyType(
            {word: tuple(edges[starts[x] : starts[x + 1]]) for x, word in enumerate(words)}
        )


class WeylGroup:
    """Finite Weyl group of a CartanDatum with cached combinatorial data."""

    def __init__(self, cartan: CartanDatum):
        self.cartan = cartan
        self.rank = cartan.rank
        self._letters = frozenset(range(1, self.rank + 1))
        self._build()
        self._reduced_words: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._braid_graph: BraidGraph | None = None
        self._chambers: tuple[ChamberWeight, ...] | None = None
        self._faces: tuple[Face, ...] | None = None
        self._kpf: dict[tuple[int, ...], int] = {}
        self._parts: np.ndarray | None = None
        self._mv_cache: dict = {}
        # (t, i): w_t . alpha_i^vee and w_t . Lambda_i, each made on first use
        self._coroots: dict[tuple[int, int], Coweight] = {}
        self._lambdas: dict[tuple[int, int], Weight] = {}
        self._catalog = None
        self._table = None  # tables.IndexTable, built on first use
        self._doc_keys = None  # serialize's chamber keys, built on first use
        self._word_keys = None  # serialize's word keys, built on first use
        self._parent_tree = None  # lusztig.parent_tree, built on first use

    # -- construction -------------------------------------------------

    def _build(self) -> None:
        """One walk by length levels on int64 ``(|W|, r, r)`` stacks.

        Each level is multiplied by every s_i with l(w s_i) > l(w), that is
        w.alpha_i^vee > 0.  A new element, told apart by w rho (the row sums
        of its matrix), is kept where it first appears in (parent, letter)
        order and takes its parent's word plus the letter.  So each level
        comes in the order of least reduced words, the next level is found in
        that order, and the elements come out sorted by (length, word).  The
        stacks are allocated once, at the order :func:`weyl_order` gives, and
        each level is written into them as it is found.
        """
        r = self.rank
        size = weyl_order(self.cartan)
        a = np.array(self.cartan.a, dtype=np.int64)
        # s_i Lambda_j = Lambda_j - delta_ij alpha_i, and alpha_i is column i of a
        gens = np.repeat(np.eye(r, dtype=np.int64)[None], r, axis=0)
        gens[np.arange(r), :, np.arange(r)] -= a.T
        # [t]: the action matrices of w_t on weights and on coweights
        mats = np.empty((size, r, r), dtype=np.int64)
        comats = np.empty_like(mats)
        mats[0] = comats[0] = np.eye(r, dtype=np.int64)
        elements = [WeylElement(self.cartan, 0, (), 0)]
        steps = []
        start = 0  # index of the level's first element
        while True:
            end = len(elements)
            mat, comat = mats[start:end], comats[start:end]
            t, i = np.nonzero((comat >= 0).all(axis=1))
            if not t.size:
                break
            found = mat[t] @ gens[i]
            _, first, at = np.unique(
                _row_keys(found.sum(axis=2)), return_index=True, return_inverse=True
            )
            kept = np.sort(first)  # the new elements, by first appearance
            if end + len(kept) > size:
                raise RuntimeError(f"the walk finds more than the {size} elements of {self.cartan}")
            at = first[at]
            steps.append((start + t, i, end + np.searchsorted(kept, at)))
            t, i = t[kept], i[kept]
            mats[end : end + len(kept)] = found[kept]
            # s_i is an involution, so its comat is the transpose of its matrix
            np.matmul(comat[t], gens[i].transpose(0, 2, 1), out=comats[end : end + len(kept)])
            for p, k in zip((start + t).tolist(), i.tolist()):
                word = elements[p].word + (k + 1,)
                elements.append(WeylElement(self.cartan, len(elements), word, len(word)))
            start = end
        if end != size:
            raise RuntimeError(f"the walk finds {end} elements, but {self.cartan} has {size}")
        if end - start > 1:
            raise RuntimeError(
                f"longest element is not unique: {end - start} elements have length "
                f"{elements[-1].length}"
            )
        self._mats, self._comats = mats, comats
        self._mats.flags.writeable = self._comats.flags.writeable = False
        # each step w -> w s_i of the walk, and its reverse, is an entry of the right table
        src, letter, dst = map(np.concatenate, zip(*steps))
        right = np.empty((size, r), dtype=np.intp)
        right[src, letter] = dst
        right[dst, letter] = src
        right.flags.writeable = False
        self._right_array = right  # [t][i - 1]: index of w_t s_i
        self._elements = tuple(elements)
        self._identity = self._elements[0]
        self._w0 = self._elements[-1]
        self.m = self._w0.length

    def _shared(self, store: dict, stack: np.ndarray, kind: type, keys) -> tuple:
        """Column i of ``stack[t]`` as a ``kind`` for each (t, i) in ``keys``:
        each object is made on first use and kept in ``store``, so every
        lookup of it returns the same one."""
        out = []
        for key in keys:
            vec = store.get(key)
            if vec is None:
                t, i = key
                vec = store[key] = kind(self.cartan, tuple(stack[t, :, i - 1].tolist()))
            out.append(vec)
        return tuple(out)

    @functools.cached_property
    def _ascents(self) -> np.ndarray:
        """[t][i - 1]: whether l(w_t s_i) > l(w_t), that is w_t.alpha_i^vee > 0."""
        return (self._comats >= 0).all(axis=1)

    @functools.cached_property
    def _signs(self) -> np.ndarray:
        """[t]: (-1)^l(w_t), the determinant of w_t."""
        signs = np.array([1 - 2 * (w.length % 2) for w in self._elements], dtype=np.int64)
        signs.flags.writeable = False
        return signs

    @functools.cached_property
    def _action_max(self) -> int:
        """max |entry| of the two action stacks, so of every w . alpha_i^vee
        and every chamber weight's coordinates too."""
        return int(max(np.abs(self._mats).max(), np.abs(self._comats).max()))

    # -- basic group operations ----------------------------------------

    @property
    def identity(self) -> WeylElement:
        return self._identity

    @property
    def w0(self) -> WeylElement:
        return self._w0

    def elements(self) -> tuple[WeylElement, ...]:
        return self._elements

    def right(self, w: WeylElement, i: int) -> WeylElement:
        """w * s_i."""
        self.cartan._check_index(i)
        return self._elements[self._right_array.item(self._row(w), i - 1)]

    def inverse(self, w: WeylElement) -> WeylElement:
        return self.from_word(reversed(w.word))

    def from_word(self, word) -> WeylElement:
        w = self._identity
        for i in word:
            w = self.right(w, i)
        return w

    def _row(self, w: WeylElement) -> int:
        """w's position in ``elements()``, its row in the action stacks."""
        if w.cartan != self.cartan:
            raise ValueError("element belongs to a different Cartan datum")
        return w.index

    def _coords(self, vec, kind) -> tuple[int, ...]:
        if not isinstance(vec, kind):
            raise TypeError(f"expected a {kind.__name__}, got {type(vec).__name__}")
        if vec.cartan != self.cartan:
            raise ValueError(f"{kind.__name__.lower()} belongs to a different Cartan datum")
        return vec.coords

    def apply(self, w: WeylElement, lam: Weight) -> Weight:
        mat = self._mats[self._row(w)].tolist()
        return Weight(self.cartan, _mat_vec(mat, self._coords(lam, Weight)))

    def apply_coweight(self, w: WeylElement, mu: Coweight) -> Coweight:
        comat = self._comats[self._row(w)].tolist()
        return Coweight(self.cartan, _mat_vec(comat, self._coords(mu, Coweight)))

    def w_lambda(self, w: WeylElement, i: int) -> Weight:
        """The chamber weight w . Lambda_i (column i of the action matrix)."""
        self.cartan._check_index(i)
        return self._shared(self._lambdas, self._mats, Weight, [(self._row(w), i)])[0]

    def w_coroot(self, w: WeylElement, i: int) -> Coweight:
        """w . alpha_i^vee (column i of the coweight action matrix)."""
        self.cartan._check_index(i)
        return self._shared(self._coroots, self._comats, Coweight, [(self._row(w), i)])[0]

    # -- reduced words and word data ------------------------------------

    def reduced_words(self, w: WeylElement) -> tuple[tuple[int, ...], ...]:
        """All reduced words of w, lexicographically sorted.

        The words of w are the words of w s_i followed by i, over the right
        descents i of w (those with l(w s_i) < l(w)).
        """
        memo, t = self._reduced_words, self._row(w)
        if t not in memo:
            els = self._elements
            lower = [
                (i, els[u])
                for i, u in enumerate(self._right_array[t].tolist(), 1)
                if els[u].length < w.length
            ]
            words = sorted(head + (i,) for i, u in lower for head in self.reduced_words(u))
            memo[t] = tuple(words) if lower else ((),)  # the identity has no descents
        return memo[t]

    @property
    def reference_word(self) -> tuple[int, ...]:
        return self._w0.word

    def _prefixes(self, word: tuple[int, ...]) -> list[int]:
        """The element indices of the prefixes e, w_1, ..., w_m of ``word``,
        after checking that it is a reduced word for w0: m letters in range
        whose product is w0."""
        if len(word) != self.m:
            raise ValueError(f"need a reduced word for w0 of length {self.m}, got {word}")
        if not self._letters.issuperset(word):
            for i in word:
                self.cartan._check_index(i)
        item, t = self._right_array.item, 0
        path = [0]
        for i in word:
            t = item(t, i - 1)
            path.append(t)
        if t != len(self._elements) - 1:
            raise ValueError(f"{word} is not a word for the longest element")
        return path

    def word_data(self, word) -> WordData:
        """The prefixes, coroots and gammas of a reduced word for w0, made anew."""
        word = tuple(word)
        path = self._prefixes(word)
        coroots = self._shared(self._coroots, self._comats, Coweight, zip(path, word))
        gammas = self._shared(self._lambdas, self._mats, Weight, zip(path[1:], word))
        if len({b.coords for b in coroots}) != self.m:
            raise RuntimeError(f"reduced word {word} repeats a coroot in its coroot sequence")
        return WordData(word, tuple([self._elements[t] for t in path]), coroots, gammas)

    @functools.cached_property
    def positive_coroots(self) -> tuple[Coweight, ...]:
        """All positive coroots, in the order induced by the reference word."""
        return self.word_data(self.reference_word).coroots

    @functools.cached_property
    def positive_roots(self) -> tuple[Weight, ...]:
        data = self.word_data(self.reference_word)
        return tuple(
            self.apply(data.prefixes[k], self.cartan.simple_root(data.word[k]))
            for k in range(self.m)
        )

    @functools.cached_property
    def two_rho(self) -> Coweight:
        """Sum of the positive coroots (twice the Weyl vector of the dual side)."""
        total = self.cartan.zero_coweight()
        for b in self.positive_coroots:
            total = total + b
        return total

    # -- chamber weights -------------------------------------------------

    def chamber_weights(self) -> tuple[ChamberWeight, ...]:
        """The orbits of the fundamental weights, by level and coordinates;
        ``_chamber_array[t][i - 1]`` is the chamber index of w_t . Lambda_i,
        and row x of the int ``(chambers, r)`` array ``_chamber_coords`` and
        entry x of ``_chamber_levels`` are chamber weight x's coordinates and
        level."""
        if self._chambers is None:
            chambers, index, coords = [], [], []
            for i in range(self.rank):
                rows = self._mats[:, :, i]
                _, first, at = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
                index.append(at + len(chambers))
                coords.append(rows[first])
                chambers += [
                    ChamberWeight(Weight(self.cartan, tuple(c)), i + 1)
                    for c in coords[-1].tolist()
                ]
            self._chamber_index = {c.weight.coords: x for x, c in enumerate(chambers)}
            if len(self._chamber_index) < len(chambers):
                raise RuntimeError("the orbits of two fundamental weights meet")
            self._chamber_array = np.stack(index, axis=1)
            self._chamber_coords = np.concatenate(coords)
            self._chamber_levels = np.repeat(np.arange(1, self.rank + 1), list(map(len, coords)))
            for array in (self._chamber_array, self._chamber_coords, self._chamber_levels):
                array.flags.writeable = False
            self._chambers = tuple(chambers)
        return self._chambers

    @functools.cached_property
    def _canonical_cols(self) -> np.ndarray:
        """[i - 1]: the chamber index of w0 s_i . Lambda_i, whose level is i."""
        self.chamber_weights()
        cols = self._chamber_array[self._right_array[-1], np.arange(self.rank)]
        cols.flags.writeable = False
        return cols

    def chamber_index(self, coords: tuple[int, ...]) -> int:
        self.chamber_weights()
        return self._chamber_index[coords]

    def weyl_orbit(self, lam: Weight) -> tuple[Weight, ...]:
        images = self._mats @ np.array(self._coords(lam, Weight), dtype=object)
        return tuple(Weight(self.cartan, c) for c in sorted(set(map(tuple, images.tolist()))))

    # -- 2-faces ----------------------------------------------------------

    def _face_blocks(self, kinds: tuple[str, ...]) -> list[tuple[str, int, int, np.ndarray]]:
        """The 2-faces of the given kinds as (kind, i, j, t), one block per
        pair in order: (i, j) oriented and t the int array of the w_t with
        ascents s_i and s_j, the faces' minimal coset representatives."""
        blocks = []
        for i, j in itertools.combinations(range(1, self.rank + 1), 2):
            kind = FACE_KINDS[self.cartan.entry(i, j) * self.cartan.entry(j, i)]
            if kind in kinds:
                if kind == "octagon" and self.cartan.entry(i, j) != -1:
                    i, j = j, i  # oriented so that a_ij = -1 and a_ji = -2
                t = np.flatnonzero(self._ascents[:, [i - 1, j - 1]].all(1))
                blocks.append((kind, i, j, t))
        return blocks

    def two_faces(self, kinds: tuple[str, ...] = FACE_KINDS) -> tuple[Face, ...]:
        """:meth:`_face_blocks` as :class:`Face` objects, made on first use."""
        if self._faces is None:
            self._faces = tuple(
                Face(self._elements[t], i, j, kind)
                for kind, i, j, ts in self._face_blocks(FACE_KINDS)
                for t in ts.tolist()
            )
        return tuple(f for f in self._faces if f.kind in kinds)

    # -- braid graph -------------------------------------------------------

    @functools.cached_property
    def _orders(self) -> np.ndarray:
        """[i - 1][j - 1]: the order of s_i s_j, which is 2, 3, 4 or 6 for
        a_ij a_ji = 0, 1, 2 or 3, and 1 for i = j."""
        a, r = self.cartan.a, self.rank
        orders = np.ones((r, r), dtype=np.int64)
        for i, j in itertools.permutations(range(r), 2):
            orders[i, j] = {0: 2, 1: 3, 2: 4, 3: 6}[a[i][j] * a[j][i]]
        orders.flags.writeable = False
        return orders

    def braid_order(self, i: int, j: int) -> int:
        """Order of s_i s_j for i != j: 2, 3, 4 or 6 for a_ij a_ji = 0, 1, 2 or 3."""
        self.cartan._check_index(i)
        self.cartan._check_index(j)
        if i == j:
            raise ValueError(f"braid order needs two distinct indices, got i = {i} and j = {j}")
        return int(self._orders[i - 1, j - 1])

    def braid_graph(self) -> BraidGraph:
        """The reduced words of w0 and their braid moves, built on first use.

        The words grow one letter a level from the empty prefix, each prefix
        taking every ascent of the element it ends at, in letter order, so
        the rows stay in lexicographic order.  A move at position k is an
        alternating window x y x ... of length d = the order of s_x s_y; its
        flip is looked up by its radix-r key among the words' keys.
        """
        if self._braid_graph is None:
            r, m = self.rank, self.m
            if r**m >= 1 << 63:
                raise RuntimeError(f"words of length {m} in {r} letters have no int64 key")
            cols, at = [], np.zeros(1, dtype=np.intp)  # the prefixes' letters, by position
            for _ in range(m):
                p, i = np.nonzero(self._ascents[at])
                cols, at = [c[p] for c in cols] + [i + 1], self._right_array[at[p], i]
            words = np.array(cols).T
            radix = r ** np.arange(m - 1, -1, -1, dtype=np.int64)
            keys = (words - 1) @ radix
            # ok[x][k]: whether the window of word x at k alternates for d = its order
            ok = np.zeros((len(words), m - 1), dtype=bool)
            for k in range(m - 1):
                d = self._orders[cols[k] - 1, cols[k + 1] - 1]
                ok[:, k] = k + d <= m
                for t in range(2, min(int(d.max()), m - k)):
                    ok[:, k] &= (d <= t) | (cols[k + t] == cols[k + t - 2])
            src, k = np.nonzero(ok)  # the moves, by (src, k)
            x, y = words[src, k], words[src, k + 1]
            d = self._orders[x - 1, y - 1]
            # the flip adds y - x at the even places t of the window and x - y at the odd
            step = np.zeros(len(src), dtype=np.int64)
            for t in range(int(d.max(initial=0))):
                step += np.where(t < d, (-1) ** t * radix[np.minimum(k + t, m - 1)], 0)
            dst_keys = keys[src] + (y - x) * step
            dst = np.searchsorted(keys, dst_keys)
            miss = np.flatnonzero(keys[np.minimum(dst, len(keys) - 1)] != dst_keys)
            if miss.size:
                e = miss[0]
                word, at, span = tuple(words[src[e]].tolist()), int(k[e]), int(d[e])
                flip = ((word[at + 1], word[at]) * span)[:span]
                raise RuntimeError(
                    f"braid move at {at} of {word} gives "
                    f"{word[:at] + flip + word[at + span :]}, not a reduced word of w0"
                )
            self._braid_graph = BraidGraph(
                tuple(map(tuple, words.tolist())),
                src,
                k,
                d,
                dst,
                np.searchsorted(src, np.arange(len(keys) + 1)),
            )
        return self._braid_graph

    # -- numerics ----------------------------------------------------------

    def _parts_matrix(self) -> np.ndarray:
        if self._parts is None:
            self._parts = np.array(
                [b.coords for b in self.positive_coroots], dtype=np.int64
            )
        return self._parts

    def kpf(self, mu: Coweight) -> int:
        """Number of multisets of positive coroots summing to mu."""
        return self._kpf_at(self._coords(mu, Coweight))

    def _kpf_at(self, key: tuple[int, ...]) -> int:
        """:meth:`kpf` at the coordinates ``key``, a tuple of ints, unchecked."""
        value = self._kpf.get(key)
        if value is None:
            if min(key) < 0:
                return 0  # kept out of the memo, which the alternating sums would flood
            target = np.array(key, dtype=np.int64)
            value = self._kpf[key] = int(
                _kernels.count_nonneg_combinations(self._parts_matrix(), target)
            )
        return value


@functools.lru_cache(maxsize=None)
def weyl_group(cartan: CartanDatum) -> WeylGroup:
    return WeylGroup(cartan)

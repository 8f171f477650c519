"""Weyl groups, reduced words, chamber weights and 2-faces, in exact integers.

One walk by length levels builds the group as two int64 ``(|W|, r, r)``
stacks: the action matrices on the weight lattice (column i of row t is
w_t.Lambda_i) and the contragredient matrices on coweights (column i is
w_t.alpha_i^vee).  The two stay dual, which is what makes chamber-weight
bookkeeping cheap: {w.Lambda_i} and {w.alpha_i^vee} are dual bases for every
w.  An element is its position t in ``elements()``, which is also its row in
both stacks; it carries its word and length but no copy of its action.  The
right table comes from the walk's steps; chamber weights, chamber indices,
orbits and the index table's ``coaction`` are read off the stacks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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
    words: tuple[tuple[int, ...], ...]
    adjacency: dict[tuple[int, ...], tuple[BraidEdge, ...]] = field(compare=False)


class WeylGroup:
    """Finite Weyl group of a CartanDatum with cached combinatorial data."""

    def __init__(self, cartan: CartanDatum):
        self.cartan = cartan
        self.rank = cartan.rank
        self._build()
        self._word_data: dict[tuple[int, ...], WordData] = {}
        self._reduced_words: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._braid_graph: BraidGraph | None = None
        self._chambers: tuple[ChamberWeight, ...] | None = None
        self._faces: tuple[Face, ...] | None = None
        self._kpf: dict[tuple[int, ...], int] = {}
        self._parts: np.ndarray | None = None
        self._mv_cache: dict = {}
        self._catalog = None
        self._table = None  # tables.IndexTable, built on first use

    # -- construction -------------------------------------------------

    def _build(self) -> None:
        """One walk by length levels on int64 ``(N, r, r)`` stacks.

        Each level is multiplied by every s_i with l(w s_i) > l(w), that is
        w.alpha_i^vee > 0.  A new element, told apart by w rho (the row sums
        of its matrix), is kept where it first appears in (parent, letter)
        order and takes its parent's word plus the letter.  So each level
        comes in the order of least reduced words, the next level is found in
        that order, and the elements come out sorted by (length, word).
        """
        r = self.rank
        a = np.array(self.cartan.a, dtype=np.int64)
        # s_i Lambda_j = Lambda_j - delta_ij alpha_i, and alpha_i is column i of a
        gens = np.repeat(np.eye(r, dtype=np.int64)[None], r, axis=0)
        gens[np.arange(r), :, np.arange(r)] -= a.T
        mat = comat = np.eye(r, dtype=np.int64)[None]
        elements = [WeylElement(self.cartan, 0, (), 0)]
        levels, steps = [(mat, comat)], []
        while True:
            start = len(elements) - len(mat)  # index of the level's first element
            t, i = np.nonzero((comat >= 0).all(axis=1))
            if not t.size:
                break
            found = mat[t] @ gens[i]
            _, first, at = np.unique(
                _row_keys(found.sum(axis=2)), return_index=True, return_inverse=True
            )
            kept = np.sort(first)  # the new elements, by first appearance
            at = first[at]
            steps.append((start + t, i, len(elements) + np.searchsorted(kept, at)))
            t, i = t[kept], i[kept]
            # s_i is an involution, so its comat is the transpose of its matrix
            mat, comat = found[kept], comat[t] @ gens[i].transpose(0, 2, 1)
            levels.append((mat, comat))
            for p, k in zip((start + t).tolist(), i.tolist()):
                word = elements[p].word + (k + 1,)
                elements.append(WeylElement(self.cartan, len(elements), word, len(word)))
        if len(mat) > 1:
            raise RuntimeError(
                f"longest element is not unique: {len(mat)} elements have length {len(levels) - 1}"
            )
        # [t]: the action matrices of w_t on weights and on coweights
        self._mats, self._comats = map(np.concatenate, zip(*levels))
        self._mats.flags.writeable = self._comats.flags.writeable = False
        # each step w -> w s_i of the walk, and its reverse, is an entry of the right table
        src, letter, dst = map(np.concatenate, zip(*steps))
        right = np.empty((len(elements), r), dtype=np.intp)
        right[src, letter] = dst
        right[dst, letter] = src
        self._right = tuple(map(tuple, right.tolist()))  # [t][i - 1]: index of w_t s_i
        self._elements = tuple(elements)
        self._identity = self._elements[0]
        self._w0 = self._elements[-1]
        self.m = self._w0.length

    @functools.cached_property
    def _coroots(self) -> tuple[tuple[Coweight, ...], ...]:
        """[t][i - 1]: w_t . alpha_i^vee, one shared object each, built on first use."""
        return tuple(
            tuple(Coweight(self.cartan, tuple(col)) for col in cols)
            for cols in self._comats.transpose(0, 2, 1).tolist()
        )

    @functools.cached_property
    def _lambdas(self) -> tuple[tuple[Weight, ...], ...]:
        """[t][i - 1]: w_t . Lambda_i, one shared object each, built on first use."""
        return tuple(
            tuple(Weight(self.cartan, tuple(col)) for col in cols)
            for cols in self._mats.transpose(0, 2, 1).tolist()
        )

    @functools.cached_property
    def _ascents(self) -> np.ndarray:
        """[t][i - 1]: whether l(w_t s_i) > l(w_t), that is w_t.alpha_i^vee > 0."""
        return (self._comats >= 0).all(axis=1)

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
        return self._elements[self._right[self._row(w)][i - 1]]

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
        return self._lambdas[self._row(w)][i - 1]

    def w_coroot(self, w: WeylElement, i: int) -> Coweight:
        """w . alpha_i^vee (column i of the coweight action matrix)."""
        self.cartan._check_index(i)
        return self._coroots[self._row(w)][i - 1]

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
                (i, els[u]) for i, u in enumerate(self._right[t], 1) if els[u].length < w.length
            ]
            words = sorted(head + (i,) for i, u in lower for head in self.reduced_words(u))
            memo[t] = tuple(words) if lower else ((),)  # the identity has no descents
        return memo[t]

    @property
    def reference_word(self) -> tuple[int, ...]:
        return self._w0.word

    def word_data(self, word) -> WordData:
        word = tuple(word)
        cached = self._word_data.get(word)
        if cached is not None:
            return cached
        if len(word) != self.m:
            raise ValueError(f"need a reduced word for w0 of length {self.m}, got {word}")
        path = [0]  # element indices of the prefixes
        for i in word:
            self.cartan._check_index(i)
            path.append(self._right[path[-1]][i - 1])
        if path[-1] != len(self._elements) - 1:
            raise ValueError(f"{word} is not a word for the longest element")
        # m letters whose product is w0 form a reduced word
        coroots = tuple(self._coroots[path[k]][i - 1] for k, i in enumerate(word))
        gammas = tuple(self._lambdas[path[k + 1]][i - 1] for k, i in enumerate(word))
        if len({b.coords for b in coroots}) != self.m:
            raise RuntimeError(f"reduced word {word} repeats a coroot in its coroot sequence")
        prefixes = tuple(self._elements[t] for t in path)
        data = WordData(word, prefixes, coroots, gammas)
        self._word_data[word] = data
        return data

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
        ``_chamber_array[t][i - 1]`` is the chamber index of w_t . Lambda_i."""
        if self._chambers is None:
            chambers, index = [], []
            for i in range(self.rank):
                rows = self._mats[:, :, i]
                _, first, at = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
                index.append(at + len(chambers))
                chambers += [
                    ChamberWeight(Weight(self.cartan, tuple(c)), i + 1)
                    for c in rows[first].tolist()
                ]
            self._chamber_index = {c.weight.coords: x for x, c in enumerate(chambers)}
            if len(self._chamber_index) < len(chambers):
                raise RuntimeError("the orbits of two fundamental weights meet")
            self._chamber_array = np.stack(index, axis=1)
            self._chamber_array.flags.writeable = False
            self._chambers = tuple(chambers)
        return self._chambers

    def chamber_index(self, coords: tuple[int, ...]) -> int:
        self.chamber_weights()
        return self._chamber_index[coords]

    def weyl_orbit(self, lam: Weight) -> tuple[Weight, ...]:
        images = self._mats @ np.array(self._coords(lam, Weight), dtype=object)
        return tuple(Weight(self.cartan, c) for c in sorted(set(map(tuple, images.tolist()))))

    # -- 2-faces ----------------------------------------------------------

    def two_faces(
        self, kinds: tuple[str, ...] = ("rectangle", "hexagon", "octagon")
    ) -> tuple[Face, ...]:
        if self._faces is None:
            faces = []
            for i in range(1, self.rank + 1):
                for j in range(i + 1, self.rank + 1):
                    prod = self.cartan.entry(i, j) * self.cartan.entry(j, i)
                    if prod == 0:
                        kind, pair = "rectangle", (i, j)
                    elif prod == 1:
                        kind, pair = "hexagon", (i, j)
                    else:
                        # orient octagons so that a_ij = -1, a_ji = -2
                        pair = (i, j) if self.cartan.entry(i, j) == -1 else (j, i)
                        kind = "octagon"
                    for t in np.flatnonzero(self._ascents[:, [i - 1, j - 1]].all(1)).tolist():
                        faces.append(Face(self._elements[t], pair[0], pair[1], kind))
            self._faces = tuple(faces)
        return tuple(f for f in self._faces if f.kind in kinds)

    # -- braid graph -------------------------------------------------------

    def braid_order(self, i: int, j: int) -> int:
        """Order of s_i s_j: 2, 3 or 4 for a_ij a_ji = 0, 1, 2."""
        prod = self.cartan.entry(i, j) * self.cartan.entry(j, i)
        return {0: 2, 1: 3, 2: 4}[prod]

    def braid_graph(self) -> BraidGraph:
        if self._braid_graph is None:
            words = self.reduced_words(self._w0)
            node_set = set(words)
            adjacency = {}
            for word in words:
                out = []
                for k in range(self.m - 1):
                    x, y = word[k], word[k + 1]
                    d = self.braid_order(x, y)
                    if k + d > self.m:
                        continue
                    window = word[k : k + d]
                    alt = tuple(x if t % 2 == 0 else y for t in range(d))
                    if window != alt:
                        continue
                    flipped = tuple(y if t % 2 == 0 else x for t in range(d))
                    dst = word[:k] + flipped + word[k + d :]
                    if dst not in node_set:
                        raise RuntimeError(
                            f"braid move at {k} of {word} gives {dst}, not a reduced word of w0"
                        )
                    out.append(BraidEdge(word, dst, k, d))
                adjacency[word] = tuple(out)
            self._braid_graph = BraidGraph(words, adjacency)
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
        if mu.cartan != self.cartan:
            raise ValueError("coweight belongs to a different Cartan datum")
        key = mu.coords
        if key not in self._kpf:
            if not mu.is_nonneg():
                self._kpf[key] = 0
            else:
                target = np.array(key, dtype=np.int64)
                self._kpf[key] = int(
                    _kernels.count_nonneg_combinations(self._parts_matrix(), target)
                )
        return self._kpf[key]


@functools.lru_cache(maxsize=None)
def weyl_group(cartan: CartanDatum) -> WeylGroup:
    return WeylGroup(cartan)

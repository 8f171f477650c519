"""Weyl groups, reduced words, chamber weights and 2-faces, in exact integers.

A group element is carried as its integer action matrix on the weight lattice
(column i is w.Lambda_i) together with the contragredient matrix acting on
coweights (column i is w.alpha_i^vee).  The two stay dual, which is what makes
chamber-weight bookkeeping cheap: {w.Lambda_i} and {w.alpha_i^vee} are dual
bases for every w.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .cartan import CartanDatum, Coweight, Weight

Matrix = tuple[tuple[int, ...], ...]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    r = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(r)) for j in range(r)) for i in range(r)
    )


def _mat_vec(a: Matrix, v) -> tuple[int, ...]:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def _transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


@dataclass(frozen=True)
class WeylElement:
    """Group element; equality and hashing go through the action matrix."""

    cartan: CartanDatum
    mat: Matrix = field(repr=False)
    comat: Matrix = field(repr=False, compare=False)
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
        self._reduced_words: dict[WeylElement, tuple[tuple[int, ...], ...]] = {}
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
        """One breadth-first walk by right multiplication.

        Each new element takes the word of the element it is first reached
        from plus the letter.  Elements of one length are walked in the order
        of their lexicographically least reduced words, so the next length
        is discovered in that order too and each word found first is the
        least one: the elements come out sorted by (length, word).
        """
        r = self.rank
        a = self.cartan.a
        # s_i Lambda_j = Lambda_j - delta_ij alpha_i, and alpha_i is column i of a
        gen_mats = tuple(
            tuple(tuple(int(k == j) - (j == i) * a[k][i] for j in range(r)) for k in range(r))
            for i in range(r)
        )
        self._gen_mats = gen_mats
        gen_comats = tuple(_transpose(m) for m in gen_mats)

        ident = tuple(tuple(int(k == j) for j in range(r)) for k in range(r))
        elements = [WeylElement(self.cartan, ident, ident, (), 0)]
        by_mat = {ident: 0}
        right = []
        for w in elements:  # the list grows while it is walked: a FIFO queue
            row = []
            for i in range(r):
                mat = _mat_mul(w.mat, gen_mats[i])
                t = by_mat.get(mat)
                if t is None:
                    t = by_mat[mat] = len(elements)
                    comat = _mat_mul(w.comat, gen_comats[i])
                    elements.append(
                        WeylElement(self.cartan, mat, comat, w.word + (i + 1,), w.length + 1)
                    )
                row.append(t)
            right.append(tuple(row))
        self._elements = tuple(elements)
        self._by_mat = by_mat  # action matrix -> element index
        self._index = {w: t for t, w in enumerate(elements)}
        self._right = tuple(right)  # [t][i - 1]: element index of w_t s_i
        self._identity = elements[0]
        self._w0 = elements[-1]
        if elements[-2].length == self._w0.length:
            raise RuntimeError(
                f"longest element is not unique: {elements[-2]} and {self._w0} "
                f"both have length {self._w0.length}"
            )
        self.m = self._w0.length

    @functools.cached_property
    def _coroots(self) -> tuple[tuple[Coweight, ...], ...]:
        """[t][i - 1]: w_t . alpha_i^vee, one shared object each, built on first use."""
        return tuple(
            tuple(Coweight(self.cartan, col) for col in zip(*w.comat)) for w in self._elements
        )

    @functools.cached_property
    def _lambdas(self) -> tuple[tuple[Weight, ...], ...]:
        """[t][i - 1]: w_t . Lambda_i, one shared object each, built on first use."""
        return tuple(
            tuple(Weight(self.cartan, col) for col in zip(*w.mat)) for w in self._elements
        )

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
        return self._elements[self._right[self._index[w]][i - 1]]

    def inverse(self, w: WeylElement) -> WeylElement:
        # comat = (mat^{-1})^T, so the inverse matrix is free
        return self._elements[self._by_mat[_transpose(w.comat)]]

    def from_word(self, word) -> WeylElement:
        w = self._identity
        for i in word:
            w = self.right(w, i)
        return w

    def _coords(self, vec, kind) -> tuple[int, ...]:
        if not isinstance(vec, kind):
            raise TypeError(f"expected a {kind.__name__}, got {type(vec).__name__}")
        if vec.cartan != self.cartan:
            raise ValueError(f"{kind.__name__.lower()} belongs to a different Cartan datum")
        return vec.coords

    def apply(self, w: WeylElement, lam: Weight) -> Weight:
        return Weight(self.cartan, _mat_vec(w.mat, self._coords(lam, Weight)))

    def apply_coweight(self, w: WeylElement, mu: Coweight) -> Coweight:
        return Coweight(self.cartan, _mat_vec(w.comat, self._coords(mu, Coweight)))

    def w_lambda(self, w: WeylElement, i: int) -> Weight:
        """The chamber weight w . Lambda_i (column i of the action matrix)."""
        self.cartan._check_index(i)
        return self._lambdas[self._index[w]][i - 1]

    def w_coroot(self, w: WeylElement, i: int) -> Coweight:
        """w . alpha_i^vee (column i of the coweight action matrix)."""
        self.cartan._check_index(i)
        return self._coroots[self._index[w]][i - 1]

    # -- reduced words and word data ------------------------------------

    def reduced_words(self, w: WeylElement) -> tuple[tuple[int, ...], ...]:
        """All reduced words of w, lexicographically sorted.

        The words of w are the words of w s_i followed by i, over the right
        descents i of w (those with l(w s_i) < l(w)).
        """
        memo = self._reduced_words
        if w not in memo:
            els = self._elements
            lower = [
                (i, els[t])
                for i, t in enumerate(self._right[self._index[w]], 1)
                if els[t].length < w.length
            ]
            words = sorted(head + (i,) for i, u in lower for head in self.reduced_words(u))
            memo[w] = tuple(words) if lower else ((),)  # the identity has no descents
        return memo[w]

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
        if self._chambers is None:
            seen: dict[tuple[int, ...], int] = {}
            for i in range(1, self.rank + 1):
                for lam in self.weyl_orbit(self.cartan.fundamental_weight(i)):
                    if lam.coords in seen:
                        raise RuntimeError(
                            f"weight {lam.coords} lies in the orbits of fundamental weights "
                            f"{seen[lam.coords]} and {i}"
                        )
                    seen[lam.coords] = i
            chambers = tuple(
                ChamberWeight(Weight(self.cartan, coords), level)
                for coords, level in sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
            )
            self._chambers = chambers
            self._chamber_index = {c.weight.coords: t for t, c in enumerate(chambers)}
        return self._chambers

    def chamber_index(self, coords: tuple[int, ...]) -> int:
        self.chamber_weights()
        return self._chamber_index[coords]

    def weyl_orbit(self, lam: Weight) -> tuple[Weight, ...]:
        if not isinstance(lam, Weight):
            raise TypeError("weyl_orbit acts on weights; apply_coweight handles coweights")
        seen = {lam.coords}
        queue = deque([lam.coords])
        while queue:
            coords = queue.popleft()
            for i in range(self.rank):
                nxt = _mat_vec(self._gen_mats[i], coords)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return tuple(Weight(self.cartan, c) for c in sorted(seen))

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
                    for w in self._elements:
                        if self.right(w, i).length > w.length and self.right(w, j).length > w.length:
                            faces.append(Face(w, pair[0], pair[1], kind))
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

"""Cartan data and the weight/coweight lattices for the classical types A-D.

Conventions used throughout the package:

* weights are integer vectors in the fundamental-weight basis;
* coweights are integer vectors in the simple-coroot basis;
* the pairing of a coweight with a weight is then the plain dot product,
  because <alpha_i^vee, Lambda_j> = delta_ij;
* the simple root alpha_i, read as a weight, is the i-th column of the
  Cartan matrix, so a coweight is dominant iff its pairing with every
  column is nonnegative.

Everything Weyl-group shaped lives in :mod:`mvpolytopes.weyl`.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass

MAX_RANK_ENV = "MVPOLY_MAX_RANK"
DEFAULT_MAX_RANK = 4


def max_rank() -> int:
    """Rank cap for build_cartan, overridable via the MVPOLY_MAX_RANK env var."""
    raw = os.environ.get(MAX_RANK_ENV)
    if raw is None:
        return DEFAULT_MAX_RANK
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_RANK_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{MAX_RANK_ENV} must be positive, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class CartanDatum:
    """An indecomposable Cartan matrix of type A-D with its label.

    :func:`build_cartan` returns one instance per (family, rank), so data
    compare by identity first; equal data built by hand still compare equal
    by value.  The hash is computed once, at construction, and is not
    pickled: str hashes differ from one process to the next, so an unpickled
    datum computes its own.
    """

    family: str
    rank: int
    a: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.family, self.rank, self.a)))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not CartanDatum:
            return NotImplemented
        return self._hash == other._hash and (
            (self.family, self.rank, self.a) == (other.family, other.rank, other.a)
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return CartanDatum, (self.family, self.rank, self.a)

    def entry(self, i: int, j: int) -> int:
        """Matrix entry a_{ij}, indices 1-based."""
        self._check_index(i)
        self._check_index(j)
        return self.a[i - 1][j - 1]

    def fundamental_weight(self, i: int) -> "Weight":
        self._check_index(i)
        return Weight(self, tuple(1 if k == i - 1 else 0 for k in range(self.rank)))

    def simple_root(self, i: int) -> "Weight":
        """alpha_i as a weight: the i-th column of the Cartan matrix."""
        self._check_index(i)
        return Weight(self, tuple(row[i - 1] for row in self.a))

    def zero_coweight(self) -> "Coweight":
        return Coweight(self, (0,) * self.rank)

    def weight(self, coords) -> "Weight":
        return Weight(self, tuple(coords))

    def coweight(self, coords) -> "Coweight":
        return Coweight(self, tuple(coords))

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise IndexError(f"simple index {i} out of range 1..{self.rank}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CartanDatum({self.family}{self.rank})"


def _integer(v, what: str) -> int:
    """v as an ``int``, if it is an integer; ``TypeError`` naming ``what`` if not.

    Unlike ``int(v)`` this refuses floats, strings and ``bool``.
    """
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {v!r}")


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, entry k checked by :func:`_integer` as
    ``what`` k.  A tuple of plain ints, the common case, is returned as it is;
    the first entry of another type sends every entry through :func:`_integer`."""
    if type(values) is not tuple:
        values = tuple(values)
    for v in values:
        if type(v) is not int:
            return tuple(_integer(v, f"{what} {k}") for k, v in enumerate(values))
    return values


@dataclass(frozen=True)
class _Vector:
    """Integer vector over a Cartan datum; the subclass names the basis."""

    cartan: CartanDatum
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", _integers(self.coords, "coordinate"))
        if len(self.coords) != self.cartan.rank:
            raise ValueError(f"{type(self).__name__.lower()} length does not match rank")

    def _other_coords(self, other) -> tuple[int, ...]:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if other.cartan != self.cartan:
            raise ValueError("operands belong to different Cartan data")
        return other.coords

    def __add__(self, other):
        b = self._other_coords(other)
        return type(self)(self.cartan, tuple(x + y for x, y in zip(self.coords, b)))

    def __sub__(self, other):
        b = self._other_coords(other)
        return type(self)(self.cartan, tuple(x - y for x, y in zip(self.coords, b)))

    def __neg__(self):
        return type(self)(self.cartan, tuple(-x for x in self.coords))

    def __mul__(self, k: int):
        return type(self)(self.cartan, tuple(k * x for x in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


class Weight(_Vector):
    """Integer vector in the fundamental-weight basis."""


class Coweight(_Vector):
    """Integer vector in the simple-coroot basis."""

    def is_nonneg(self) -> bool:
        """Nonnegative in the coroot-coordinate partial order (mu >= 0)."""
        return all(c >= 0 for c in self.coords)

    def is_dominant(self) -> bool:
        """Nonnegative pairing with every simple root."""
        a = self.cartan.a
        r = self.cartan.rank
        return all(sum(self.coords[k] * a[k][j] for k in range(r)) >= 0 for j in range(r))


def pairing(mu: Coweight, lam: Weight) -> int:
    """<mu, lam>: dot product of coroot coordinates with weight coordinates."""
    if not isinstance(mu, Coweight) or not isinstance(lam, Weight):
        raise TypeError("pairing takes a coweight first and a weight second")
    if mu.cartan != lam.cartan:
        raise ValueError("operands belong to different Cartan data")
    return sum(a * b for a, b in zip(mu.coords, lam.coords))


def _chain(rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    return a


# build_cartan's data, by (family, rank): one instance each
_BUILT: dict[tuple[str, int], CartanDatum] = {}


def build_cartan(family: str, rank: int) -> CartanDatum:
    """Standard Cartan matrix for the given family and rank.

    B and C at rank 2 are the same abstract datum [[2,-1],[-2,2]] under either
    label; for rank >= 3 the doubly-laced pair sits at the (r-1, r) end, with
    a_{r-1,r} = -1, a_{r,r-1} = -2 for B and the transpose for C.  G is
    rejected (triple bonds are out of scope), as is any rank above the cap
    (default 4, override with the MVPOLY_MAX_RANK environment variable).
    Every call checks the cap and returns the same instance for the same
    family and rank.
    """
    fam = str(family).strip().upper()
    if fam == "G":
        raise ValueError("type G is not supported: entries a_ij = -3 are excluded")
    if fam not in ("A", "B", "C", "D"):
        raise ValueError(f"unsupported family {family!r}; expected one of A, B, C, D")
    rank = _integer(rank, "rank")
    if rank < 1:
        raise ValueError("rank must be a positive integer")
    cap = max_rank()
    if rank > cap:
        raise ValueError(
            f"rank {rank} exceeds the cap {cap}; raise it via {MAX_RANK_ENV} if you mean it"
        )
    if fam in ("B", "C") and rank < 2:
        raise ValueError(f"type {fam} needs rank >= 2")
    if fam == "D" and rank < 3:
        raise ValueError("type D needs rank >= 3 (D2 would be decomposable A1 x A1)")
    built = _BUILT.get((fam, rank))
    if built is not None:
        return built

    a = _chain(rank)
    if fam in ("B", "C") and rank >= 2:
        # doubly-laced bond at the tail; rank 2 is the common abstract datum
        if fam == "B" or rank == 2:
            a[rank - 2][rank - 1] = -1
            a[rank - 1][rank - 2] = -2
        else:
            a[rank - 2][rank - 1] = -2
            a[rank - 1][rank - 2] = -1
    elif fam == "D":
        a[rank - 2][rank - 1] = 0
        a[rank - 1][rank - 2] = 0
        a[rank - 3][rank - 1] = -1
        a[rank - 1][rank - 3] = -1
    built = _BUILT[fam, rank] = CartanDatum(fam, rank, tuple(tuple(row) for row in a))
    return built

"""Type A specifics: subset labels, interval pictures, and the collapse that
deletes one index from [n].

Chamber weights of the rank n-1 group correspond to proper nonempty subsets
S of {1..n}; positive coroots correspond to pairs (a, b) via intervals, and a
"picture" assigns a multiplicity to each pair.  Deleting index k collapses a
picture on [n] to one on [n] minus k, which matches reading edge lengths along
the facet path of the polytope; both routes are implemented so they can be
played against each other.
"""

from __future__ import annotations

from . import bz
from .cartan import _integer, _integers
from .weyl import WeylGroup

Pair = tuple[int, int]

# The largest n that collapse takes.  Its recursion visits every pair of [n]
# and sums a window of pairs for each, so its time grows as n^3: about 0.04 s
# at n = 100 and 0.33 s at n = 200 on a 2-vCPU Xeon VM.  A larger n is
# refused before any pair is built.
MAX_N = 200


def ak_word(n: int) -> tuple[int, ...]:
    """(1..n-1, 1..n-2, ..., 1); its coroot sequence lists pairs of [n] in
    lexicographic order."""
    if n < 2:
        raise ValueError("need n >= 2")
    out: list[int] = []
    for top in range(n - 1, 0, -1):
        out.extend(range(1, top + 1))
    return tuple(out)


def all_pairs(n: int) -> tuple[Pair, ...]:
    return tuple((a, b) for a in range(1, n) for b in range(a + 1, n + 1))


def pair_of_coroot(coords) -> Pair:
    """Interval pair of a positive coroot: ones exactly at positions a..b-1."""
    ones = [j + 1 for j, v in enumerate(coords) if v == 1]
    if not ones or any(v not in (0, 1) for v in coords):
        raise ValueError(f"not an interval coroot: {coords}")
    a, top = ones[0], ones[-1]
    if ones != list(range(a, top + 1)):
        raise ValueError(f"not an interval coroot: {coords}")
    return (a, top + 1)


def subset_coords(n: int, subset) -> tuple[int, ...]:
    """Chamber-weight coordinates of a proper nonempty subset of {1..n}."""
    s = set(subset)
    if not s or not s < set(range(1, n + 1)):
        raise ValueError(f"need a proper nonempty subset of 1..{n}, got {sorted(s)}")
    return tuple(
        (1 if j in s else 0) - (1 if j + 1 in s else 0) for j in range(1, n)
    )


def subset_of_coords(n: int, coords) -> tuple[int, ...]:
    """Inverse of subset_coords: recover the subset from coordinates."""
    coords = tuple(coords)
    if len(coords) != n - 1:
        raise ValueError("coordinate length must be n - 1")
    suffix = [0] * (n + 1)
    for j in range(n - 1, 0, -1):
        suffix[j] = suffix[j + 1] + coords[j - 1]
    for last in (0, 1):
        ind = [suffix[j] + last for j in range(1, n + 1)]
        if all(v in (0, 1) for v in ind) and 0 < sum(ind) < n:
            return tuple(j for j, v in zip(range(1, n + 1), ind) if v)
    raise ValueError(f"{coords} is not a chamber weight of a proper subset")


def subset_key(subset) -> str:
    """Compact digit-string label; only defined for n <= 10."""
    s = sorted(set(subset))
    if any(j > 10 for j in s):
        raise ValueError("subset keys need n <= 10")
    return "".join("0" if j == 10 else str(j) for j in s)


def subset_from_key(key: str) -> tuple[int, ...]:
    return tuple(sorted(10 if ch == "0" else int(ch) for ch in key))


def picture_to_lusztig(n: int, picture: dict) -> tuple[int, ...]:
    """Pair-indexed multiplicities to a vector along the standard word;
    missing pairs count zero."""
    allowed = set(all_pairs(n))
    vals = {}
    for key, v in picture.items():
        pair = _integers(key, f"pair {key!r}: entry")
        if pair not in allowed:
            raise ValueError(f"{pair} is not a pair of 1..{n}")
        v = _integer(v, f"multiplicity at {pair}")
        if v < 0:
            raise ValueError(f"multiplicity at {pair} must be nonnegative")
        vals[pair] = vals.get(pair, 0) + v
    return tuple(vals.get(p, 0) for p in all_pairs(n))


def collapse(n: int, k: int, picture: dict) -> dict[Pair, int]:
    """Delete index k from a picture on [n], by the straightening recursion.

    Pairs on one side of k keep their multiplicity; pairs (a, b) with
    a < k < b are recomputed in order of increasing width, and pairs touching
    k are dropped.
    """
    if n > MAX_N:
        raise ValueError(f"collapse takes n up to {MAX_N}, got n = {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    vec = picture_to_lusztig(n, picture)
    p = dict(zip(all_pairs(n), vec))
    new: dict[Pair, int] = {}
    for a in range(1, n + 1):
        if a != k:
            new[(a, k) if a < k else (k, a)] = 0
    for width in range(1, n):
        for a in range(1, n - width + 1):
            b = a + width
            if k in (a, b):
                continue
            if a < k < b:
                left = sum(p[(a, r)] - new[(a, r)] for r in range(k, b))
                right = sum(p[(s, b)] - new[(s, b)] for s in range(a + 1, k + 1))
                val = min(left, right)
            else:
                val = p[(a, b)]
            if val < 0:
                raise RuntimeError(
                    f"collapse of {k} gave the pair {(a, b)} the negative multiplicity {val}"
                )
            new[(a, b)] = val
    return {
        pair: v for pair, v in new.items() if k not in pair
    }


def facet_lusztig(group: WeylGroup, k: int, picture: dict) -> dict[Pair, int]:
    """Edge lengths along the facet path avoiding index k; the geometric
    counterpart of collapse, read in one walk along the path."""
    n = group.rank + 1
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    vec = picture_to_lusztig(n, picture)
    datum = bz.from_lusztig(group, ak_word(n), vec)
    els, ascent, item = group.elements(), group._ascents.item, group._right_array.item
    word = ak_word(n - 1) if n >= 3 else ()
    path, pairs = [group.from_word(range(k, n)).index], []
    for l in word:
        t = path[-1]
        if not ascent(t, l - 1):
            raise RuntimeError(f"facet path for k={k}: s_{l} after {els[t]} is not reduced")
        pair = pair_of_coroot(tuple(group._comats[t, :, l - 1].tolist()))
        if k in pair or pair in pairs:
            raise RuntimeError(f"facet path for k={k}: unexpected leg {pair} at {els[t]}, s_{l}")
        pairs.append(pair)
        path.append(item(t, l - 1))
    out = dict(zip(pairs, bz._lengths(group, datum.values, path, word)))
    expected = {pair for pair in all_pairs(n) if k not in pair}
    if set(out) != expected:
        raise RuntimeError(f"facet path for k={k} missed the pairs {sorted(expected - set(out))}")
    return out

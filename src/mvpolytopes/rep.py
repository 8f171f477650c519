"""Weight multiplicities and tensor product multiplicities.

Primary routes: a multiplicity is the number of MV polytopes of one total
coweight that, translated by a coweight, fit inside a Weyl polytope; that is,
whose values are at least a lower bound at the chamber weights.
:func:`_count_inside` is that one count.  Oracle routes: alternating sums of
partition-function values over the Weyl group, and the product formula for
dimensions.  The weight oracle is one product of the coweight-action stack
that gives every term's argument at once, and it evaluates the partition
function only at the arguments that are nonnegative and even; the tensor
oracle walks the terms of :func:`_alternating`.  The counts read polytopes
and the oracles do not, so each checks the other, and the command line can
cross-check them.

All highest weights here are dominant coweights with integer coordinates in
the simple-coroot basis; the doubled-weight trick (working with 2*lambda plus
the sum of positive coroots) keeps every intermediate vector integral even
when the Weyl vector itself is not.  The array sums run in int64 while
:func:`cones.exact_dtype` bounds them below 2**62 and on Python ints beyond,
so no count wraps.

Each public route checks each argument once, on entry: its type, its Cartan
datum and, for a highest weight, dominance; the errors name the argument.
The polytope counts and the Kostant sum then work on coordinate tuples and
int arrays, and make no ``Coweight``; Steinberg's double sum and
:func:`weyl_dim` still compute on the objects.  Differences and shifts are
tuple sums, the Weyl thresholds are w0's row of the coweight-action stack
times lambda, and the Kostant rows go to the partition function's memo as
tuple keys.  The values of the polytopes of one total coweight are a
read-only ``(N, chambers)`` array, built once per key in the ``enumerate_mv``
cache beside their data, and a count compares it unchanged with its lower
bound less the shift's pairings.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import polytope
from .cartan import Coweight, pairing
from .cones import exact_dtype
from .weyl import WeylGroup


def _checked(group: WeylGroup, name: str, mu: Coweight) -> tuple[int, ...]:
    """The coordinates of the argument ``name``, a coweight of the group's
    Cartan datum; ``TypeError`` or ``ValueError`` naming it if not."""
    try:
        return group._coords(mu, Coweight)
    except TypeError:
        raise TypeError(f"{name} must be a Coweight, got {type(mu).__name__}") from None
    except ValueError:
        raise ValueError(
            f"{name}={mu.coords} and the group belong to different Cartan data"
        ) from None


def _require_dominant(group: WeylGroup, name: str, mu: Coweight) -> tuple[int, ...]:
    """:func:`_checked`, and ``ValueError`` if the coweight is not dominant."""
    coords = _checked(group, name, mu)
    if not mu.is_dominant():
        raise ValueError(f"{name}={coords} must be a dominant coweight")
    return coords


def _dtype(group: WeylGroup, *vectors) -> type:
    """The dtype of a count whose vectors are ``vectors``: int64 while every
    entry stays below 2**62, else ``object`` (Python ints).

    Every vertex of a polytope of ``enumerate_mv(group, diff)`` lies in the
    box [0, diff] of simple-coroot coordinates (its edges go up by positive
    coroots), so its values are pairings bounded by A * r * max|diff|, where
    A is max|chamber coordinate|.  A Weyl threshold (a row of w0's coweight
    action times lambda) and a pairing with nu minus an entry of mu are each
    at most (A * r + 1) times the largest entry of ``vectors``, and a lower
    bound less a chamber weight's pairing with the shift at most
    (2 * A * r + 1) times it.  So with ``diff`` and lambda among ``vectors``,
    the value array, the shift product and the bounds stay below 2**63
    whenever this picks int64 (``size * 2 * A * r < 2**62``), and they are
    exact in the dtype this picks.
    """
    size = max(abs(c) for vec in vectors for c in vec)
    return exact_dtype(size, 2 * group._action_max * group.rank)


def _thresholds(group: WeylGroup, lam: tuple[int, ...], dtype) -> np.ndarray:
    """The Weyl thresholds of :func:`polytope.weyl_thresholds`, w0 . lam, as
    the w0 row of the coweight-action stack times lam."""
    return group._comats[-1].astype(dtype, copy=False) @ np.array(lam, dtype=dtype)


def _weight_query(group: WeylGroup, lam: Coweight, mu: Coweight):
    """The checked coordinates of lam - mu and of mu, and the Weyl thresholds
    of lam as an array in the dtype of the weight count."""
    lam, mu = _require_dominant(group, "lambda", lam), _checked(group, "mu", mu)
    diff = tuple([a - b for a, b in zip(lam, mu)])
    return diff, mu, _thresholds(group, lam, _dtype(group, diff, lam, mu))


def _count_inside(
    group: WeylGroup, diff: tuple, shift: tuple, lower: np.ndarray, cols=slice(None)
) -> int:
    """Number of polytopes of ``enumerate_mv`` at the coordinates ``diff``
    whose values, translated by ``shift`` (M_gamma + <shift, gamma>), are at
    least ``lower`` at the chamber weights ``cols`` (all of them by default).
    The translation moves to the bound, so the cached value array is compared
    as it is; the sums run in ``lower``'s dtype, which :func:`_dtype` picks."""
    if min(diff) < 0:
        return 0
    values = polytope._enumerated(group, diff)[1]
    dtype = lower.dtype
    coords = group._chamber_coords[cols].astype(dtype, copy=False)
    bound = lower - coords @ np.array(shift, dtype=dtype)
    return int((values[:, cols].astype(dtype, copy=False) >= bound).all(axis=1).sum())


def weight_mult_mv(group: WeylGroup, lam: Coweight, mu: Coweight) -> int:
    """Multiplicity of weight mu in the highest-weight module of lam.

    Counts polytopes of total coweight lam - mu that, once translated by mu,
    stay inside the convex hull of the orbit of lam.
    """
    diff, mu, thresholds = _weight_query(group, lam, mu)
    group.chamber_weights()  # builds _chamber_levels on first use
    return _count_inside(group, diff, mu, thresholds[group._chamber_levels - 1])


def weight_mult_canonical(group: WeylGroup, lam: Coweight, mu: Coweight) -> int:
    """Same count, but testing only the r chamber weights w0 s_i . Lambda_i,
    whose level is i."""
    diff, mu, thresholds = _weight_query(group, lam, mu)
    return _count_inside(group, diff, mu, thresholds, group._canonical_cols)


def tensor_mult_mv(group: WeylGroup, lam: Coweight, mu: Coweight, nu: Coweight) -> int:
    """Multiplicity of the nu-module inside the tensor product lam (x) mu.

    Counts polytopes of total coweight lam + mu - nu that, translated by
    nu - mu, lie in conv(W.lam) and have values at least
    <nu, gamma> - mu_{level(gamma)}.
    """
    lam = _require_dominant(group, "lambda", lam)
    mu = _require_dominant(group, "mu", mu)
    nu = _require_dominant(group, "nu", nu)
    diff = tuple([a + b - c for a, b, c in zip(lam, mu, nu)])
    shift = tuple([c - b for b, c in zip(mu, nu)])
    dtype = _dtype(group, diff, shift, lam, mu, nu)
    group.chamber_weights()  # builds _chamber_coords and _chamber_levels on first use
    levels = group._chamber_levels - 1
    coords = group._chamber_coords.astype(dtype, copy=False)
    lower = np.maximum(
        _thresholds(group, lam, dtype)[levels],
        coords @ np.array(nu, dtype=dtype) - np.array(mu, dtype=dtype)[levels],
    )
    return _count_inside(group, diff, shift, lower)


# -- oracle routes -------------------------------------------------------------


def _kpf_halved(group: WeylGroup, doubled: Coweight) -> int:
    """Partition-function value at doubled/2, or 0 when doubled is odd."""
    if any(c % 2 for c in doubled.coords):
        return 0
    return group.kpf(group.cartan.coweight(tuple(c // 2 for c in doubled.coords)))


def _alternating(group: WeylGroup, base: Coweight) -> list[tuple[int, Coweight]]:
    """The terms (-1)^l(w) and w . base, for every w in W."""
    return [((-1) ** w.length, group.apply_coweight(w, base)) for w in group.elements()]


def kostant_weight_mult(group: WeylGroup, lam: Coweight, mu: Coweight) -> int:
    """Alternating partition-function formula for the weight multiplicity:
    the sum over w of (-1)^l(w) P((w(2 lam + T) - (T + 2 mu)) / 2).

    One product of the coweight-action stack gives every argument, each
    entry a sum of r products bounded by max|w . alpha_i^vee| * max|2 lam + T|,
    minus an entry of T + 2 mu; :func:`cones.exact_dtype` bounds both, so the
    arguments are exact in int64 or Python ints.  P vanishes off the
    nonnegative cone and the argument is halved, so only the nonnegative even
    rows are evaluated.
    """
    lam, mu = _require_dominant(group, "lambda", lam), _checked(group, "mu", mu)
    T = group.two_rho.coords
    base = tuple([2 * a + t for a, t in zip(lam, T)])
    fixed = tuple([t + 2 * b for t, b in zip(T, mu)])
    dtype = exact_dtype(max(map(abs, base + fixed)), group._action_max * group.rank + 1)
    args = group._comats.astype(dtype, copy=False) @ np.array(base, dtype=dtype)
    args -= np.array(fixed, dtype=dtype)
    keep = ((args >= 0) & (args % 2 == 0)).all(axis=1)
    kpf = group._kpf_at
    return sum(
        sign * kpf(tuple(row))
        for sign, row in zip(group._signs[keep].tolist(), (args[keep] // 2).tolist())
    )


def steinberg_tensor_mult(
    group: WeylGroup, lam: Coweight, mu: Coweight, nu: Coweight
) -> int:
    """Double alternating sum for the tensor multiplicity."""
    _require_dominant(group, "lambda", lam)
    _require_dominant(group, "mu", mu)
    _require_dominant(group, "nu", nu)
    T = group.two_rho
    fixed = 2 * nu + 2 * T
    mterms = _alternating(group, 2 * mu + T)
    return sum(
        sw * sv * _kpf_halved(group, wl + vm - fixed)
        for sw, wl in _alternating(group, 2 * lam + T)
        for sv, vm in mterms
    )


def weyl_dim(group: WeylGroup, lam: Coweight) -> int:
    """Dimension of the highest-weight module, by the product formula."""
    _require_dominant(group, "lambda", lam)
    T = group.two_rho
    doubled = 2 * lam + T
    out = Fraction(1)
    for beta in group.positive_roots:
        out *= Fraction(pairing(doubled, beta), pairing(T, beta))
    if out.denominator != 1:
        raise RuntimeError(f"dimension product for lambda {lam.coords} is {out}, not an integer")
    return int(out)

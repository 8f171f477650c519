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
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import polytope
from .cartan import Coweight, pairing
from .cones import exact_dtype
from .weyl import WeylGroup


def _require_dominant(name: str, mu: Coweight) -> None:
    if not mu.is_dominant():
        raise ValueError(f"{name}={mu.coords} must be a dominant coweight")


def _dtype(group: WeylGroup, *vectors) -> type:
    """The dtype of a count whose vectors are ``vectors``: int64 while every
    entry stays below 2**62, else ``object`` (Python ints).

    Every vertex of a polytope of ``enumerate_mv(group, diff)`` lies in the
    box [0, diff] of simple-coroot coordinates (its edges go up by positive
    coroots), so its values are pairings bounded by A * r * max|diff|, where
    A is max|chamber coordinate|.  A value plus a chamber weight's pairing
    with the shift, and a pairing with nu minus an entry of mu, are each at
    most 2 * A * r times the largest entry of ``vectors``.  So with ``diff``
    among ``vectors``, the value matrix, the shift product and the lower
    bounds are exact in the dtype this picks.
    """
    size = max(abs(c) for vec in vectors for c in vec)
    return exact_dtype(size, 2 * group._action_max * group.rank)


def _count_inside(
    group: WeylGroup, diff: Coweight, shift: Coweight, lower: np.ndarray, cols=slice(None)
) -> int:
    """Number of polytopes of ``enumerate_mv(group, diff)`` whose values,
    translated by ``shift`` (M_gamma + <shift, gamma>), are at least ``lower``
    at the chamber weights ``cols`` (all of them by default).  The sums run
    in ``lower``'s dtype, which :func:`_dtype` picks."""
    if not diff.is_nonneg():
        return 0
    data = polytope.enumerate_mv(group, diff)
    if not data:
        return 0
    dtype = lower.dtype
    vals = np.array([d.values for d in data], dtype=dtype)[:, cols]
    coords = group._chamber_coords[cols].astype(dtype, copy=False)
    vals += coords @ np.array(shift.coords, dtype=dtype)
    return int((vals >= lower).all(axis=1).sum())


def _weight_thresholds(group: WeylGroup, lam: Coweight, mu: Coweight):
    """lam - mu, and the Weyl thresholds of lam as an array in the dtype of
    the weight count."""
    diff, thresholds = lam - mu, polytope.weyl_thresholds(group, lam)
    return diff, np.array(thresholds, dtype=_dtype(group, diff.coords, mu.coords, thresholds))


def weight_mult_mv(group: WeylGroup, lam: Coweight, mu: Coweight) -> int:
    """Multiplicity of weight mu in the highest-weight module of lam.

    Counts polytopes of total coweight lam - mu that, once translated by mu,
    stay inside the convex hull of the orbit of lam.
    """
    _require_dominant("lambda", lam)
    diff, thresholds = _weight_thresholds(group, lam, mu)
    group.chamber_weights()  # builds _chamber_levels on first use
    return _count_inside(group, diff, mu, thresholds[group._chamber_levels - 1])


def weight_mult_canonical(group: WeylGroup, lam: Coweight, mu: Coweight) -> int:
    """Same count, but testing only the r chamber weights w0 s_i . Lambda_i,
    whose level is i."""
    _require_dominant("lambda", lam)
    diff, thresholds = _weight_thresholds(group, lam, mu)
    group.chamber_weights()  # builds _chamber_array on first use
    letters = np.arange(group.rank)
    cols = group._chamber_array[group._right_array[group.w0.index], letters]
    return _count_inside(group, diff, mu, thresholds, cols)


def tensor_mult_mv(group: WeylGroup, lam: Coweight, mu: Coweight, nu: Coweight) -> int:
    """Multiplicity of the nu-module inside the tensor product lam (x) mu.

    Counts polytopes of total coweight lam + mu - nu that, translated by
    nu - mu, lie in conv(W.lam) and have values at least
    <nu, gamma> - mu_{level(gamma)}.
    """
    _require_dominant("lambda", lam)
    _require_dominant("mu", mu)
    _require_dominant("nu", nu)
    diff, shift = lam + mu - nu, nu - mu
    thresholds = polytope.weyl_thresholds(group, lam)
    dtype = _dtype(group, diff.coords, shift.coords, thresholds, mu.coords, nu.coords)
    group.chamber_weights()  # builds _chamber_coords and _chamber_levels on first use
    levels = group._chamber_levels - 1
    per_level = np.array([thresholds, mu.coords], dtype=dtype)
    coords = group._chamber_coords.astype(dtype, copy=False)
    lower = np.maximum(
        per_level[0, levels], coords @ np.array(nu.coords, dtype=dtype) - per_level[1, levels]
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
    _require_dominant("lambda", lam)
    T = group.two_rho
    # Coweight arithmetic raises for a lambda or mu of another Cartan datum
    base, fixed = (2 * lam + T).coords, (T + 2 * mu).coords
    dtype = exact_dtype(max(map(abs, base + fixed)), group._action_max * group.rank + 1)
    args = group._comats.astype(dtype, copy=False) @ np.array(base, dtype=dtype)
    args -= np.array(fixed, dtype=dtype)
    keep = ((args >= 0) & (args % 2 == 0)).all(axis=1)
    kpf, coweight = group.kpf, group.cartan.coweight
    return sum(
        sign * kpf(coweight(row))
        for sign, row in zip(group._signs[keep].tolist(), (args[keep] // 2).tolist())
    )


def steinberg_tensor_mult(
    group: WeylGroup, lam: Coweight, mu: Coweight, nu: Coweight
) -> int:
    """Double alternating sum for the tensor multiplicity."""
    _require_dominant("lambda", lam)
    _require_dominant("mu", mu)
    _require_dominant("nu", nu)
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
    _require_dominant("lambda", lam)
    T = group.two_rho
    doubled = 2 * lam + T
    out = Fraction(1)
    for beta in group.positive_roots:
        out *= Fraction(pairing(doubled, beta), pairing(T, beta))
    if out.denominator != 1:
        raise RuntimeError(f"dimension product for lambda {lam.coords} is {out}, not an integer")
    return int(out)

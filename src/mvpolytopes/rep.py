"""Weight multiplicities and tensor product multiplicities.

Primary routes: a multiplicity is the number of MV polytopes of one total
coweight that, translated by a coweight, fit inside a Weyl polytope; that is,
whose values are at least a lower bound at the chamber weights.
:func:`_count_inside` is that one count.  Oracle routes: alternating sums of
partition-function values over the Weyl group, whose terms all come from
:func:`_alternating`, and the product formula for dimensions.  The counts read
polytopes and the oracles do not, so each checks the other, and the command
line can cross-check them.

All highest weights here are dominant coweights with integer coordinates in
the simple-coroot basis; the doubled-weight trick (working with 2*lambda plus
the sum of positive coroots) keeps every intermediate vector integral even
when the Weyl vector itself is not.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import polytope
from .cartan import Coweight, pairing
from .weyl import WeylGroup


def _require_dominant(name: str, mu: Coweight) -> None:
    if not mu.is_dominant():
        raise ValueError(f"{name}={mu.coords} must be a dominant coweight")


def _count_inside(
    group: WeylGroup, diff: Coweight, shift: Coweight, lower, cols=slice(None)
) -> int:
    """Number of polytopes of ``enumerate_mv(group, diff)`` whose values,
    translated by ``shift`` (M_gamma + <shift, gamma>), are at least ``lower``
    at the chamber weights ``cols`` (all of them by default)."""
    if not diff.is_nonneg():
        return 0
    data = polytope.enumerate_mv(group, diff)
    if not data:
        return 0
    vals = np.array([d.values for d in data], dtype=np.int64)[:, cols]
    vals += group._chamber_coords[cols] @ shift.coords
    return int((vals >= lower).all(axis=1).sum())


def weight_mult_mv(group: WeylGroup, lam: Coweight, mu: Coweight) -> int:
    """Multiplicity of weight mu in the highest-weight module of lam.

    Counts polytopes of total coweight lam - mu that, once translated by mu,
    stay inside the convex hull of the orbit of lam.
    """
    _require_dominant("lambda", lam)
    group.chamber_weights()  # builds _chamber_levels on first use
    lower = np.array(polytope.weyl_thresholds(group, lam))[group._chamber_levels - 1]
    return _count_inside(group, lam - mu, mu, lower)


def weight_mult_canonical(group: WeylGroup, lam: Coweight, mu: Coweight) -> int:
    """Same count, but testing only the r chamber weights w0 s_i . Lambda_i,
    whose level is i."""
    _require_dominant("lambda", lam)
    group.chamber_weights()  # builds _chamber_array on first use
    letters = np.arange(group.rank)
    cols = group._chamber_array[group._right_array[group.w0.index], letters]
    return _count_inside(group, lam - mu, mu, polytope.weyl_thresholds(group, lam), cols)


def tensor_mult_mv(group: WeylGroup, lam: Coweight, mu: Coweight, nu: Coweight) -> int:
    """Multiplicity of the nu-module inside the tensor product lam (x) mu.

    Counts polytopes of total coweight lam + mu - nu that, translated by
    nu - mu, lie in conv(W.lam) and have values at least
    <nu, gamma> - mu_{level(gamma)}.
    """
    _require_dominant("lambda", lam)
    _require_dominant("mu", mu)
    _require_dominant("nu", nu)
    group.chamber_weights()  # builds _chamber_coords and _chamber_levels on first use
    levels = group._chamber_levels - 1
    per_level = np.array([polytope.weyl_thresholds(group, lam), mu.coords], dtype=np.int64)
    lower = np.maximum(
        per_level[0, levels], group._chamber_coords @ nu.coords - per_level[1, levels]
    )
    return _count_inside(group, lam + mu - nu, nu - mu, lower)


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
    the sum over w of (-1)^l(w) P((w(2 lam + T) - (T + 2 mu)) / 2)."""
    _require_dominant("lambda", lam)
    T = group.two_rho
    fixed = T + 2 * mu
    return sum(
        sign * _kpf_halved(group, image - fixed)
        for sign, image in _alternating(group, 2 * lam + T)
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

"""Weight multiplicities and tensor product multiplicities.

Primary route: count polytopes satisfying containment conditions.  Oracle
routes: alternating sums over the Weyl group (partition-function formulas) and
the product formula for dimensions.  The two routes are independent and the
command line can cross-check them.

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


def _value_matrix(group: WeylGroup, data) -> np.ndarray:
    if not data:
        return np.zeros((0, len(group.chamber_weights())), dtype=np.int64)
    return np.array([d.values for d in data], dtype=np.int64)


def _gamma_matrix(group: WeylGroup) -> np.ndarray:
    return np.array(
        [c.weight.coords for c in group.chamber_weights()], dtype=np.int64
    )


def _level_thresholds(group: WeylGroup, t: tuple[int, ...]) -> np.ndarray:
    return np.array(
        [t[c.level - 1] for c in group.chamber_weights()], dtype=np.int64
    )


def weight_mult_mv(group: WeylGroup, lam: Coweight, mu: Coweight) -> int:
    """Multiplicity of weight mu in the highest-weight module of lam.

    Counts polytopes of total coweight lam - mu that, once translated by mu,
    stay inside the convex hull of the orbit of lam.
    """
    _require_dominant("lambda", lam)
    diff = lam - mu
    if not diff.is_nonneg():
        return 0
    data = polytope.enumerate_mv(group, diff)
    if not data:
        return 0
    vals = _value_matrix(group, data)
    shift = _gamma_matrix(group) @ np.array(mu.coords, dtype=np.int64)
    thresh = _level_thresholds(group, polytope.weyl_thresholds(group, lam))
    return int(((vals + shift[None, :]) >= thresh[None, :]).all(axis=1).sum())


def weight_mult_canonical(group: WeylGroup, lam: Coweight, mu: Coweight) -> int:
    """Same count, but testing only the r chamber weights w0 s_i . Lambda_i."""
    _require_dominant("lambda", lam)
    diff = lam - mu
    if not diff.is_nonneg():
        return 0
    data = polytope.enumerate_mv(group, diff)
    if not data:
        return 0
    cols = [
        group.chamber_index(group.w_lambda(group.right(group.w0, i), i).coords)
        for i in range(1, group.rank + 1)
    ]
    vals = _value_matrix(group, data)[:, cols]
    gammas = _gamma_matrix(group)[cols]
    shift = gammas @ np.array(mu.coords, dtype=np.int64)
    t = polytope.weyl_thresholds(group, lam)
    levels = [group.chamber_weights()[c].level for c in cols]
    thresh = np.array([t[l - 1] for l in levels], dtype=np.int64)
    return int(((vals + shift[None, :]) >= thresh[None, :]).all(axis=1).sum())


def tensor_mult_mv(group: WeylGroup, lam: Coweight, mu: Coweight, nu: Coweight) -> int:
    """Multiplicity of the nu-module inside the tensor product lam (x) mu."""
    _require_dominant("lambda", lam)
    _require_dominant("mu", mu)
    _require_dominant("nu", nu)
    diff = lam + mu - nu
    if not diff.is_nonneg():
        return 0
    data = polytope.enumerate_mv(group, diff)
    if not data:
        return 0
    vals = _value_matrix(group, data)
    gammas = _gamma_matrix(group)
    shift = gammas @ np.array((nu - mu).coords, dtype=np.int64)
    shifted = vals + shift[None, :]
    thresh1 = _level_thresholds(group, polytope.weyl_thresholds(group, lam))
    nu_pair = gammas @ np.array(nu.coords, dtype=np.int64)
    mu_level = np.array(
        [mu.coords[c.level - 1] for c in group.chamber_weights()], dtype=np.int64
    )
    thresh2 = nu_pair - mu_level
    ok = (shifted >= thresh1[None, :]) & (shifted >= thresh2[None, :])
    return int(ok.all(axis=1).sum())


# -- oracle routes -------------------------------------------------------------


def _kpf_halved(group: WeylGroup, doubled: Coweight) -> int:
    """Partition-function value at doubled/2, or 0 when doubled is odd."""
    if any(c % 2 for c in doubled.coords):
        return 0
    return group.kpf(group.cartan.coweight(tuple(c // 2 for c in doubled.coords)))


def kostant_weight_mult(group: WeylGroup, lam: Coweight, mu: Coweight) -> int:
    """Alternating partition-function formula for the weight multiplicity."""
    _require_dominant("lambda", lam)
    T = group.two_rho
    base = 2 * lam + T
    total = 0
    for w in group.elements():
        arg = group.apply_coweight(w, base) - T - 2 * mu
        term = _kpf_halved(group, arg)
        if term:
            total += (-1) ** w.length * term
    return total


def steinberg_tensor_mult(
    group: WeylGroup, lam: Coweight, mu: Coweight, nu: Coweight
) -> int:
    """Double alternating sum for the tensor multiplicity."""
    _require_dominant("lambda", lam)
    _require_dominant("mu", mu)
    _require_dominant("nu", nu)
    T = group.two_rho
    lbase = 2 * lam + T
    mbase = 2 * mu + T
    fixed = 2 * nu + 2 * T
    total = 0
    lterms = [
        ((-1) ** w.length, group.apply_coweight(w, lbase)) for w in group.elements()
    ]
    mterms = [
        ((-1) ** v.length, group.apply_coweight(v, mbase)) for v in group.elements()
    ]
    for sw, wl in lterms:
        for sv, vm in mterms:
            arg = wl + vm - fixed
            term = _kpf_halved(group, arg)
            if term:
                total += sw * sv * term
    return total


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

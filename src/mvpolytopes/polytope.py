"""Geometry of the polytopes behind validated data: vertices, support values,
translation, negation, Minkowski sums, and exhaustive enumeration by total
coweight.

The vertices of a datum are one integer product over the group's index
table: :func:`vertex_matrix` returns every mu_w as a row, and
:func:`vertices` wraps those rows in ``Coweight`` objects only for callers
that ask for them.
"""

from __future__ import annotations

import numpy as np

from . import bz, lusztig
from .bz import BZDatum
from .cartan import Coweight, Weight, _integer, pairing
from .cones import exact_dtype
from .tables import index_table
from .weyl import WeylElement, WeylGroup


def vertex(group: WeylGroup, datum: BZDatum, w: WeylElement) -> Coweight:
    """The vertex mu_w = sum_i M_{w Lambda_i} w.alpha_i^vee."""
    M = bz._values(group, datum)
    table, t = index_table(group), group._row(w)
    vals = [M[x] for x in table.chamber_array[t].tolist()]
    # coordinate c is sum_i (w.alpha_i^vee)_c M_{w Lambda_i}, and w.alpha_i^vee
    # is column i of the coaction
    return Coweight(
        group.cartan,
        tuple(sum(a * v for a, v in zip(row, vals)) for row in table.coaction[t].tolist()),
    )


def vertex_matrix(group: WeylGroup, datum: BZDatum) -> np.ndarray:
    """The vertices mu_w as rows, in ``group.elements()`` order.

    Row t is the coweight-action matrix of w_t times the values at its
    chamber weights w_t Lambda_i.  Each entry is a sum of r products bounded
    by max|M| * max|w.alpha_i^vee|, which picks int64 or Python ints
    (:func:`cones.exact_dtype`), so the rows are exact either way.
    """
    M = bz._values(group, datum)
    table = index_table(group)
    dtype = exact_dtype(max(max(M), -min(M)), group._action_max * group.rank)
    vals = np.array(M, dtype=dtype)[table.chamber_array]
    return (table.coaction.astype(dtype, copy=False) @ vals[:, :, None])[:, :, 0]


def vertices(group: WeylGroup, datum: BZDatum) -> dict[WeylElement, Coweight]:
    cartan = group.cartan
    return {
        w: Coweight(cartan, tuple(row))
        for w, row in zip(group.elements(), vertex_matrix(group, datum).tolist())
    }


def mu1(group: WeylGroup, datum: BZDatum) -> Coweight:
    """Bottom vertex (at the identity chamber)."""
    return vertex(group, datum, group.identity)


def mu2(group: WeylGroup, datum: BZDatum) -> Coweight:
    """Top vertex (at the w0 chamber)."""
    return vertex(group, datum, group.w0)


def coweight(group: WeylGroup, datum: BZDatum) -> Coweight:
    """mu2 - mu1, the total coweight spanned by the polytope."""
    return mu2(group, datum) - mu1(group, datum)


def translate(group: WeylGroup, datum: BZDatum, nu: Coweight) -> BZDatum:
    """Shift the polytope by nu: every M_gamma gains <nu, gamma>."""
    M = bz._values(group, datum)
    chambers = group.chamber_weights()
    return BZDatum._trusted(
        group.cartan, tuple([v + pairing(nu, c.weight) for v, c in zip(M, chambers)])
    )


def normalize(group: WeylGroup, datum: BZDatum) -> BZDatum:
    """Translate so the bottom vertex sits at the origin."""
    return translate(group, datum, -mu1(group, datum))


def minkowski_sum(group: WeylGroup, *data: BZDatum) -> BZDatum:
    """Componentwise sum of the values; support functions of polytopes add.

    The sum of no data is the zero datum, the polytope {0}."""
    if not data:
        return BZDatum._trusted(group.cartan, (0,) * len(group.chamber_weights()))
    return BZDatum._trusted(
        group.cartan, tuple(map(sum, zip(*[bz._values(group, d) for d in data])))
    )


def scale(group: WeylGroup, datum: BZDatum, c: int) -> BZDatum:
    """The polytope stretched by the integer factor c >= 0."""
    c = _integer(c, "scale factor")
    if c < 0:
        raise ValueError("scale factor must be nonnegative")
    return BZDatum._trusted(group.cartan, tuple([c * v for v in bz._values(group, datum)]))


def negate(group: WeylGroup, datum: BZDatum) -> BZDatum:
    """The polytope -P, whose value at gamma is M(-gamma): one gather through
    the table's negation column.  Its vertex at w is -mu_{w w0}, so its bottom
    vertex is -mu2 (see :func:`normalize`).  P -> -P is Kashiwara's involution *
    (Kamnitzer, Adv. Math. 215 (2007)): along the reversed word
    (i_m^*, ..., i_1^*), where w0 . alpha_i = -alpha_{i^*}, -P has the
    Lusztig data (n_m, ..., n_1) of P along (i_1, ..., i_m)."""
    M = bz._values(group, datum)
    return BZDatum._trusted(group.cartan, tuple([M[y] for y in index_table(group).negation]))


def psi(group: WeylGroup, datum: BZDatum, alpha: Weight) -> int:
    """Support minimum of the polytope in direction alpha.

    A chamber w contains alpha when every pairing <w.alpha_i^vee, alpha> is
    nonnegative; there alpha = sum_i <w.alpha_i^vee, alpha> w.Lambda_i, and
    the chamber-linear extension is the same sum over the values
    M(w.Lambda_i).  The result is the minimum over containing chambers; on
    valid data they all agree.
    """
    if not isinstance(alpha, Weight):
        raise TypeError("psi takes a weight direction")
    if alpha.cartan != group.cartan:
        raise ValueError("weight belongs to a different Cartan datum")
    M = np.array(bz._values(group, datum), dtype=object)
    table = index_table(group)
    # [t][i - 1]: <w_t.alpha_i^vee, alpha>, in exact integers
    coefs = np.array(alpha.coords, dtype=object) @ table.coaction
    inside = (coefs >= 0).all(axis=1)
    if not inside.any():
        raise RuntimeError(f"weight {alpha.coords} lies in no chamber")
    return min((coefs[inside] * M[table.chamber_array[inside]]).sum(axis=1))


def weyl_thresholds(group: WeylGroup, lam: Coweight) -> tuple[int, ...]:
    """Per-level lower bounds cutting out the convex hull of the orbit of lam.

    A polytope lies in conv(W.lam) iff M_gamma >= t_{level(gamma)} for all
    gamma, where t_i = <w0.lam, Lambda_i>.
    """
    if not lam.is_dominant():
        raise ValueError(f"coweight {lam.coords} is not dominant")
    return group.apply_coweight(group.w0, lam).coords


def enumerate_mv(group: WeylGroup, mu: Coweight) -> tuple[BZDatum, ...]:
    """All polytopes from the origin to mu, one per Lusztig datum; cached."""
    if mu.cartan != group.cartan:
        raise ValueError("coweight belongs to a different Cartan datum")
    return _enumerated(group, mu.coords)[0]


def _enumerated(group: WeylGroup, key: tuple[int, ...]) -> tuple[tuple[BZDatum, ...], np.ndarray]:
    """The cache entry of :func:`enumerate_mv` at the coordinates ``key``:
    the data, and their values as the rows of a read-only ``(N, chambers)``
    array, int64 while :func:`cones.exact_dtype` bounds every value below
    2**62 and Python ints beyond.  Both are built once per key."""
    cache = group._mv_cache
    entry = cache.get(key)
    if entry is None:
        data = ()
        if min(key) >= 0:
            word = group.reference_word
            data = tuple(
                bz.from_lusztig(group, word, n)
                for n in lusztig.enumerate_lusztig(group, word, group.cartan.coweight(key))
            )
            if len({d.values for d in data}) != len(data):
                raise RuntimeError(
                    f"coweight {key}: distinct Lusztig data along {word} produced equal polytopes"
                )
        size = max((max(max(d.values), -min(d.values)) for d in data), default=0)
        values = np.array([d.values for d in data], dtype=exact_dtype(size, 1))
        values = values.reshape(len(data), len(group.chamber_weights()))
        values.flags.writeable = False
        entry = cache[key] = (data, values)
    return entry

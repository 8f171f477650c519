"""Integer data on chamber weights, their validity checks, and the bijection
with Lusztig data.

A datum assigns an integer M_gamma to every chamber weight gamma = w.Lambda_i.
It describes a polytope {x : <x, gamma> >= M_gamma} when the edge inequalities
hold, and a polytope with the full tropical structure when additionally every
hexagonal and octagonal 2-face relation holds.

:func:`validate` evaluates every edge length and every 2-face residual as one
gathered integer product over the index table's check rows, and a datum keeps
its report, so it is validated once however often it is asked.  The product
runs in int64 while the sums provably fit, and on Python ints
(``dtype=object``) above that bound (:func:`cones.exact_dtype`), so it stays
exact at any size.  :func:`from_lusztig` runs the table's assembly program, a
straight-line program on Python ints, which is exact at any size as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lusztig
from .cartan import CartanDatum, _integers
from .tables import FACE_RELATIONS, IndexTable, by_relation, check_sums, index_table
from .weyl import FACE_KINDS, WeylElement, WeylGroup, weyl_group


@dataclass(frozen=True)
class BZDatum:
    """Complete integer assignment on chamber weights.

    ``values`` is aligned with ``weyl_group(cartan).chamber_weights()``; the
    tuple form makes data hashable so collections of polytopes deduplicate.
    Values must be integers (``bool`` is refused); other integer types are
    converted to ``int``.  The package's own arithmetic on data (sums,
    multiples, translates, the negation gather and the assembly program)
    builds its results through :meth:`_trusted`, which skips these checks.
    ``_report`` holds the :func:`validate` report once it is known; it takes
    no part in equality.
    """

    cartan: CartanDatum
    values: tuple[int, ...]
    _report: ValidationReport | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        group = weyl_group(self.cartan)
        values = _integers(self.values, "value at chamber index")
        if len(values) != len(group.chamber_weights()):
            raise ValueError(
                f"expected {len(group.chamber_weights())} values, got {len(values)}"
            )
        object.__setattr__(self, "values", values)

    @classmethod
    def _trusted(cls, cartan: CartanDatum, values: tuple[int, ...]) -> BZDatum:
        """A datum without the checks of ``__post_init__``, for producers whose
        ``values`` are by construction a tuple of plain ints, one per chamber
        weight of ``cartan``'s group: sums, multiples and gathers of other
        data's values, and the assembly program's output."""
        datum = object.__new__(cls)
        object.__setattr__(datum, "cartan", cartan)
        object.__setattr__(datum, "values", values)
        return datum

    def value(self, coords) -> int:
        return self.values[weyl_group(self.cartan).chamber_index(tuple(coords))]


def make_bz(group: WeylGroup, values: dict) -> BZDatum:
    """Build a datum from a coords -> int mapping; must cover Gamma exactly."""
    chambers = group.chamber_weights()
    known = {c.weight.coords for c in chambers}
    extra = set(map(tuple, values)) - known
    if extra:
        raise ValueError(f"not chamber weights: {sorted(extra)}")
    missing = known - set(map(tuple, values))
    if missing:
        raise ValueError(f"missing chamber weights: {sorted(missing)}")
    return BZDatum(group.cartan, tuple(values[c.weight.coords] for c in chambers))


def _values(group: WeylGroup, datum: BZDatum) -> tuple[int, ...]:
    """The datum's values, after checking that they index this group's tables.

    Cartan data are shared (see :func:`cartan.build_cartan`), so the identity
    test settles the common case without a call."""
    if datum.cartan is not group.cartan and datum.cartan != group.cartan:
        raise ValueError("datum belongs to a different Cartan datum")
    return datum.values


# -- edge inequalities --------------------------------------------------------


def edge_length(group: WeylGroup, datum: BZDatum, w: WeylElement, i: int) -> int:
    """Lattice length of the polytope edge between vertices mu_w and mu_{w s_i}.

    Nonnegative on valid data; when l(w s_i) > l(w), the edge inequality at
    (w, i) is exactly "this length is >= 0".  A descent i of w names the same
    edge from its other end, w s_i, and gets the same length.
    """
    group.cartan._check_index(i)
    t = group._row(w)
    return _lengths(group, _values(group, datum), [t, group._right_array.item(t, i - 1)], (i,))[0]


def _lengths(group: WeylGroup, M: tuple[int, ...], path, word) -> list[int]:
    """The lengths -M(w Lambda_i) - M(w s_i Lambda_i) - sum_{j != i} a_ji M(w Lambda_j)
    of the edges (w, i) = (w_{path[k]}, word[k]), w_{path[k + 1]} = w s_i, by one
    walk of v_j = M(w Lambda_j) on Python ints: a step by s_i reads one chamber
    index, as s_i fixes Lambda_j for j != i."""
    table = index_table(group)
    item, columns = table.chamber_array.item, table.cartan_columns
    v = [M[x] for x in table.chamber_array[path[0]].tolist()]
    out = []
    for t, i in zip(path[1:], word):
        i -= 1
        new = M[item(t, i)]
        length, v[i] = -v[i] - new, new
        for j, a in columns[i]:
            length -= a * v[j]
        out.append(length)
    return out


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    edge_violations: tuple[tuple[tuple[int, ...], int, int], ...]  # (word, i, length)
    face_violations: tuple[tuple[tuple[int, ...], int, int, tuple[int, ...]], ...]
    # (word, i, j, residuals)

    @property
    def is_valid(self) -> bool:
        return not self.edge_violations and not self.face_violations

    def lines(self) -> list[str]:
        out = []
        for word, i, c in self.edge_violations:
            out.append(f"edge (w={list(word)}, i={i}): length {c} < 0")
        for word, i, j, res in self.face_violations:
            out.append(
                f"face (w={list(word)}, i={i}, j={j}): min-relation residuals {list(res)}"
            )
        if not out:
            out.append("valid")
        return out


_VALID = ValidationReport((), ())  # the report of every valid datum


def validate(group: WeylGroup, datum: BZDatum) -> ValidationReport:
    """Every violated edge inequality and 2-face relation of the datum.

    Computed on the first call and kept on the datum; valid data share one
    empty report.
    """
    M = _values(group, datum)
    if datum._report is None:
        table = index_table(group)
        object.__setattr__(datum, "_report", _report(group, table, check_sums(table, M)))
    return datum._report


def _report(group: WeylGroup, table: IndexTable, sums: np.ndarray) -> ValidationReport:
    """The report of a datum from its check sums (:func:`tables.check_sums`,
    one product over the check rows).  A violated edge is named from
    ``group._ascents``, whose row-major order is the edge block's, and a
    violated face from its (t, i, j) row in ``table.faces``.
    """
    lengths = sums[: table.n_edges]
    # per relation lhs = min(args), the residual min(args) - lhs
    residuals = by_relation(table, sums).min(0)
    if lengths.min() >= 0 and not residuals.any():
        return _VALID
    t, i = np.nonzero(group._ascents)
    edge_bad = tuple(
        (group.elements()[t[e]].word, int(i[e]) + 1, c)
        for e, c in enumerate(lengths.tolist()) if c < 0
    )
    face_bad, a = [], group.cartan.a
    residual = iter(residuals.tolist())
    for t, i, j in table.faces.tolist():
        kind = FACE_KINDS[a[i - 1][j - 1] * a[j - 1][i - 1]]
        res = tuple(next(residual) for _ in FACE_RELATIONS[kind])
        if any(res):
            face_bad.append((group.elements()[t].word, i, j, res))
    return ValidationReport(edge_bad, tuple(face_bad))


def is_valid(group: WeylGroup, datum: BZDatum) -> bool:
    return validate(group, datum).is_valid


# -- Lusztig data <-> datum -----------------------------------------------------


def from_lusztig(group: WeylGroup, word, n) -> BZDatum:
    """Datum of the polytope with Lusztig data ``n`` along ``word``.

    :func:`lusztig.transport` moves n to the reference word (along it, with
    no move and no braid graph), where the table's assembly program (see
    :mod:`mvpolytopes.tables`) solves the check rows' edge block and 2-face
    relations for the values, on Python ints.  The result must pass
    :func:`validate` and have Lusztig data n along ``word`` again, which fixes
    a valid datum; failing either is an implementation error, not bad input.
    """
    word = tuple(word)
    n = lusztig._checked(group, n)
    moved = lusztig.transport(group, word, group.reference_word, n)
    datum = BZDatum._trusted(group.cartan, index_table(group).assemble(moved))
    report = validate(group, datum)
    if not report.is_valid:
        raise RuntimeError(
            "assembled data violates polytope conditions: " + "; ".join(report.lines())
        )
    back = lusztig_data(group, datum, word)
    if back != n:
        raise RuntimeError(
            f"assembled datum has Lusztig data {back} along {word}, not {n}"
        )
    return datum


def lusztig_data(group: WeylGroup, datum: BZDatum, word) -> tuple[int, ...]:
    """Edge lengths along the vertex path of ``word``; inverts from_lusztig."""
    word = tuple(word)
    M = _values(group, datum)
    path = group._prefixes(word)  # rejects anything but a reduced word for w0
    return tuple(_lengths(group, M, path, word))

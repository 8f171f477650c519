"""Integer data on chamber weights, their validity checks, and the bijection
with Lusztig data.

A datum assigns an integer M_gamma to every chamber weight gamma = w.Lambda_i.
It describes a polytope {x : <x, gamma> >= M_gamma} when the edge inequalities
hold, and a polytope with the full tropical structure when additionally every
hexagonal and octagonal 2-face relation holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lusztig
from .cartan import CartanDatum
from .tables import Row, index_table
from .weyl import WeylElement, WeylGroup, weyl_group


@dataclass(frozen=True)
class BZDatum:
    """Complete integer assignment on chamber weights.

    ``values`` is aligned with ``weyl_group(cartan).chamber_weights()``; the
    tuple form makes data hashable so collections of polytopes deduplicate.
    """

    cartan: CartanDatum
    values: tuple[int, ...]

    def __post_init__(self):
        group = weyl_group(self.cartan)
        if len(self.values) != len(group.chamber_weights()):
            raise ValueError(
                f"expected {len(group.chamber_weights())} values, got {len(self.values)}"
            )
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

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
    """The datum's values, after checking that they index this group's tables."""
    if datum.cartan != group.cartan:
        raise ValueError("datum belongs to a different Cartan datum")
    return datum.values


# -- edge inequalities --------------------------------------------------------


def _dot(row: Row, x) -> int:
    total = 0
    for t, c in row:
        total += c * x[t]
    return total


def edge_length(group: WeylGroup, datum: BZDatum, w: WeylElement, i: int) -> int:
    """Lattice length of the polytope edge from vertex mu_w towards mu_{w s_i}.

    Requires l(w s_i) > l(w).  Nonnegative on valid data; the edge inequality
    at (w, i) is exactly "this length is >= 0".
    """
    group.cartan._check_index(i)
    table = index_table(group)
    return _dot(table.edge_rows[table.index[w]][i - 1], _values(group, datum))


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


def validate(group: WeylGroup, datum: BZDatum) -> ValidationReport:
    M = _values(group, datum)
    table = index_table(group)
    edge_bad = []
    for word, i, row in table.edges:
        c = 0
        for t, coef in row:  # _dot, inlined: this loop is most of validate
            c += coef * M[t]
        if c < 0:
            edge_bad.append((word, i, c))
    face_bad = []
    for face, relations in table.faces.items():
        # per relation lhs = min(args), the residual min(args) - lhs
        res = []
        for lhs, args in relations:
            low = None
            for arg in args:
                c = 0
                for t, coef in arg:
                    c += coef * M[t]
                if low is None or c < low:
                    low = c
            for t, coef in lhs:
                low -= coef * M[t]
            res.append(low)
        if any(res):
            face_bad.append((*face, tuple(res)))
    return ValidationReport(tuple(edge_bad), tuple(face_bad))


def is_valid(group: WeylGroup, datum: BZDatum) -> bool:
    return validate(group, datum).is_valid


# -- Lusztig data <-> datum -----------------------------------------------------


def from_lusztig(group: WeylGroup, word, n) -> BZDatum:
    """Datum of the polytope with Lusztig data ``n`` along ``word``.

    Runs the group's transport plan (see :mod:`mvpolytopes.tables`): n moves
    along parent braid edges to the reference word, then along a fixed chain
    of braid edges through a few words whose chamber weights gamma_k cover
    every chamber weight; at each of those words the values
    M(gamma_k) = sum_{l <= k} <beta_l, gamma_k> n_l are read off, and a
    chamber weight reached twice must get the same value both times.  The
    result is then certified: it must pass :func:`validate`, and its Lusztig
    data along ``word`` must be n again, because a valid datum is determined
    by its Lusztig data along one word.  Failure of any of these checks is an
    implementation error, not bad input.
    """
    word = tuple(word)
    table = index_table(group)
    if word not in table.parent:
        raise ValueError(f"{word} is not a reduced word for the longest element")
    n = lusztig._check_lusztig(group, word, n)[1]
    moved = n
    edge = table.parent[word]
    while edge is not None:
        moved = lusztig.braid_transition(group, edge, moved)
        edge = table.parent[edge.dst]
    values: list[int | None] = [None] * len(group.chamber_weights())
    for t in table.chamber[0]:
        values[t] = 0  # bottom vertex at the origin
    for stop in table.plan:
        for edge in stop.edges:
            moved = lusztig.braid_transition(group, edge, moved)
        for t, row in stop.rows:
            val = _dot(row, moved)
            if values[t] is None:
                values[t] = val
            elif values[t] != val:
                raise RuntimeError(
                    f"inconsistent value at chamber weight "
                    f"{group.chamber_weights()[t].weight.coords}: "
                    f"{values[t]} vs {val} from word {stop.word}"
                )
    if None in values:
        raise RuntimeError("transport plan did not reach every chamber weight")
    datum = BZDatum(group.cartan, tuple(values))
    report = validate(group, datum)
    if not report.is_valid:
        raise RuntimeError(
            "transported data violates polytope conditions: " + "; ".join(report.lines())
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
    group.word_data(word)  # rejects anything but a reduced word for w0
    table = index_table(group)
    out = []
    t = 0
    for i in word:
        out.append(_dot(table.edge_rows[t][i - 1], M))
        t = table.right[t][i - 1]
    return tuple(out)

"""JSON documents for polytopes and prime catalogs.

Values are keyed by chamber-weight coordinates ("c1,c2"); type A documents may
instead use subset digit strings ("13" for {1,3}).  Serialization is
canonical: sorted keys, no whitespace, one trailing newline, so equal objects
produce byte-identical documents.  A group's chamber keys are made on its
first document and kept on the group; the word keys of its elements, which
only the vertices of :func:`datum_to_doc` read, on the first of those.
"""

from __future__ import annotations

import json

from . import bz, polytope, primes, sln
from .bz import BZDatum
from .cartan import build_cartan
from .weyl import WeylGroup, weyl_group


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


def coords_key(coords) -> str:
    return ",".join(str(int(c)) for c in coords)


def parse_coords_key(key: str, rank: int) -> tuple[int, ...]:
    parts = key.split(",")
    if len(parts) != rank:
        raise ValueError(f"expected {rank} coordinates in {key!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad coordinate key {key!r}") from None


def word_key(word) -> str:
    return ",".join(str(int(i)) for i in word)


def parse_word_key(key: str) -> tuple[int, ...]:
    if not key:
        return ()
    try:
        return tuple(int(p) for p in key.split(","))
    except ValueError:
        raise ValueError(f"bad word key {key!r}") from None


def _keys(group: WeylGroup) -> tuple[tuple[str, ...], dict[str, int]]:
    """The group's chamber keys, made on its first document and kept on the
    group: the coordinate key of each chamber weight, and the chamber index of
    each coordinate key."""
    if group._doc_keys is None:
        chambers = tuple(coords_key(c.weight.coords) for c in group.chamber_weights())
        group._doc_keys = chambers, {key: x for x, key in enumerate(chambers)}
    return group._doc_keys


def _word_keys(group: WeylGroup) -> tuple[str, ...]:
    """The word key of each element, which only :func:`datum_to_doc` reads
    (its vertices), made on its first call for the group and kept there."""
    if group._word_keys is None:
        group._word_keys = tuple(word_key(w.word) for w in group.elements())
    return group._word_keys


def group_doc(group: WeylGroup) -> dict:
    return {"family": group.cartan.family, "rank": group.cartan.rank}


def _subset_key(group: WeylGroup, coords) -> str:
    if group.cartan.family != "A":
        raise ValueError("subset keys only make sense in type A")
    return sln.subset_key(sln.subset_of_coords(group.rank + 1, coords))


def datum_to_doc(
    group: WeylGroup,
    datum: BZDatum,
    words=(),
    subset_keys: bool = False,
) -> dict:
    keys, _ = _keys(group)
    if subset_keys:
        keys = [_subset_key(group, c.weight.coords) for c in group.chamber_weights()]
    rows = polytope.vertex_matrix(group, datum).tolist()
    doc = {
        "group": group_doc(group),
        "values": dict(zip(keys, datum.values)),
        # elements run by length, so the identity comes first and w0 last
        "mu1": list(rows[0]),
        "mu2": list(rows[-1]),
        "valid": bz.is_valid(group, datum),
        "vertices": dict(zip(_word_keys(group), rows)),
    }
    if words:
        doc["lusztig"] = {
            word_key(w): list(bz.lusztig_data(group, datum, w)) for w in words
        }
    return doc


def _chamber_of_key(group: WeylGroup, key: str) -> int:
    """Chamber index named by a value key.

    Canonical coordinate keys resolve through the group's keys; other
    spellings of the coordinates, and type A subset keys, are parsed.
    """
    found = _keys(group)[1].get(key)
    if found is not None:
        return found
    try:
        return group.chamber_index(parse_coords_key(key, group.rank))
    except (ValueError, KeyError):
        pass
    if group.cartan.family == "A":
        try:
            subset = sln.subset_from_key(key)
            return group.chamber_index(sln.subset_coords(group.rank + 1, subset))
        except (ValueError, KeyError):
            pass
    raise ValueError(f"{key!r} does not name a chamber weight")


def doc_to_datum(doc) -> tuple[WeylGroup, BZDatum]:
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    try:
        family = doc["group"]["family"]
        rank = doc["group"]["rank"]
        raw_values = doc["values"]
    except (KeyError, TypeError):
        raise ValueError("document needs group.family, group.rank and values") from None
    # bool is a subclass of int, but JSON true is not a number
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ValueError(f"group.rank must be an integer, got {rank!r}")
    if not isinstance(raw_values, dict):
        raise ValueError("values must be an object")
    group = weyl_group(build_cartan(family, rank))
    values: list[int | None] = [None] * len(group.chamber_weights())
    for key, val in raw_values.items():
        x = _chamber_of_key(group, key)
        if not isinstance(val, int) or isinstance(val, bool):
            raise ValueError(f"value at {key!r} must be an integer")
        if values[x] is not None and values[x] != val:
            raise ValueError(f"conflicting values for chamber weight {key!r}")
        values[x] = val
    if None in values:
        missing = [
            c.weight.coords for c, v in zip(group.chamber_weights(), values) if v is None
        ]
        raise ValueError(f"missing chamber weights: {sorted(missing)}")
    return group, BZDatum(group.cartan, tuple(values))


def load_datum(text: str) -> tuple[WeylGroup, BZDatum]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not valid JSON: {e}") from None
    return doc_to_datum(doc)


def catalog_to_doc(group: WeylGroup, catalog: primes.Catalog) -> dict:
    keys, _ = _keys(group)
    return {
        "group": group_doc(group),
        "counts": {
            "choices": catalog.n_choices,
            "maximal": catalog.n_maximal,
            "primes": len(catalog.primes),
        },
        "relations": [
            {
                "word": list(rel.face.w.word),
                "i": rel.face.i,
                "j": rel.face.j,
                "kind": rel.face.kind,
                "equation": rel.index,
            }
            for rel in catalog.relations
        ],
        "primes": [
            {
                "label": p.label,
                "coweight": list(p.coweight),
                "values": dict(zip(keys, p.datum.values)),
            }
            for p in catalog.primes
        ],
        "clusters": [
            {
                "choice": list(c.choice),
                "generators": list(c.labels),
            }
            for c in catalog.clusters
        ],
    }

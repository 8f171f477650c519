import json
import os
import resource
import subprocess
import sys

import pytest

import mvpolytopes
from mvpolytopes import _kernels, bz, polytope, primes, rep, serialize, sln
from mvpolytopes.cartan import build_cartan
from mvpolytopes.cli import main
from mvpolytopes.weyl import weyl_group


def test_datum_doc_round_trip(a2):
    d = bz.from_lusztig(a2, (1, 2, 1), (2, 1, 1))
    doc = serialize.datum_to_doc(a2, d, words=((2, 1, 2),))
    text = serialize.canonical_json(doc)
    g, back = serialize.load_datum(text)
    assert g is a2 and back == d
    assert doc["lusztig"]["2,1,2"] == [1, 1, 2]
    assert doc["mu2"] == [3, 2]
    assert doc["valid"] is True


def test_subset_keys_round_trip(a3):
    d = bz.from_lusztig(a3, a3.reference_word, (1, 0, 1, 0, 1, 0))
    doc = serialize.datum_to_doc(a3, d, subset_keys=True)
    assert all(k.isdigit() for k in doc["values"])
    g, back = serialize.load_datum(serialize.canonical_json(doc))
    assert back == d


def test_canonical_json_is_stable(a2):
    d = bz.from_lusztig(a2, (1, 2, 1), (1, 1, 1))
    doc = serialize.datum_to_doc(a2, d)
    assert serialize.canonical_json(doc) == serialize.canonical_json(
        json.loads(serialize.canonical_json(doc))
    )


def test_load_datum_rejects_malformed(a2):
    cases = [
        "not json",
        "[]",
        '{"group": {"family": "A", "rank": 2}}',
        '{"group": {"family": "A", "rank": 2}, "values": 5}',
        '{"group": {"family": "A", "rank": 2}, "values": {"9,9": 1}}',
        '{"group": {"family": "Z", "rank": 2}, "values": {}}',
        # ranks that int() would coerce to 1, 1 and 2, each with matching values
        '{"group": {"family": "A", "rank": true}, "values": {"1": 0, "-1": 0}}',
        '{"group": {"family": "A", "rank": 1.9}, "values": {"1": 0, "-1": 0}}',
        '{"group": {"family": "A", "rank": "2"}, "values": {"1,0": 0, "0,1": 0, '
        '"-1,1": 0, "-1,0": 0, "0,-1": 0, "1,-1": 0}}',
    ]
    for text in cases:
        with pytest.raises(ValueError):
            serialize.load_datum(text)


def test_load_datum_leaves_the_word_keys_unbuilt(b2):
    """Reading a document makes the chamber keys only; the word keys of the
    vertices wait for the first datum_to_doc, and documents are the same
    bytes either way."""
    d = bz.from_lusztig(b2, b2.reference_word, (1, 0, 2, 1))
    text = serialize.canonical_json(serialize.datum_to_doc(b2, d, words=(b2.reference_word,)))
    b2._doc_keys = b2._word_keys = None  # as on a fresh group
    g, back = serialize.load_datum(text)
    assert g is b2 and back == d
    assert b2._doc_keys is not None and b2._word_keys is None
    serialize.catalog_to_doc(b2, primes.build_catalog(b2))
    assert b2._word_keys is None
    doc = serialize.datum_to_doc(b2, back, words=(b2.reference_word,))
    assert serialize.canonical_json(doc) == text
    rows = polytope.vertex_matrix(b2, d).tolist()
    assert doc["vertices"] == {",".join(map(str, w.word)): r for w, r in zip(b2.elements(), rows)}
    assert b2._word_keys == tuple(doc["vertices"])


def test_word_key_round_trip():
    assert serialize.parse_word_key("1,2,1") == (1, 2, 1)
    assert serialize.word_key((1, 2, 1)) == "1,2,1"
    assert serialize.parse_word_key("") == ()


def test_catalog_doc(b2):
    doc = serialize.catalog_to_doc(b2, primes.build_catalog(b2))
    assert doc["counts"] == {"choices": 9, "maximal": 4, "primes": 8}
    assert len(doc["clusters"]) == 4
    assert {r["kind"] for r in doc["relations"]} == {"octagon"}


# -- command line ------------------------------------------------------------


def test_cli_enumerate_count(capsys):
    assert main(["enumerate", "A", "2", "--coweight", "1,1"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 2
    docs = [json.loads(l) for l in lines]
    assert all(d["valid"] for d in docs)


def test_cli_enumerate_json_format(capsys):
    assert main(["enumerate", "B", "2", "--coweight", "1,1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == len(doc["polytopes"]) == 2


def test_cli_enumerate_rejects_negative(capsys):
    assert main(["enumerate", "A", "2", "--coweight=-1,1"]) == 2
    assert "negative" in capsys.readouterr().err


def test_cli_mult_weight(capsys):
    assert main(["mult", "weight", "A", "2", "1,1", "0,0", "--check-oracle"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["multiplicity"] == 2 and doc["oracle"] == 2


def test_cli_mult_oracle_mismatch_exit_code(capsys, monkeypatch):
    kostant = rep.kostant_weight_mult
    monkeypatch.setattr(rep, "kostant_weight_mult", lambda *a: kostant(*a) + 1)
    assert main(["mult", "weight", "A", "2", "1,1", "0,0", "--check-oracle"]) == 1
    assert "mismatch" in capsys.readouterr().err


def test_cli_mult_tensor(capsys):
    assert main(["mult", "tensor", "A", "2", "1,1", "1,1", "1,1"]) == 0
    assert json.loads(capsys.readouterr().out)["multiplicity"] == 2


def test_cli_validate_exit_codes(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    ok.write_text(
        json.dumps(
            {
                "group": {"family": "A", "rank": 2},
                "values": {"1,0": 0, "0,1": 0, "-1,1": -2, "-1,0": -3, "0,-1": -2, "1,-1": -1},
            }
        )
    )
    assert main(["validate", str(ok)]) == 0
    assert capsys.readouterr().out.strip() == "valid"

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "group": {"family": "A", "rank": 2},
                "values": {"1,0": 0, "0,1": 0, "-1,1": -2, "-1,0": -3, "0,-1": -2, "1,-1": 1},
            }
        )
    )
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "edge" in out

    mal = tmp_path / "mal.json"
    mal.write_text("{}")
    assert main(["validate", str(mal)]) == 2


def test_cli_missing_file(capsys):
    assert main(["validate", "/nonexistent/file.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_collapse(tmp_path, capsys):
    pic = tmp_path / "pic.json"
    pic.write_text(json.dumps({"n": 3, "entries": [[1, 2, 2], [1, 3, 1], [2, 3, 1]]}))
    assert main(["collapse", str(pic), "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"] == [[1, 3, 1]]


def test_cli_collapse_bare_list(tmp_path, capsys):
    pic = tmp_path / "pic.json"
    pic.write_text(json.dumps([[1, 2, 2], [1, 3, 1], [2, 3, 1]]))
    assert main(["collapse", str(pic), "2"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3


def test_cli_collapse_malformed(tmp_path, capsys):
    pic = tmp_path / "pic.json"
    pic.write_text('{"entries": "what"}')
    assert main(["collapse", str(pic), "2"]) == 2


@pytest.mark.parametrize(
    "doc", [{"n": 100000, "entries": []}, [[1, 100000, 1]]], ids=["explicit", "inferred"]
)
def test_cli_collapse_refuses_a_large_n(tmp_path, capsys, doc):
    pic = tmp_path / "pic.json"
    pic.write_text(json.dumps(doc))
    assert main(["collapse", str(pic), "50000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: collapse takes n up to {sln.MAX_N}, got n = 100000\n"


def test_cli_draw(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    out = tmp_path / "out.svg"
    assert main(["enumerate", "A", "2", "--coweight", "2,1", "-o", str(doc)]) == 0
    first = doc.read_text().splitlines()[0]
    doc.write_text(first)
    assert main(["draw", str(doc), "-o", str(out), "--unit"]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and "polygon" in svg


def test_cli_draw_face_requires_all_three(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    assert main(["enumerate", "A", "2", "--coweight", "1,0", "-o", str(doc)]) == 0
    doc.write_text(doc.read_text().splitlines()[0])
    rc = main(["draw", str(doc), "-o", str(tmp_path / "x.svg"), "--face-i", "1"])
    assert rc == 2


@pytest.mark.parametrize(
    "face, message",
    [
        (["--face-word", "1", "--face-i", "9", "--face-j", "2"], "--face-i 9 is out of range"),
        (["--face-word", "2", "--face-i", "1", "--face-j", "-3"], "--face-j -3 is out of range"),
        (["--face-word", "9", "--face-i", "1", "--face-j", "2"], "letter 9 is out of range"),
        (["--face-word", "2,0", "--face-i", "1", "--face-j", "3"], "letter 0 is out of range"),
        (["--face-word", "2", "--face-i", "1", "--face-j", "1"], "are both 1"),
        (["--face-word", "1,,2", "--face-i", "1", "--face-j", "2"], "--face-word: bad word key '1,,2'"),
    ],
)
def test_cli_draw_rejects_out_of_range_face(tmp_path, capsys, face, message):
    doc = tmp_path / "doc.json"
    assert main(["enumerate", "A", "3", "--coweight", "1,1,1", "-o", str(doc)]) == 0
    doc.write_text(doc.read_text().splitlines()[0])
    assert main(["draw", str(doc), "-o", str(tmp_path / "x.svg"), *face]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("word", ["9,1,2,1,3,2", "0,1,2,1,3,2", "1,2,1,3,2,4"])
def test_cli_enumerate_rejects_out_of_range_letters(capsys, word):
    assert main(["enumerate", "A", "3", "--coweight", "1,1,1", "--word", word]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --word {word}: letter ")
    assert "out of range 1..3" in captured.err and captured.err.count("\n") == 1


def test_cli_primes_output(tmp_path):
    out = tmp_path / "cat.json"
    assert main(["primes", "A", "2", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["counts"]["primes"] == 4


@pytest.mark.parametrize(
    "args, message",
    [
        (["enumerate", "A", "2", "--coweight", "1,1", "--word", "1,,2"], "--word: bad word key '1,,2'"),
        (
            ["enumerate", "A", "2", "--coweight", f"{10**20},1"],
            f"--coweight {10**20},1: coordinate {10**20} does not fit in 64 bits",
        ),
        (
            ["mult", "weight", "A", "2", f"{10**20},{10**20}", f"{10**20},{10**20}"],
            f"LAMBDA {10**20},{10**20}: coordinate {10**20} does not fit in 64 bits",
        ),
    ],
    ids=["word", "coweight", "lambda"],
)
def test_cli_rejects_unparsable_numbers(capsys, args, message):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "family, coweight, word, subset_keys",
    [
        ("A", (1, 2, 1), None, False),
        ("A", (2, 1, 1), (3, 2, 3, 1, 2, 3), False),
        ("A", (1, 1, 2), None, True),
        ("B", (1, 1, 1), None, False),
        ("B", (1, 2, 1), (3, 2, 3, 2, 1, 2, 3, 2, 1), False),
    ],
)
def test_cli_enumerate_matches_enumerate_mv(capsys, family, coweight, word, subset_keys):
    group = weyl_group(build_cartan(family, 3))
    words = [word] if word else []
    expected = "".join(
        serialize.canonical_json(
            serialize.datum_to_doc(group, d, words=words, subset_keys=subset_keys)
        )
        for d in polytope.enumerate_mv(group, group.cartan.coweight(coweight))
    )
    args = ["enumerate", family, "3", "--coweight", serialize.coords_key(coweight)]
    if word:
        args += ["--word", serialize.word_key(word)]
    if subset_keys:
        args.append("--subset-keys")
    assert main(args) == 0
    assert capsys.readouterr().out == expected
    assert expected.count("\n") > 1


def test_cli_collapse_entry_not_a_list(tmp_path, capsys):
    pic = tmp_path / "pic.json"
    pic.write_text("[5, 6]")
    assert main(["collapse", str(pic), "2"]) == 2
    assert "is not [a, b, value]" in capsys.readouterr().err


def test_cli_validate_rejects_boolean_value(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(
        '{"group": {"family": "A", "rank": 2}, "values": '
        '{"1,0": 0, "0,1": 0, "-1,1": -2, "-1,0": -3, "0,-1": -2, "1,-1": true}}'
    )
    assert main(["validate", str(doc)]) == 2
    assert "must be an integer" in capsys.readouterr().err


A1_ZERO = '{"1": 0, "-1": 0}'
A2_ZERO = '{"1,0": 0, "0,1": 0, "-1,1": 0, "-1,0": 0, "0,-1": 0, "1,-1": 0}'


@pytest.mark.parametrize(
    "rank, values",
    # int() would read these ranks as 1, 1 and 2, and the values are valid there
    [("true", A1_ZERO), ("1.9", A1_ZERO), ('"2"', A2_ZERO), ("null", A2_ZERO)],
)
def test_cli_validate_rejects_non_integer_rank(tmp_path, capsys, rank, values):
    doc = tmp_path / "doc.json"
    doc.write_text('{"group": {"family": "A", "rank": %s}, "values": %s}' % (rank, values))
    assert main(["validate", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: group.rank must be an integer") and err.count("\n") == 1


@pytest.mark.parametrize(
    "n, message",
    [("3.7", "3.7"), ('"3"', "'3'"), ("true", "True")],
    ids=["float", "string", "bool"],
)
def test_cli_collapse_rejects_non_integer_n(tmp_path, capsys, n, message):
    pic = tmp_path / "pic.json"
    pic.write_text('{"n": %s, "entries": [[1, 2, 2], [1, 3, 1], [2, 3, 1]]}' % n)
    assert main(["collapse", str(pic), "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: picture n must be an integer, got {message}\n"


def _cap_address_space():
    limit = 4_000_000 * 1024  # as `ulimit -v 4000000`
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "args",
    [
        ["enumerate", "A", "2", "--coweight", f"{10**12},1"],
        ["mult", "weight", "A", "2", f"{10**12},{10**12}", "0,0"],
    ],
    ids=["enumerate", "mult"],
)
def test_cli_refuses_huge_kernel_frontiers(args):
    # in a child process with capped memory: without the refusal, numpy
    # would try to allocate terabytes
    src = os.path.dirname(os.path.dirname(mvpolytopes.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "mvpolytopes.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_cap_address_space,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: the partition-function frontier would grow to {10**12 + 1} rows, "
        f"above the limit of {_kernels.MAX_ROWS}\n"
    )

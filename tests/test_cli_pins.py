"""Pinned command-line output where the triangularity of (H, R) decides.

The braided commutator, the twist and the Lemma 3.1 identities all rest on
one hypothesis about the pair (H, R): R is quasitriangular and flip(R) is
its inverse. Each file here breaks it in one of the three ways it can
break, and carries a product object (with a reference bracket, so the
informational commutator diff runs) and a bracket object (with twist
maps):

- ``kz2-qt1``: R = e (x) g on kZ2 is invertible but fails qt.1;
- ``kz2-singular``: R = g (x) g - e (x) e squares to zero, so it has no
  inverse;
- ``klein-nontriangular``: the functions on Z2 x Z2 with the bicharacter
  R are quasitriangular, but flip(R) is not the inverse of R.

For each file, ``check`` (every suite that reads R) and ``construct`` (both
constructions) are pinned: exit code, stdout, stderr and the file that
``construct`` wrote, if any. So are the two catalog constructions.

Regenerate the pins (only when an output changes on purpose) with

    PYTHONPATH=src python tests/test_cli_pins.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import tempfile

from bihomcheck.cli import main

PINS = pathlib.Path(__file__).parent / "witnesses" / "cli.json"

I2 = [["1", "0"], ["0", "1"]]


def _kz2_file(name, rmatrix):
    """kZ2 with the Heisenberg product and bracket of example 2.5 and the
    given R; the product carries the Heisenberg commutator as reference."""
    ident = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    action = {"e": ident, "g": [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]}
    common = {"dim": 3, "basis": ["x1", "x2", "x3"], "action": action, "alpha": ident, "beta": ident}
    return {
        "format": "bihom-algebra-file/1",
        "name": name,
        "parameters": ["l"],
        "hopf": {"group": {"names": ["e", "g"], "table": [[0, 1], [1, 0]], "identity": 0}},
        "rmatrix": rmatrix,
        "objects": {
            "A": {**common, "mult": [[0, 1, 2, "1"]], "reference_bracket": [[0, 1, 2, "1"], [1, 0, 2, "1"]]},
            "L": {
                **common,
                "bracket": [[0, 1, 2, "1"], [1, 0, 2, "1"]],
                "twist_alpha": [["l", "0", "0"], ["0", "1", "0"], ["0", "0", "l"]],
                "twist_beta": ident,
            },
        },
    }


def _klein_file():
    """Functions on Z2 x Z2 (point idempotents f_ab, convolution coproduct)
    with R[x][y] = (-1)^(x1 y2), as ``klein_function_hopf`` in
    ``test_hopf.py``; A = k[u]/(u^2) graded by u in degree (1, 0)."""
    elems = [(0, 0), (0, 1), (1, 0), (1, 1)]
    names = [f"f{a}{b}" for a, b in elems]
    index = {e: i for i, e in enumerate(elems)}
    comult = [
        [index[((x[0] + y[0]) % 2, (x[1] + y[1]) % 2)], i, j, "1"]
        for i, x in enumerate(elems)
        for j, y in enumerate(elems)
    ]
    zero = [["0", "0"], ["0", "0"]]
    action = {"f00": [["1", "0"], ["0", "0"]], "f01": zero, "f10": [["0", "0"], ["0", "1"]], "f11": zero}
    common = {"dim": 2, "basis": ["1A", "u"], "action": action, "alpha": I2, "beta": I2}
    return {
        "format": "bihom-algebra-file/1",
        "name": "klein-nontriangular",
        "parameters": [],
        "hopf": {
            "raw": {
                "names": names,
                "mult": [[i, i, i, "1"] for i in range(4)],
                "comult": sorted(comult),
                "unit": ["1"] * 4,
                "counit": ["1", "0", "0", "0"],
                "antipode": [["1" if i == j else "0" for j in range(4)] for i in range(4)],
            }
        },
        "rmatrix": [[str((-1) ** (x[0] * y[1])) for y in elems] for x in elems],
        "objects": {
            "A": {
                **common,
                "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
                "unit": ["1", "0"],
                "reference_bracket": [[1, 1, 0, "2"]],
            },
            "L": {
                **common,
                "bracket": [[1, 1, 0, "1"]],
                "twist_alpha": [["1", "0"], ["0", "-1"]],
                "twist_beta": I2,
            },
        },
    }


FILES = {
    "kz2-qt1": _kz2_file("kz2-qt1", [["0", "1"], ["0", "0"]]),
    "kz2-singular": _kz2_file("kz2-singular", [["-1", "0"], ["0", "1"]]),
    "klein-nontriangular": _klein_file(),
}

# argument lists; {file} is the path of the input file, {out} the construct
# output path
COMMANDS = [
    *(["check", "{file}", "--suite", s, "--json"] for s in ("all", "hopf", "bihom-lie", "lemma31")),
    ["construct", "{file}", "--what", "commutator", "--object", "A", "--json", "--output", "{out}"],
    ["construct", "{file}", "--what", "twist", "--object", "L", "--json", "--output", "{out}"],
]

CATALOG_CONSTRUCTIONS = {
    "example24-commutator": ["construct", "example24", "--what", "commutator", "--json", "--output", "{out}"],
    "example25-heisenberg-twist": [
        "construct", "example25-heisenberg", "--what", "twist", "--object", "L", "--json", "--output", "{out}",
    ],
}


def run(argv, file, tmp):
    """Exit code, stdout, stderr and the written output file of one command."""
    out = tmp / "out.json"
    out.unlink(missing_ok=True)
    argv = [a.format(file=file, out=out) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    written = out.read_text(encoding="utf-8") if out.exists() else None
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "output": written}


def all_cases():
    cases = {}
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        for name, doc in FILES.items():
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            for argv in COMMANDS:
                key = " ".join([argv[0], name, *argv[2:]]).replace(" --output {out}", "")
                cases[key] = run(argv, path, tmp)
        for key, argv in CATALOG_CONSTRUCTIONS.items():
            cases[key] = run(argv, None, tmp)
    return cases


def test_each_file_breaks_triangularity_its_own_way():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    qt = {name: json.loads(pinned[f"check {name} --suite all --json"]["stdout"]) for name in FILES}
    statuses = {
        name: {e["id"]: e["status"] for e in rep["entries"] if e["id"].startswith("R:")}
        for name, rep in qt.items()
    }
    assert statuses["kz2-qt1"]["R:qt.1"] == "fail"
    assert statuses["kz2-singular"] == {"R:qt": "skipped"}
    assert statuses["klein-nontriangular"]["R:qt.triangular"] == "fail"
    assert "R:qt.1" in statuses["klein-nontriangular"]
    assert all(s == "pass" for i, s in statuses["klein-nontriangular"].items() if i != "R:qt.triangular")
    for name in FILES:
        for what in ("commutator --object A", "twist --object L"):
            assert pinned[f"construct {name} --what {what} --json"]["exit"] == 3


def test_cli_output_matches_the_pins():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    got = all_cases()
    assert sorted(got) == sorted(pinned)
    for key in pinned:
        assert got[key] == pinned[key], key


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(all_cases().items())]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")

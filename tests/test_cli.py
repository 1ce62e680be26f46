"""Command-line surface: exit codes, output shapes, golden reports."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from bihomcheck.algfile import parse_algebra_file, print_algebra_file, substitute_file
from bihomcheck.catalog import catalog_names
from bihomcheck.cli import main
from test_scalars import DEEP_TEXTS

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_all_builtins(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in catalog_names():
        assert name in out


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [d["name"] for d in doc] == catalog_names()


def test_print_round_trips_catalog_entry(capsys, tmp_path):
    code, out, _ = run(capsys, "print", "example24")
    assert code == 0
    f = parse_algebra_file(out)
    assert f.name == "example24"
    # printing a parsed print is byte-identical
    p = tmp_path / "e24.json"
    p.write_text(out)
    code2, out2, _ = run(capsys, "print", str(p))
    assert code2 == 0 and out2 == out


def test_check_exit_zero_on_valid_instance(capsys):
    code, out, _ = run(capsys, "check", "kz2", "--suite", "hopf")
    assert code == 0
    assert "all checks passed" in out


def test_check_exit_one_on_axiom_failure(capsys, tmp_path):
    code, out, _ = run(capsys, "print", "example24")
    doc = json.loads(out)
    # break associativity of the object's product
    doc["objects"]["A"]["mult"] = [[0, 0, 0, "1"], [0, 1, 1, "b"], [1, 0, 1, "-1"], [1, 1, 0, "1"]]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(p), "--suite", "bihom-assoc")
    assert code == 1
    assert "FAIL" in out


def test_check_exit_two_on_bad_input(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ nope")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("command", ["check", "print"])
def test_a_file_that_is_not_utf8_is_input_error(capsys, tmp_path, command):
    # a UTF-16 byte-order mark: the decoder fails on the first byte
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {str(p)!r}: not UTF-8 text (invalid start byte at byte 0)\n"


def nested_name_file(capsys, depth):
    """The kz2 file with its name replaced by a list nested ``depth`` deep."""
    _, out, _ = run(capsys, "print", "kz2")
    doc = json.loads(out)
    doc["name"] = "NAME"
    return json.dumps(doc).replace('"NAME"', "[" * depth + "]" * depth)


@pytest.mark.parametrize("command", ["check", "print"])
@pytest.mark.parametrize("depth", [990, None], ids=["name-990", "open-100000"])
def test_json_nested_too_deep_is_input_error(capsys, tmp_path, command, depth):
    text = "[" * 100_000 if depth is None else nested_name_file(capsys, depth)
    p = tmp_path / "deep.json"
    p.write_text(text)
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (2, "")
    if depth is None:
        assert err == "error: JSON nesting is too deep\n"
    else:
        # where the decoder's recursion limit is above 990 (a C-stack limit
        # on newer Pythons), the nested name reaches validation instead
        assert err in ("error: JSON nesting is too deep\n", "error: name: expected a string\n")


def test_json_nested_500_deep_reaches_validation(capsys, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text(nested_name_file(capsys, 500))
    code, out, err = run(capsys, "check", str(p))
    assert (code, out, err) == (2, "", "error: name: expected a string\n")


@pytest.mark.parametrize("entry", ['"' + "1" * 5000 + '"', "1" * 5000])
def test_overlong_integer_literal_is_input_error(capsys, tmp_path, entry):
    # an R-matrix entry written as a scalar string and as a bare JSON integer
    code, out, _ = run(capsys, "print", "kz2")
    doc = json.loads(out)
    doc["rmatrix"][0][0] = 12345
    p = tmp_path / "long.json"
    p.write_text(json.dumps(doc).replace("12345", entry))
    code, out, err = run(capsys, "check", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "5000 digits exceeds the limit 4300" in err


@pytest.mark.parametrize("command", ["check", "print"])
def test_nested_power_above_the_digit_limit_is_input_error(capsys, tmp_path, command):
    # 2^1000000 has 301,030 digits: refused before it is computed
    code, out, _ = run(capsys, "print", "kz2")
    doc = json.loads(out)
    doc["rmatrix"][0][0] = "(2^1000)^1000"
    p = tmp_path / "power.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: rmatrix[0][0]: bad scalar '(2^1000)^1000'")
    assert "more than 4300 digits (line 1, column 10)" in err


@pytest.mark.parametrize("entry", DEEP_TEXTS, ids=["parens-199", "minus-2000"])
def test_deeply_nested_scalar_is_input_error(capsys, tmp_path, entry):
    code, out, _ = run(capsys, "print", "kz2")
    doc = json.loads(out)
    doc["rmatrix"][0][0] = entry
    p = tmp_path / "deep.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("error: rmatrix[0][0]: bad scalar")
    assert "nested more than 100 deep (line 1, column 101)" in err
    assert "Traceback" not in err


def test_deeply_nested_space_coordinate_is_input_error(capsys):
    deep = "(" * 300 + "1" + ")" * 300
    code, out, err = run(
        capsys, "structure", "example25-heisenberg", "--what", "closure", "--object", "L",
        "--space", f"{deep},0,0",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: --space:") and "nested more than 100 deep" in err


def test_product_with_too_many_terms_is_input_error(capsys, tmp_path):
    # each power is within the term bound; their product would not be
    code, out, _ = run(capsys, "print", "example24")
    doc = json.loads(out)
    doc["objects"]["A"]["beta"][1][1] = "(b+2)^150*(b+2)^150"
    p = tmp_path / "product.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(p), "--suite", "module")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "bad scalar '(b+2)^150*(b+2)^150'" in err
    assert "product would have more than 300 terms (line 1, column 10)" in err


def test_repeated_main_calls_match_fresh_processes(capsys):
    # main reuses one parser; nothing parsed in one call may leak into the
    # next, so each call prints what a fresh interpreter prints
    path = [str(pathlib.Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for extra in (["--set", "b=3"], [], ["--json"]):
        argv = ["check", "example24", "--suite", "all", *extra]
        fresh = subprocess.run(
            [sys.executable, "-m", "bihomcheck.cli", *argv], capture_output=True, text=True, env=env
        )
        assert run(capsys, *argv)[:2] == (fresh.returncode, fresh.stdout)


def test_set_that_makes_a_number_too_long_to_print_is_input_error(capsys, tmp_path):
    # 99999^1000 has 5,000 digits: parsing b^1000 is fine, substituting is not
    code, out, _ = run(capsys, "print", "example24")
    doc = json.loads(out)
    doc["objects"]["A"]["beta"][1][1] = "b^1000"
    p = tmp_path / "power.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(p), "--suite", "module", "--set", "b=99999")
    assert code == 2
    assert out == ""
    assert err == "error: --set: 'b^1000' becomes a number of more than 4300 digits\n"


def test_construct_refusal_exit_three(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    code, _, err = run(
        capsys,
        "construct",
        "example24",
        "--what",
        "commutator",
        "--set",
        "b=0",
        "--output",
        str(out_path),
    )
    assert code == 3
    assert "refused" in err and "bijective" in err


def test_construct_twist_of_a_bracket_with_twisting_maps_is_refused(capsys, tmp_path):
    # the twist is defined on generalized Lie algebras, whose maps are identities
    code, out, _ = run(capsys, "print", "example25-heisenberg")
    doc = json.loads(out)
    doc["objects"]["L"]["beta"] = [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]]
    p = tmp_path / "twisted-input.json"
    p.write_text(json.dumps(doc))
    out_path = tmp_path / "out.json"
    code, out, err = run(
        capsys, "construct", str(p), "--what", "twist", "--object", "L", "--output", str(out_path)
    )
    assert (code, out) == (3, "")
    assert err == "refused: twist input must be a generalized Lie algebra with identity maps\n"
    assert not out_path.exists()


@pytest.mark.parametrize("hname", ["names", "basis", "format", "name", "parameters"])
def test_set_with_a_hopf_element_named_like_a_field(capsys, tmp_path, hname):
    # action and objects are keyed by names, so their keys are never fields;
    # the action of the renamed element is an involution that depends on b
    code, out, _ = run(capsys, "print", "example24")
    doc = json.loads(out)
    doc["hopf"]["group"]["names"] = ["e", hname]
    obj = doc["objects"].pop("A")
    del obj["action"]["g"]
    obj["action"][hname] = [["1", "b"], ["0", "-1"]]
    doc["objects"]["action"] = obj
    p = tmp_path / "named.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(p), "--suite", "module", "--set", "b=-1")
    assert (code, err) == (0, "")
    f = substitute_file(parse_algebra_file(p.read_text()), {"b": -1})
    printed = json.loads(print_algebra_file(f))
    assert printed["parameters"] == []
    assert printed["objects"]["action"]["action"][hname] == [["1", "-1"], ["0", "-1"]]
    assert printed["objects"]["action"]["beta"] == [["1", "0"], ["0", "-1"]]


def test_construct_commutator_output_revalidates(capsys, tmp_path):
    out_path = tmp_path / "e24_bracket.json"
    code, _, _ = run(
        capsys, "construct", "example24", "--what", "commutator", "--output", str(out_path)
    )
    assert code == 0
    code, out, _ = run(capsys, "check", str(out_path), "--suite", "bihom-lie")
    assert code == 0
    # the computed table over Q(b) is identically zero
    doc = json.loads(out_path.read_text())
    assert doc["objects"]["A"]["bracket"] == []
    assert doc["parameters"] == ["b"]


def test_construct_twist_output(capsys, tmp_path):
    out_path = tmp_path / "twisted.json"
    code, _, _ = run(
        capsys,
        "construct",
        "example25-heisenberg",
        "--what",
        "twist",
        "--object",
        "L",
        "--output",
        str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["objects"]["L"]["bracket"] == [
        [0, 1, 2, "l1*l2p"],
        [1, 0, 2, "l2*l1p"],
    ]
    code, _, _ = run(capsys, "check", str(out_path), "--suite", "bihom-lie")
    assert code == 0


def test_check_with_numeric_substitution(capsys):
    code, out, _ = run(capsys, "check", "example24", "--suite", "all", "--set", "b=3")
    assert code == 0
    code, out, _ = run(capsys, "check", "example24", "--suite", "all", "--set", "b=5/7")
    assert code == 0


@pytest.mark.parametrize("second", ["b=2", "b=1"])
def test_a_repeated_set_is_refused_and_names_the_parameter(capsys, second):
    code, out, err = run(capsys, "check", "example24", "--set", "b=1", "--set", second)
    assert code == 2
    assert out == ""
    assert err == "error: --set b: given more than once\n"


def test_structure_center_output(capsys):
    code, out, _ = run(
        capsys, "structure", "example25-heisenberg", "--what", "center", "--object", "L"
    )
    assert code == 0
    assert "center = span(x3)" in out


def test_structure_ideal_check_exit_codes(capsys):
    code, out, _ = run(
        capsys,
        "structure",
        "example25-heisenberg",
        "--what",
        "ideal-check",
        "--object",
        "L",
        "--space",
        "0,0,1",
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "structure",
        "example25-heisenberg",
        "--what",
        "ideal-check",
        "--object",
        "L",
        "--space",
        "1,0,0",
    )
    assert code == 1
    assert "FAIL" in out


IDEAL_LAW = (
    "structure.ideal: U is an H-BiHom-ideal (alpha, beta, H-stable and AU + UA <= U; "
    "two-sided form, strictly implies the one-sided (AU)A = A(UA))"
)


@pytest.mark.parametrize(
    "space, code, body",
    [
        ("0,1", 0, f"  PASS  {IDEAL_LAW}\n  => all checks passed\n"),
        (
            "1,0",
            1,
            f"  FAIL  {IDEAL_LAW}\n"
            "        at (AU is not contained in U): residual (-1)*x2\n"
            "  => FAILURES PRESENT\n",
        ),
        ("0", 0, f"  PASS  {IDEAL_LAW}\n  => all checks passed\n"),
        ("full", 0, f"  PASS  {IDEAL_LAW}\n  => all checks passed\n"),
    ],
)
def test_structure_ideal_check_on_a_product_object(capsys, space, code, body):
    got = run(
        capsys, "structure", "example24", "--what", "ideal-check", "--object", "A", "--space", space
    )
    assert got == (code, "suite structure:ideal-check\n" + body, "")


def test_structure_closure_on_a_product_object(capsys):
    got = run(
        capsys, "structure", "example24", "--what", "closure", "--object", "A", "--space", "1,0"
    )
    assert got == (
        0,
        "suite structure:closure\n"
        "  note: closure kind: associative\n"
        "  note: seed = span(x1)\n"
        "  note: closure = span(x1, x2)\n"
        "  => all checks passed\n",
        "",
    )


def test_structure_closure(capsys):
    code, out, _ = run(
        capsys,
        "structure",
        "example25-heisenberg",
        "--what",
        "closure",
        "--object",
        "L",
        "--space",
        "1,0,0",
    )
    assert code == 0
    assert "closure = span(x1, x3)" in out


def test_unknown_object_is_input_error(capsys):
    code, _, err = run(
        capsys, "structure", "kz2", "--what", "center", "--object", "L"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["structure", "kz2", "--what", "certificate"], "the file has no objects"),
        (["structure", "kz2", "--what", "center"], "the file has no bracket objects"),
        (["construct", "kz2", "--what", "commutator"], "the file has no product objects"),
        (["construct", "kz2", "--what", "twist"], "the file has no bracket objects"),
    ],
)
def test_a_file_without_the_object_kind_says_so(capsys, tmp_path, argv, message):
    out = tmp_path / "out.json"
    code, _, err = run(capsys, *argv, *(["--output", str(out)] if argv[0] == "construct" else []))
    assert code == 2
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_bracket_object_with_a_unit_is_input_error(capsys, tmp_path):
    code, out, _ = run(capsys, "print", "example25-twisted")
    doc = json.loads(out)
    doc["objects"]["L"]["multiplicative"] = False
    doc["objects"]["L"]["unit"] = ["1", "0", "0"]
    p = tmp_path / "twisted.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(p), "--suite", "bihom-lie")
    assert code == 2 and out == ""
    assert "error: objects.L.unit: only a product object has a unit\n" in err
    assert "error: objects.L.multiplicative: only a product object has a multiplicative flag\n" in err


@pytest.mark.parametrize("what,steps", [("derived-series", "-1"), ("lcs", "0")])
def test_structure_max_steps_below_one_is_input_error(capsys, what, steps):
    code, out, err = run(
        capsys, "structure", "example25-heisenberg", "--what", what, "--max-steps", steps
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --max-steps must be at least 1, got {steps}\n"


@pytest.mark.parametrize("argv", [["nope"], ["check"], ["check", "kz2", "--bogus"]])
def test_bad_arguments_return_input_error_instead_of_exiting(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage: bihomcheck" in err


def test_help_returns_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: bihomcheck")


def test_unwritable_output_is_input_error(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "out.json"
    code, out, err = run(capsys, "check", "kz2", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {str(target)!r}")


@pytest.mark.parametrize("value", ["1e999999999", "1e-99999999999999999999999", "2E+4_301"])
def test_set_with_a_huge_exponent_is_refused_before_it_is_computed(capsys, value):
    code, out, err = run(capsys, "check", "example24", "--suite", "hopf", "--set", f"b={value}")
    assert code == 2
    assert out == ""
    assert err == f"error: --set b: the exponent of {value!r} exceeds 4300\n"


def test_trivial_one_dimensional_algebra_passes_everything(capsys, tmp_path):
    doc = {
        "format": "bihom-algebra-file/1",
        "name": "one-dim",
        "parameters": [],
        "hopf": {"group": {"names": ["e"], "table": [[0]], "identity": 0}},
        "rmatrix": [["1"]],
        "objects": {
            "A": {
                "basis": ["u"],
                "action": {"e": [["1"]]},
                "mult": [[0, 0, 0, "1"]],
                "alpha": [["1"]],
                "beta": [["1"]],
                "unit": ["1"],
            }
        },
    }
    p = tmp_path / "one.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(p), "--suite", "all")
    assert code == 0
    assert "all checks passed" in out


@pytest.mark.parametrize("name", catalog_names())
def test_golden_check_all_reports(capsys, name):
    code, out, _ = run(capsys, "check", name, "--suite", "all", "--json")
    assert code == 0
    expected = json.loads((GOLDEN / f"check_all_{name}.json").read_text())
    assert json.loads(out) == expected


@pytest.mark.parametrize(
    "name,what,extra",
    [
        ("example25-heisenberg", "center", ["--object", "L"]),
        ("example25-heisenberg", "derived-series", ["--object", "L"]),
        ("example25-heisenberg", "lcs", ["--object", "L", "--space", "0,0,1"]),
        ("example25-heisenberg", "certificate", ["--object", "L"]),
        ("example25-twisted", "center", ["--object", "L"]),
        ("example24", "certificate", ["--object", "A"]),
        ("cross-product-classical", "derived-series", ["--object", "L"]),
        ("trivial-hopf", "certificate", ["--object", "A"]),
    ],
)
def test_golden_structure_reports(capsys, name, what, extra):
    code, out, _ = run(capsys, "structure", name, "--what", what, "--json", *extra)
    assert code == 0
    expected = json.loads((GOLDEN / f"structure_{what}_{name}.json").read_text())
    assert json.loads(out) == expected

"""File format: parse/print round trips, validation findings, substitution."""

import json
import sys
from fractions import Fraction

import pytest

from bihomcheck import linalg
from bihomcheck.algfile import (
    AlgebraFile,
    AlgebraObject,
    parse_algebra_file,
    print_algebra_file,
    substitute_file,
)
from bihomcheck.catalog import catalog_file, catalog_names
from bihomcheck.cli import main
from bihomcheck.errors import (
    DenominatorVanishes,
    NotAGroup,
    ParseError,
    UnboundParameter,
    ValidationError,
)
from bihomcheck.hopf import HopfAlgebra, group_algebra
from bihomcheck.linalg import Matrix, nested_tensor
from shipped import shipped
from test_cli_pins import FILES


def test_catalog_files_parse_and_round_trip_byte_identically():
    for name in catalog_names():
        f = catalog_file(name)
        text = print_algebra_file(f)
        parsed = parse_algebra_file(text)
        again = print_algebra_file(parsed)
        assert again == text, f"round trip changed bytes for {name}"
        # a second cycle is also a fixed point
        assert print_algebra_file(parse_algebra_file(again)) == again


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_algebra_file("{ not json ")
    assert err.value.line is not None


def example24_doc():
    return json.loads(print_algebra_file(catalog_file("example24")))


def test_out_of_range_triple_is_reported_with_path():
    doc = example24_doc()
    doc["objects"]["A"]["mult"].append([0, 7, 0, "1"])
    with pytest.raises(ValidationError) as err:
        parse_algebra_file(json.dumps(doc))
    assert any("objects.A.mult" in item and "(0,7,0)" in item for item in err.value.findings)


def test_missing_beta_is_reported():
    doc = example24_doc()
    del doc["objects"]["A"]["beta"]
    with pytest.raises(ValidationError) as err:
        parse_algebra_file(json.dumps(doc))
    assert any("beta required" in item for item in err.value.findings)


def test_bad_scalar_and_bad_action_collected_together():
    doc = example24_doc()
    doc["objects"]["A"]["alpha"][0][0] = "q + 1"  # undeclared parameter
    del doc["objects"]["A"]["action"]["g"]
    with pytest.raises(ValidationError) as err:
        parse_algebra_file(json.dumps(doc))
    findings = "\n".join(err.value.findings)
    assert "alpha" in findings and "action" in findings


def test_bad_scalar_echo_is_clipped():
    doc = json.loads(print_algebra_file(catalog_file("kz2")))
    doc["rmatrix"][0][1] = "1" * 5000
    with pytest.raises(ValidationError) as err:
        parse_algebra_file(json.dumps(doc))
    (finding,) = err.value.findings
    assert finding.startswith("rmatrix[0][1]: bad scalar '1111")
    assert "(5000 characters)" in finding and "5000 digits exceeds the limit" in finding
    assert len(finding) < 200


def test_mult_and_bracket_are_mutually_exclusive():
    doc = example24_doc()
    doc["objects"]["A"]["bracket"] = []
    with pytest.raises(ValidationError) as err:
        parse_algebra_file(json.dumps(doc))
    assert any("exactly one of" in item for item in err.value.findings)


def test_bad_group_table_is_reported():
    doc = example24_doc()
    doc["hopf"]["group"]["table"] = [[1, 0], [0, 1]]
    with pytest.raises(ValidationError) as err:
        parse_algebra_file(json.dumps(doc))
    assert any("identity" in item for item in err.value.findings)


@pytest.mark.parametrize(
    "where,names",
    [("group", ["e", "e"]), ("group", [["e"], "g"]), ("object", ["x1", "x1"]), ("object", [])],
)
def test_repeated_or_malformed_basis_names_are_reported(where, names):
    # repeated Hopf names would make two elements read one action matrix
    doc = example24_doc()
    if where == "group":
        doc["hopf"]["group"]["names"] = names
    else:
        doc["objects"]["A"]["basis"] = names
    with pytest.raises(ValidationError) as err:
        parse_algebra_file(json.dumps(doc))
    assert any("distinct basis names" in item for item in err.value.findings)


_DELETE = object()


def first_error(capsys, tmp_path, doc, keys, value):
    """The exit code and first stderr line of ``check`` on ``doc`` with the
    entry at ``keys`` set to ``value`` (deleted for ``_DELETE``); no run
    may end in a traceback."""
    *path, last = keys
    node = doc
    for k in path:
        node = node[k]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code = main(["check", str(p)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err.splitlines()[0]


@pytest.mark.parametrize(
    "keys, value, line",
    [
        (("parameters",), ["b", "b"], "parameters: duplicate parameter names"),
        (("objects",), [], "objects: expected a map of named objects"),
        (("objects", "A"), 3, "objects.A: expected an object"),
        (("hopf", "raw"), [], "hopf.raw: expected an object"),
        (("hopf",), {"group": 3}, "hopf.group: expected an object"),
        (("hopf", "raw", "names"), ["e", "e"],
         "hopf.raw.names: expected a nonempty list of distinct basis names"),
        (("hopf", "raw", "unit"), ["1"], "hopf.raw.unit: expected a vector of length 2"),
        (("hopf", "raw", "mult"), "1",
         "hopf.raw.mult: expected a list of (i, j, k, scalar) rows"),
        (("hopf", "raw", "comult", 1), [1, 1, "1"], "hopf.raw.comult[1]: expected [i, j, k, scalar]"),
        (("objects", "A", "dim"), 3, "objects.A.dim: declared 3 but basis has 2 names"),
        (("objects", "A", "action"), [],
         "objects.A.action: expected a map from Hopf basis names to matrices"),
        (("objects", "A", "action", "h"), [["1", "0"], ["0", "1"]],
         "objects.A.action: unknown Hopf element names ['h']"),
        (("objects", "A", "alpha"), _DELETE, "objects.A.alpha: alpha required"),
        (("objects", "A", "multiplicative"), "yes",
         "objects.A.multiplicative: expected true or false"),
    ],
)
def test_malformed_sections_are_located_input_errors(capsys, tmp_path, keys, value, line):
    doc = example24_doc()
    if keys[:2] == ("hopf", "raw"):
        doc["hopf"] = {"raw": raw_kz2()}
    assert first_error(capsys, tmp_path, doc, keys, value) == (2, f"error: {line}")


@pytest.mark.parametrize(
    "keys, value, line",
    [
        (("objects", "A", "mult", 2), [True, 0, 0, "1"],
         "objects.A.mult[2]: triple (True,0,0) is not three indices below 2"),
        (("hopf", "group", "table", 1, 1), False,
         "hopf.group: cell (1,1) = False is not an element index"),
        (("hopf", "group", "identity"), False,
         "hopf.group: needs 'table' (list of rows) and 'identity' (index)"),
        (("objects", "A", "dim"), True, "objects.A.dim: declared true but basis has 2 names"),
        (("objects", "A", "mult", 2), [0, 1, 1, True],
         "objects.A.mult[2][3]: expected a scalar string, got bool"),
        (("objects", "A", "alpha", 0, 0), True,
         "objects.A.alpha[0][0]: expected a scalar string, got bool"),
    ],
)
def test_json_booleans_are_not_integers(capsys, tmp_path, keys, value, line):
    # Python counts a bool as an int, so true and false would pass as 1 and 0
    doc = example24_doc()
    assert first_error(capsys, tmp_path, doc, keys, value) == (2, f"error: {line}")


def test_a_group_table_of_booleans_is_not_a_group():
    with pytest.raises(NotAGroup, match="cell"):
        group_algebra([[0, 1], [1, False]], 0)
    with pytest.raises(NotAGroup, match="identity"):
        group_algebra([[0, 1], [1, 0]], False)


def test_substitute_file_full_binding():
    f = catalog_file("example24")
    g = substitute_file(f, {"b": 3})
    assert g.parameters == ()
    obj = g.objects["A"]
    assert str(obj.beta.at(1, 1)) == "3"
    assert str(obj.tensor.at(1, 1)) == "3"


def test_substitute_file_rejects_unknown_name():
    f = catalog_file("example24")
    with pytest.raises(ValidationError):
        substitute_file(f, {"zz": 1})


def test_substitute_file_partial_binding_fails_when_parameters_occur():
    f = catalog_file("example25-twisted")
    with pytest.raises(UnboundParameter):
        substitute_file(f, {"l1": 2})


def test_substitute_file_pole_detection():
    doc = example24_doc()
    doc["objects"]["A"]["alpha"][0][0] = "1/b"
    f = parse_algebra_file(json.dumps(doc))
    with pytest.raises(DenominatorVanishes):
        substitute_file(f, {"b": 0})
    # nonzero binding is fine
    g = substitute_file(f, {"b": 2})
    assert str(g.objects["A"].alpha.at(0, 0)) == "1/2"


def raw_kz2():
    """kZ2 written out with raw tensors instead of a group table."""
    return {
        "names": ["e", "g"],
        "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
        "unit": ["1", "0"],
        "comult": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
        "counit": ["1", "1"],
        "antipode": [["1", "0"], ["0", "1"]],
    }


def test_raw_hopf_spec_round_trip():
    doc = {
        "format": "bihom-algebra-file/1",
        "name": "raw-kz2",
        "parameters": [],
        "hopf": {"raw": raw_kz2()},
        "rmatrix": [["1/2", "1/2"], ["1/2", "-1/2"]],
        "objects": {},
    }
    f = parse_algebra_file(json.dumps(doc))
    from bihomcheck.hopf import check_hopf_axioms

    assert check_hopf_axioms(f.hopf).ok
    text = print_algebra_file(f)
    assert print_algebra_file(parse_algebra_file(text)) == text


def test_hopf_section_prints_canonically():
    # non-canonical cells, out-of-order keys and triples, and keys the
    # parser does not read
    raw = {
        "colour": "red",
        "antipode": [["2/2", 0], [0, "t-t+1"]],
        "counit": [1, "(t+1)/(t+1)"],
        "unit": ["1", "0*t"],
        "comult": [[1, 1, 1, "2-1"], [0, 0, 0, 1]],
        "mult": [[1, 1, 0, "1"], [0, 0, 0, "3/3"], [1, 0, 1, "1"], [0, 1, 1, "1"]],
        "names": ["e", "g"],
    }
    doc = {
        "format": "bihom-algebra-file/1",
        "name": "raw-kz2",
        "parameters": ["t"],
        "hopf": {"raw": raw},
        "rmatrix": [["1", "0"], ["0", "0"]],
        "objects": {},
    }
    text = print_algebra_file(parse_algebra_file(json.dumps(doc)))
    assert json.loads(text)["hopf"] == {
        "raw": {
            "names": ["e", "g"],
            "mult": [[1, 1, 0, "1"], [0, 0, 0, "1"], [1, 0, 1, "1"], [0, 1, 1, "1"]],
            "comult": [[1, 1, 1, "1"], [0, 0, 0, "1"]],
            "unit": ["1", "0"],
            "counit": ["1", "1"],
            "antipode": [["1", "0"], ["0", "1"]],
        }
    }
    assert print_algebra_file(parse_algebra_file(text)) == text
    doc["hopf"] = {"group": {"identity": 0, "colour": "red", "table": [[0, 1], [1, 0]]}}
    text = print_algebra_file(parse_algebra_file(json.dumps(doc)))
    assert list(json.loads(text)["hopf"]["group"]) == ["table", "identity"]
    assert print_algebra_file(parse_algebra_file(text)) == text


def test_raw_antipode_cells_print_as_parsed():
    # the antipode is read sparse, and every cell still prints from its own
    # parsed value: a JSON int, a fraction not in lowest terms, a zero that
    # is not the text "0", and "0" itself
    doc = {
        "format": "bihom-algebra-file/1",
        "name": "raw-kz2",
        "parameters": ["t"],
        "hopf": {
            "raw": {
                "names": ["e", "g"],
                "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
                "comult": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
                "unit": ["1", "0"],
                "counit": ["1", "1"],
                "antipode": [[1, "0"], ["0*t", "2/4"]],
            }
        },
        "rmatrix": [["1", "0"], ["0", "0"]],
        "objects": {},
    }
    f = parse_algebra_file(json.dumps(doc))
    assert f.hopf.antipode.data == [{0: 1}, {1: Fraction(1, 2)}]
    printed = json.loads(print_algebra_file(f))["hopf"]["raw"]["antipode"]
    assert printed == [["1", "0"], ["0", "1/2"]]


def test_wrong_format_marker_is_rejected():
    doc = example24_doc()
    doc["format"] = "something-else/9"
    with pytest.raises(ValidationError) as err:
        parse_algebra_file(json.dumps(doc))
    assert any("format" in item for item in err.value.findings)


def test_bracket_object_rejects_the_product_only_fields():
    doc = json.loads(print_algebra_file(catalog_file("example25-twisted")))
    doc["objects"]["L"]["multiplicative"] = False
    doc["objects"]["L"]["unit"] = ["1", "0", "0"]
    with pytest.raises(ValidationError) as err:
        parse_algebra_file(json.dumps(doc))
    assert err.value.findings == [
        "objects.L.unit: only a product object has a unit",
        "objects.L.multiplicative: only a product object has a multiplicative flag",
    ]


def test_repeated_and_cancelling_triples_sum_into_the_matrix():
    doc = example24_doc()
    doc["objects"]["A"]["mult"] = [
        [0, 0, 0, "1"], [0, 1, 1, "b"], [0, 0, 0, "-1"], [1, 0, 1, "-1/2"], [1, 0, 1, "-1/2"],
    ]
    f = parse_algebra_file(json.dumps(doc))
    tensor = f.objects["A"].tensor
    # (0, 0, 0) cancelled and is not stored; (1, 0, 1) is one summed entry
    assert [sorted(row) for row in tensor.data] == [[], [1, 2]]
    assert [str(tensor.at(1, c)) for c in (1, 2)] == ["b", "-1"]
    printed = json.loads(print_algebra_file(f))
    assert printed["objects"]["A"]["mult"] == [[0, 1, 1, "b"], [1, 0, 1, "-1"]]


@pytest.mark.parametrize("name", [*catalog_names(), *FILES])
def test_parsed_objects_hold_the_structure_matrix(name):
    f = parse_algebra_file(json.dumps(FILES[name])) if name in FILES else catalog_file(name)
    g = parse_algebra_file(print_algebra_file(f))
    assert (g.hopf.M, g.hopf.C) == (f.hopf.M, f.hopf.C)
    assert "mult" not in vars(g.hopf) and "comult" not in vars(g.hopf)
    assert sorted(g.objects) == sorted(f.objects)
    for oname, obj in g.objects.items():
        structure = f.objects[oname].structure(f.rmatrix)
        assert isinstance(obj.tensor, Matrix)
        assert obj.tensor == structure.structure_matrix()
        assert AlgebraObject.of(oname, structure).tensor is structure.structure_matrix()
        if obj.reference_bracket is not None:
            assert isinstance(obj.reference_bracket, Matrix)
            assert obj.reference_bracket == f.objects[oname].reference_bracket


def test_nested_and_matrix_objects_print_the_same_bytes():
    # the benchmark's file generator builds objects from nested tensors
    f = catalog_file("example24")
    a = shipped("example24", "A")
    reference = f.objects["A"].reference_bracket

    def text(tensor, ref):
        obj = AlgebraObject(
            name="A", basis=list(a.module.basis_names), module=a.module, kind="mult",
            tensor=tensor, alpha=a.alpha.matrix, beta=a.beta.matrix, unit=a.unit,
            reference_bracket=ref,
        )
        return print_algebra_file(
            AlgebraFile(f.name, f.parameters, f.hopf_spec, f.hopf, f.rmatrix, {"A": obj})
        )

    nested = text(a.mult, nested_tensor(reference))
    assert nested == text(a.structure_matrix(), reference) == print_algebra_file(f)


def test_nested_views_invert_the_stored_matrices():
    h = catalog_file("kz2").hopf
    assert "mult" not in vars(h) and "comult" not in vars(h)
    again = HopfAlgebra(h.basis_names, h.mult, h.unit, h.comult, h.counit, h.antipode)
    assert (again.M, again.C) == (h.M, h.C)
    # g g = e, and the coproduct of g is g (x) g
    assert h.mult[1][1][0].is_one() and h.mult[1][1][1].is_zero()
    assert h.comult[1][1][1].is_one() and h.comult[1][0][0].is_zero()
    assert h.mult is h.mult  # built once per object


@pytest.mark.parametrize("name", catalog_names())
def test_check_on_a_parsed_file_converts_no_nested_list(name, tmp_path, monkeypatch, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(print_algebra_file(catalog_file(name)))
    nested = []
    original = linalg.tensor_matrix

    def counting(tensor, *args, **kwargs):
        if not isinstance(tensor, Matrix):
            nested.append(tensor)
        return original(tensor, *args, **kwargs)

    # the modules that convert structure constants import the adaptor by name
    for mname, module in list(sys.modules.items()):
        if mname.startswith("bihomcheck") and hasattr(module, "tensor_matrix"):
            monkeypatch.setattr(module, "tensor_matrix", counting)
    assert main(["check", str(path), "--suite", "all"]) in (0, 1)
    capsys.readouterr()
    assert nested == []

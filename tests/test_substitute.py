"""``--set``: substitution maps the parsed model, checked against a text oracle.

``reference_substitute`` is the older implementation, kept here as a
test-only oracle: it prints the file to JSON, substitutes every string in
a scalar position (guessed by key name) and parses the result again.
``substitute_file`` must print to the same bytes and raise the same
errors, without any text round trip.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from bihomcheck import algfile
from bihomcheck.algfile import parse_algebra_file, print_algebra_file, substitute_file
from bihomcheck.catalog import catalog_file
from bihomcheck.errors import BihomError, ValidationError, quoted
from bihomcheck.scalars import MAX_INT_DIGITS, parse_scalar, too_long_to_print
from test_cli_pins import FILES
from test_scalar_pins import files


def reference_substitute(f, bindings):
    """The file at a point through print, JSON and parse."""
    unknown = sorted(set(bindings) - set(f.parameters))
    if unknown:
        raise ValidationError([f"--set: unknown parameter names {unknown}"])
    new = json.loads(print_algebra_file(f))
    remaining = [p for p in f.parameters if p not in bindings]

    def sub_scalar(s):
        v = parse_scalar(str(s), f.parameters).substitute(bindings)
        if too_long_to_print(v):
            raise ValidationError(
                [f"--set: {quoted(s)} becomes a number of more than {MAX_INT_DIGITS} digits"]
            )
        return str(v.reparametrize(tuple(remaining)))

    fields = ("format", "name", "parameters", "basis", "names")

    def walk(node, in_scalar_position, named=False):
        # the keys of the action and objects maps are names, not fields
        if isinstance(node, dict) and named:
            return {k: walk(v, True) for k, v in node.items()}
        if isinstance(node, dict):
            return {k: walk(v, k not in fields, k in ("action", "objects")) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v, in_scalar_position) for v in node]
        if isinstance(node, str) and in_scalar_position:
            return sub_scalar(node)
        return node

    new = walk(new, False)
    new["parameters"] = remaining
    return parse_algebra_file(json.dumps(new))


# the catalog, Sweedler H4 and Yau M2 of the scalar pins, and the R-matrix files
FILES_AT_A_POINT = {
    **files(),
    **{name: parse_algebra_file(json.dumps(doc)) for name, doc in FILES.items()},
}


def outcome(substitute, f, bindings):
    """The printed file, or the type and message of the error raised."""
    try:
        return print_algebra_file(substitute(f, bindings))
    except ValidationError as exc:
        return type(exc).__name__, exc.findings
    except BihomError as exc:
        return type(exc).__name__, str(exc)


def seeded_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _matrices(f):
    h = f.hopf
    yield from (h.M, h.C, h.u, h.eps, h.antipode, f.rmatrix.coefficients)
    for o in f.objects.values():
        yield from o.module.action
        yield from (o.tensor, o.alpha, o.beta, o.twist_alpha, o.twist_beta, o.reference_bracket)


@pytest.mark.parametrize("name", sorted(FILES_AT_A_POINT))
def test_substitution_matches_the_text_round_trip(name):
    f = FILES_AT_A_POINT[name]
    rng = random.Random(f"set:{name}")
    points = [{p: seeded_rational(rng) for p in f.parameters} for _ in range(4)]
    # every parameter at zero sends stored entries to zero (and hits poles)
    points.append({p: 0 for p in f.parameters})
    for bindings in points:
        want = outcome(reference_substitute, f, bindings)
        got = outcome(substitute_file, f, bindings)
        # when several scalars fail, the oracle names the first in printed
        # order and the map the first in model order, which differ inside a
        # structure matrix (sorted triples against rows): the error type agrees
        assert (got if isinstance(got, str) else got[0]) == (
            want if isinstance(want, str) else want[0]
        ), bindings
        if isinstance(want, str):
            g = substitute_file(f, bindings)
            assert g.parameters == ()
            # the sparse rule: no matrix stores a zero
            for m in filter(None, _matrices(g)):
                assert all(x != 0 for row in m.data for x in row.values())


def test_example24_at_b_zero_drops_the_entries_it_zeroes():
    f = catalog_file("example24")
    g = substitute_file(f, {"b": 0})
    assert print_algebra_file(g) == print_algebra_file(reference_substitute(f, {"b": 0}))
    obj = g.objects["A"]
    # b sat at (1, 1) of beta and at x1 x2 in the tensor
    assert 1 not in obj.beta.data[1]
    assert obj.tensor.data[1] == {2: obj.tensor.at(1, 2)}


def _example24_doc(**cells):
    doc = json.loads(print_algebra_file(catalog_file("example24")))
    for key, value in cells.items():
        doc["objects"]["A"][key][1][1] = value
    return doc


def test_a_parameter_that_does_not_occur_may_stay_unbound():
    doc = _example24_doc()
    doc["parameters"] = ["b", "c"]
    doc["objects"]["A"]["alpha"][0][0] = "c/c"
    f = parse_algebra_file(json.dumps(doc))
    g = substitute_file(f, {"b": Fraction(1, 3)})
    assert g.parameters == ("c",)
    assert print_algebra_file(g) == print_algebra_file(reference_substitute(f, {"b": Fraction(1, 3)}))


@pytest.mark.parametrize(
    "f,bindings,finding",
    [
        (catalog_file("example24"), {"zz": 1}, ("ValidationError", ["--set: unknown parameter names ['zz']"])),
        (catalog_file("example25-twisted"), {"l1": 2}, ("UnboundParameter", "parameter 'l2p' is unbound")),
        (
            parse_algebra_file(json.dumps(_example24_doc(alpha="1/(b+1)"))),
            {"b": -1},
            ("DenominatorVanishes", "denominator b + 1 vanishes"),
        ),
        (
            parse_algebra_file(json.dumps(_example24_doc(beta="b^1000"))),
            {"b": 99999},
            (
                "ValidationError",
                ["--set: 'b^1000' becomes a number of more than 4300 digits"],
            ),
        ),
    ],
    ids=["unknown-name", "unbound", "pole", "digit-bound"],
)
def test_findings_match_the_text_round_trip(f, bindings, finding):
    assert outcome(substitute_file, f, bindings) == finding
    assert outcome(reference_substitute, f, bindings) == finding


def test_set_makes_no_text_round_trip(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("text round trip")

    class NoJson:
        def __getattr__(self, name):
            refuse()

    todo = [(f, {p: 3 for p in f.parameters}) for f in FILES_AT_A_POINT.values()]
    for name in ("print_algebra_file", "parse_algebra_file", "parse_scalar"):
        monkeypatch.setattr(algfile, name, refuse)
    monkeypatch.setattr(algfile, "json", NoJson())
    for f, bindings in todo:
        substitute_file(f, bindings)

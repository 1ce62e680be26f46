"""Fuzzed inputs keep the input contract.

Algebra files made by mutating the catalog files (a value replaced by an
arbitrary JSON value, a key or list entry dropped, the text cut short) make
``parse_algebra_file`` raise ``ParseError`` or ``ValidationError`` and
nothing else. Command lines made of a fuzzed file, a file that is not
UTF-8 or is nested too deep, or a catalog name, subcommands and flags with
odd values make ``cli.main`` return an exit code from 0 to 3 without
raising. Both fuzzers are derandomized with small fixed example budgets,
and the command-line fuzzer always runs the two odd files as explicit
examples.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from bihomcheck import cli
from bihomcheck.algfile import parse_algebra_file, print_algebra_file
from bihomcheck.catalog import catalog_file, catalog_names
from bihomcheck.errors import ParseError, ValidationError
from test_scalars import DEEP_TEXTS

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(deadline=None, derandomize=True, database=None)

DOCS = {name: json.loads(print_algebra_file(catalog_file(name))) for name in catalog_names()}

# scalar texts that parse, fail to parse, or sit at a bound
ODD_TEXTS = [
    "0", "1", "-1", "1/2", "1/0", "b", "t", "a^", "(a+1", "2^1001", "b^1000", "1" * 5000,
    "x", "", " ", "1e999999999", "nan", "l1*l2", "(a+2)^299/(a+3)^299", *DEEP_TEXTS,
]

leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.sampled_from([10**30, -(10**30), 2**63])
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.sampled_from(ODD_TEXTS)
    | st.text(max_size=6)
)
json_values = st.recursive(
    leaves,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=10,
)


def _mutate(data, doc):
    """One mutation at a node reached by drawn keys and indices."""
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(list(keys)))
        node = node[key]
    if parent is None:
        return data.draw(json_values) if data.draw(st.integers(0, 5)) == 0 else doc
    action = data.draw(st.sampled_from(["replace", "replace", "drop", "copy"]))
    if action == "replace":
        parent[key] = data.draw(json_values)
    elif action == "drop":
        del parent[key]
    elif isinstance(parent, list):
        parent.append(parent[key])
    else:
        parent[data.draw(st.text(max_size=6))] = parent[key]
    return doc


@st.composite
def algebra_texts(draw):
    doc = json.loads(json.dumps(DOCS[draw(st.sampled_from(sorted(DOCS)))]))
    data = draw(st.data())
    for _ in range(draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    text = json.dumps(doc)
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _with_first_r_entry(text):
    doc = json.loads(json.dumps(DOCS["kz2"]))
    doc["rmatrix"][0][0] = text
    return json.dumps(doc)


def test_fuzzed_files_raise_only_input_errors():
    @hypothesis.settings(SETTINGS, max_examples=150)
    @hypothesis.given(text=algebra_texts())
    @hypothesis.example(text=_with_first_r_entry(DEEP_TEXTS[0]))
    @hypothesis.example(text=_with_first_r_entry(DEEP_TEXTS[1]))
    def check(text):
        try:
            parse_algebra_file(text)
        except (ParseError, ValidationError):
            pass

    check()


FLAG_VALUES = {
    "--suite": ["all", "hopf", "module", "bihom-lie", "lemma31", "nope"],
    "construct --what": ["commutator", "twist", "nope"],
    "structure --what": ["center", "derived-series", "lcs", "ideal-check", "closure",
                         "certificate", "nope"],
    "--object": ["A", "L", "nope", ""],
    "--space": ["0", "full", "1,0,0", "0,0,1", "1,0", "1,0,0,0", "a,b", "1/0,0,0", "b,1", ";", ""],
    # a tuple is several tokens: ("b=1", "--set", "b=2") repeats the name
    "--set": ["b=2", "b=0", "t=1/2", "b=", "=1", "b=x", "b=1e999999999", "b=99999", "zz=1",
              ("b=1", "--set", "b=2")],
    "--probe-seed": ["0", "7", "-1", "x"],
}
# each subcommand's flags; the first ones are the flags it requires
FLAGS = {
    "check": ["--suite", "--set", "--json", "--output"],
    "construct": ["--what", "--output", "--object", "--set", "--json"],
    "structure": ["--what", "--object", "--space", "--set", "--probe-seed",
                  "--json", "--output"],
    "print": ["--output"],
    "catalog": ["--json"],
}
REQUIRED = {"construct": 2, "structure": 1}
# files no JSON document prints: bytes that are not UTF-8 (a UTF-16
# byte-order mark) and nesting deeper than the decoder's recursion limit
ODD_FILES = {"utf16.json": b"\xff\xfe{\x00}\x00", "deep.json": b"[" * 100_000}


@st.composite
def command_lines(draw, tmp: pathlib.Path):
    """An argv list: a subcommand, a catalog name or a file holding a
    catalog or fuzzed file, its required flags most of the time, a few
    more of its flags with odd values, and now and then a stray token."""
    path = tmp / "in.json"
    path.write_text(
        draw(st.sampled_from(sorted(DOCS)).map(lambda n: json.dumps(DOCS[n])) | algebra_texts()),
        encoding="utf-8",
    )
    command = draw(st.sampled_from(sorted(FLAGS)))
    refs = [str(path)] * 3 + sorted(DOCS) + [str(tmp / "missing.json")]
    ref = draw(st.sampled_from(refs + [str(tmp / name) for name in ODD_FILES]))
    argv = [command] if command == "catalog" else [command, ref]
    flags = FLAGS[command]
    required = flags[: REQUIRED.get(command, 0)] if draw(st.integers(0, 9)) else []
    for flag in required + draw(st.lists(st.sampled_from(flags), max_size=3)):
        argv.append(flag)
        if flag == "--output":
            outputs = [str(tmp / "out.json"), str(tmp / "no" / "out.json")]
            argv.append(draw(st.sampled_from(outputs)))
        elif flag != "--json":
            values = FLAG_VALUES.get(flag) or FLAG_VALUES[f"{command} {flag}"]
            value = draw(st.sampled_from(values))
            argv.extend(value if isinstance(value, tuple) else [value])
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-h", "x"])))
    return argv


def test_fuzzed_command_lines_return_an_exit_code():
    with tempfile.TemporaryDirectory() as name:
        tmp = pathlib.Path(name)
        for odd, data in ODD_FILES.items():
            (tmp / odd).write_bytes(data)

        @hypothesis.settings(SETTINGS, max_examples=60)
        @hypothesis.given(argv=command_lines(tmp))
        @hypothesis.example(argv=["check", str(tmp / "utf16.json")])
        @hypothesis.example(argv=["print", str(tmp / "utf16.json")])
        @hypothesis.example(argv=["check", str(tmp / "deep.json"), "--json"])
        @hypothesis.example(argv=["print", str(tmp / "deep.json")])
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 2, 3), argv

        check()

"""What a fresh ``bihomcheck`` process loads, and the record classes.

A check must not import ``dataclasses`` (which pulls in ``inspect``,
``ast``, ``dis`` and ``tokenize``), ``importlib.resources`` (which pulls in
``pathlib``, ``tempfile`` and ``zipfile``; the catalog files are opened by
path) or the structure theory, which only the structure command loads. The
record classes of the reports, the algebra file model and the structure
certificates are plain classes; their constructors take their fields
positionally and by keyword, with the same defaults as before.
"""

import json
import os
import pathlib
import subprocess
import sys

from bihomcheck.algfile import AlgebraFile, AlgebraObject, print_algebra_file
from bihomcheck.catalog import catalog_file
from bihomcheck.linalg import Subspace
from bihomcheck.report import CheckEntry, CheckReport, Witness
from bihomcheck.structure import Certificate

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
WATCHED = ("dataclasses", "inspect", "importlib.resources", "bihomcheck.structure")

SCRIPT = f"""
import contextlib, io, json, sys
from bihomcheck.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return [code, out.getvalue(), [m for m in {WATCHED!r} if m in sys.modules]]

check = run("check", "example24", "--suite", "all", "--json")
center = run("structure", "example25-heisenberg", "--what", "center", "--object", "L", "--json")
print(json.dumps([check, center]))
"""


def test_a_cold_check_loads_neither_dataclasses_nor_the_structure_theory():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, path)),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    # -S: no site, so a .pth file of the environment that imports a watched
    # module at start-up is not counted against the program
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT], capture_output=True, text=True, env=env, check=True
    )
    check, center = json.loads(proc.stdout)
    assert check == [0, (GOLDEN / "check_all_example24.json").read_text(encoding="utf-8"), []]
    golden = (GOLDEN / "structure_center_example25-heisenberg.json").read_text(encoding="utf-8")
    assert center == [0, golden, ["bihomcheck.structure"]]


def test_algebra_object_and_file_construct_positionally_and_by_keyword():
    f = catalog_file("example24")
    o = f.objects["A"]
    fields = (o.name, o.basis, o.module, o.kind, o.tensor, o.alpha, o.beta, o.unit,
              o.multiplicative, o.twist_alpha, o.twist_beta, o.reference_bracket)
    positional = AlgebraObject(*fields)
    keyword = AlgebraObject(
        name=o.name, basis=o.basis, module=o.module, kind=o.kind, tensor=o.tensor,
        alpha=o.alpha, beta=o.beta, unit=o.unit, reference_bracket=o.reference_bracket,
    )
    assert (keyword.multiplicative, keyword.twist_alpha, keyword.twist_beta) == (True, None, None)
    short = AlgebraObject(o.name, o.basis, o.module, o.kind, o.tensor, o.alpha, o.beta)
    assert (short.unit, short.reference_bracket) == (None, None)

    text = print_algebra_file(f)
    head = (f.name, f.parameters, f.hopf_spec, f.hopf, f.rmatrix)
    for obj in (positional, keyword):
        assert print_algebra_file(AlgebraFile(*head, {"A": obj})) == text
    by_keyword = AlgebraFile(
        name=f.name, parameters=f.parameters, hopf_spec=f.hopf_spec, hopf=f.hopf,
        rmatrix=f.rmatrix, objects={"A": keyword},
    )
    assert print_algebra_file(by_keyword) == text
    # the default object map is a new dict for each file
    empty, other = AlgebraFile(*head), AlgebraFile(*head)
    assert empty.objects == {} and empty.objects is not other.objects


def test_witness_is_equal_and_hashed_by_value():
    w = Witness(("e", "x1"), (("x1", "b"),))
    same = Witness(basis=("e", "x1"), residual=(("x1", "b"),))
    other = Witness(("e", "x1"), (("x1", "-b"),))
    assert w == same and hash(w) == hash(same)
    assert w != other and len({w, same, other}) == 2
    assert w != (("e", "x1"), (("x1", "b"),))


def test_report_and_certificate_records_keep_their_defaults():
    e = CheckEntry("H:assoc", "M(M x id) = M(id x M)", "pass")
    assert (e.witness, e.detail) == (None, "")
    a, b = CheckReport("hopf"), CheckReport(suite="hopf")
    assert (a.entries, a.notes, a.probe_seed) == ([], [], None)
    assert a.entries is not b.entries and a.notes is not b.notes

    ideal = Subspace.full_space(2, ())
    cert = Certificate(ideal, None, None, 0, 8)
    assert cert.nonsimple_ideal is ideal
    assert (cert.nonprime_pair, cert.nonsemiprime_ideal, cert.probe_seed, cert.probes) == (
        None, None, 0, 8,
    )

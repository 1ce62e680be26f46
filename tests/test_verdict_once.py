"""A command decides whether (H, R) is triangular once.

The braided commutator, the twist and the Lemma 3.1 identities rest on one
hypothesis about the pair (H, R). A command decides it once
(``hopf.qt_and_flip``) and hands the verdict to every consumer, and, for
``construct``, validates the result with one run of the generalized
BiHom-Lie suite. The decision solves for the inverse of R
(``RMatrix.inverse_in``) only when flip(R) is not the inverse, so no
command on a catalog name solves at all. In the same way, ``check
--suite all`` builds the braiding and the commutator matrix of a product
object once, for lemma31 and the reference diff, and runs its
module-algebra suite once, for module-algebra and bihom-assoc. Called on
their own, the library functions still decide it on every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

from bihomcheck import bihom, catalog, cli, hmod, hopf
from bihomcheck.catalog import catalog_file, r_triangular_kz2
from bihomcheck.hopf import RMatrix, check_quasitriangular, is_triangular
from bihomcheck.linalg import Matrix
from shipped import shipped

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``hopf.qt_and_flip`` (decisions on (H, R)), of
    ``RMatrix.inverse_in`` (solves) and of the BiHom-Lie suite, wherever
    each is reached from."""
    seen = {"decisions": 0, "solves": 0, "lie suites": 0}

    def counted(key, f):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return f(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(hopf, "qt_and_flip", counted("decisions", hopf.qt_and_flip))
    monkeypatch.setattr(RMatrix, "inverse_in", counted("solves", RMatrix.inverse_in))
    suite = counted("lie suites", bihom.check_generalized_bihom_lie)
    for module in (bihom, cli):
        monkeypatch.setattr(module, "check_generalized_bihom_lie", suite)
    return seen


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize(
    "argv, decisions, suites",
    [
        (["check", "example24", "--suite", "all", "--json"], 1, 1),
        (["check", "cross-product-classical", "--suite", "all", "--json"], 1, 1),
        (["construct", "example24", "--what", "commutator", "--json"], 1, 1),
        (["construct", "example25-heisenberg", "--what", "twist", "--object", "L", "--json"], 1, 1),
        (["check", "kz2", "--suite", "all", "--json"], 1, 0),
    ],
)
def test_one_command_decides_the_pair_once(counts, tmp_path, argv, decisions, suites):
    # every catalog R is triangular, and the R0 of example24 and kz2 has the
    # entries +-1/2, so the products are compared with 4 (1 (x) 1)
    if argv[0] == "construct":
        argv = [*argv, "--output", str(tmp_path / "out.json")]
    assert quiet_main(argv) == 0
    assert counts == {"decisions": decisions, "solves": 0, "lie suites": suites}


def test_a_command_solves_once_when_flip_r_is_not_the_inverse(counts, tmp_path):
    # 2 (1 (x) 1) on kZ2 is invertible, with the inverse (1/2)(1 (x) 1), but
    # R R21 = 4 (1 (x) 1), so the one decision solves once (and qt.1 fails)
    kz2 = pathlib.Path(catalog.__file__).parent / "catalog_files" / "kz2.json"
    doc = json.loads(kz2.read_text(encoding="utf-8"))
    doc["rmatrix"] = [["2", "0"], ["0", "0"]]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert quiet_main(["check", str(path), "--suite", "all", "--json"]) == 1
    assert counts == {"decisions": 1, "solves": 1, "lie suites": 0}
    r = RMatrix(Matrix.from_dicts(2, 2, [{0: 2}, {}], ()))
    assert not is_triangular(catalog_file("kz2").hopf, r)
    assert counts["solves"] == 2


def test_library_calls_keep_no_verdict(counts):
    h, r = catalog_file("kz2").hopf, r_triangular_kz2()
    assert check_quasitriangular(h, r).ok
    assert check_quasitriangular(h, r).ok
    assert is_triangular(h, r)
    assert counts == {"decisions": 2, "solves": 0, "lie suites": 0}


def test_one_command_builds_the_braided_commutator_once(monkeypatch):
    # example24 has a reference bracket, so --suite all reaches the braided
    # commutator twice: from lemma31 and from the reference diff
    seen = {"braidings": 0, "commutator matrices": 0}
    braid, commutator = hmod.braiding, bihom._commutator_matrix

    def counted_braid(*args, **kwargs):
        seen["braidings"] += 1
        return braid(*args, **kwargs)

    def counted_commutator(*args, **kwargs):
        seen["commutator matrices"] += 1
        return commutator(*args, **kwargs)

    for module in (hmod, bihom):
        monkeypatch.setattr(module, "braiding", counted_braid)
    monkeypatch.setattr(bihom, "_commutator_matrix", counted_commutator)
    assert quiet_main(["check", "example24", "--suite", "all", "--json"]) == 0
    assert seen == {"braidings": 1, "commutator matrices": 1}


@pytest.fixture
def module_algebra_suites(monkeypatch):
    """Calls of the module-algebra suite, wherever it is reached from."""
    seen = []
    suite = hmod.check_module_algebra

    def counted_suite(*args, **kwargs):
        seen.append(args)
        return suite(*args, **kwargs)

    for module in (bihom, cli):
        monkeypatch.setattr(module, "check_module_algebra", counted_suite)
    return seen


@pytest.mark.parametrize(
    "name, products",
    [("example24", 1), ("example25-heisenberg", 1), ("trivial-hopf", 1), ("kz2", 0)],
)
def test_one_command_runs_the_module_algebra_suite_once(module_algebra_suites, name, products):
    # --suite all reports it twice: as its own suite and inside bihom-assoc
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["check", name, "--suite", "all", "--json"]) == 0
    assert len(module_algebra_suites) == products
    report = json.loads(out.getvalue())
    assert report == json.loads((GOLDEN / f"check_all_{name}.json").read_text())
    ids = [e["id"] for e in report["entries"]]
    assert sum(i.endswith(":module-algebra.equivariance") for i in ids) == 2 * products


def test_bihom_assoc_alone_runs_the_module_algebra_suite(module_algebra_suites):
    assert quiet_main(["check", "example24", "--suite", "bihom-assoc", "--json"]) == 0
    assert len(module_algebra_suites) == 1
    assert bihom.check_bihom_associative(shipped("example24", "A")).ok
    assert len(module_algebra_suites) == 2

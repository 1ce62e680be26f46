"""A command builds the structure of each file object once.

Each object of an algebra file is one BiHom-associative algebra or one
generalized BiHom-Lie algebra. ``check`` builds it once and hands it to every
suite that acts on it, and ``structure`` builds the chosen object once for
its computation. Loading a catalog file parses it: that builds one Hopf
algebra and no structure.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from bihomcheck import bihom, cli
from bihomcheck.catalog import catalog_file
from bihomcheck.hopf import HopfAlgebra


@pytest.fixture
def built(monkeypatch):
    """The type name of every structure built, in order."""
    seen = []
    init = bihom._StructureBase.__init__

    def counted_init(self, *args, **kwargs):
        seen.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(bihom._StructureBase, "__init__", counted_init)
    return seen


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture
def parsed(tmp_path):
    """Path of the printed file of a catalog entry."""

    def path(name):
        p = tmp_path / f"{name}.json"
        assert quiet_main(["print", name, "--output", str(p)]) == 0
        return str(p)

    return path


@pytest.mark.parametrize(
    "name, structures",
    [
        # one product object; its reference diff builds the commutator bracket
        ("example24", ["BiHomAlgebra", "BiHomLie"]),
        ("trivial-hopf", ["BiHomAlgebra"]),
        ("example25-twisted", ["BiHomLie"]),
        ("example25-heisenberg", ["BiHomAlgebra", "BiHomLie"]),
    ],
)
def test_check_all_builds_each_object_once(built, parsed, name, structures):
    path = parsed(name)
    built.clear()
    assert quiet_main(["check", path, "--suite", "all", "--json"]) == 0
    assert sorted(built) == structures


@pytest.mark.parametrize(
    "argv",
    [
        ["--what", "ideal-check", "--object", "A", "--space", "1,0"],
        ["--what", "closure", "--object", "A", "--space", "1,0"],
        ["--what", "certificate", "--object", "A"],
    ],
)
def test_structure_builds_the_object_once(built, parsed, argv):
    path = parsed("example24")
    built.clear()
    assert quiet_main(["structure", path, *argv]) in (0, 1)
    assert built == ["BiHomAlgebra"]


def test_heisenberg_catalog_file_builds_one_hopf_algebra(built, monkeypatch):
    # parsing builds the file's Hopf algebra once, its objects' modules over
    # it, and no BiHomAlgebra or BiHomLie
    hopfs = []
    init = HopfAlgebra.__init__

    def counted_init(self, *args, **kwargs):
        hopfs.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HopfAlgebra, "__init__", counted_init)
    f = catalog_file("example25-heisenberg")
    assert len(hopfs) == 1
    assert built == []
    assert f.hopf is hopfs[0]
    assert f.objects["A"].module.hopf is f.objects["L"].module.hopf is f.hopf

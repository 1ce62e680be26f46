"""Pinned text of scalars.

``tests/witnesses/scalars.json`` holds the printed form (``str``) of every
scalar in every catalog file and in the two generated parametric files of
the benchmark (Sweedler H4 over Q(t) and the Yau-twisted M2 over Q(s, t)),
and of ``+``, ``-``, ``*``, ``/`` and ``inverse`` on seeded pairs of them.
The pairs come in two rounds: the second combines results of the first, so
that denominators with several terms and common factors to cancel are met.
A change to how scalars are held or reduced must print every pinned value
byte for byte.

Regenerate the pins (only when an output changes on purpose) with

    PYTHONPATH=src python tests/test_scalar_pins.py
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import random

from bihomcheck.algfile import parse_algebra_file
from bihomcheck.catalog import catalog_file, catalog_names
from bihomcheck.errors import DivisionByZero

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "witnesses" / "scalars.json"

PAIRS_PER_ROUND = 40


def _benchmark_instances():
    spec = importlib.util.spec_from_file_location("bench_instances", ROOT / "perfbench" / "instances.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def files():
    out = {name: catalog_file(name) for name in catalog_names()}
    bench = _benchmark_instances()
    out["sweedler-h4"] = parse_algebra_file(bench.sweedler_h4_file())
    out["yau-m2"] = parse_algebra_file(bench.yau_m2_file())
    return out


def _matrix_scalars(m):
    return [m.at(r, c) for r, row in enumerate(m.data) for c in row]


def file_scalars(f):
    """Every stored scalar of a file: the Hopf algebra, R and each object."""
    h = f.hopf
    out = [*_matrix_scalars(h.M), *_matrix_scalars(h.C), *h.unit, *h.counit]
    out += _matrix_scalars(h.antipode) + _matrix_scalars(f.rmatrix.coefficients)
    for _, o in sorted(f.objects.items()):
        for m in (o.tensor, o.alpha, o.beta, o.twist_alpha, o.twist_beta, o.reference_bracket):
            if m is not None:
                out += _matrix_scalars(m)
        for op in o.module.action:
            out += _matrix_scalars(op)
        out += o.unit or []
    return out


def _quotient(x, y):
    try:
        return str(x / y)
    except DivisionByZero:
        return "division by zero"


def _round(rng, pool):
    """Seeded pairs from ``pool``: one record of printed operands and
    results per pair, and the results, which feed the next round."""
    records, results = [], []
    for _ in range(PAIRS_PER_ROUND):
        x, y = rng.choice(pool), rng.choice(pool)
        s, d, p = x + y, x - y, x * y
        inv = "division by zero" if x.is_zero() else str(x.inverse())
        records.append([str(x), str(y), str(s), str(d), str(p), _quotient(x, y), inv])
        results += [s, d, p]
    return records, results


def all_pins():
    out = {}
    for name, f in files().items():
        scalars = file_scalars(f)
        # one of each printed form, in a fixed order
        pool = list({str(x): x for x in scalars}.values())
        pool.sort(key=str)
        out[f"{name}/scalars"] = [str(x) for x in scalars]
        rng = random.Random(f"scalars:{name}")
        first, results = _round(rng, pool)
        second, _ = _round(rng, results)
        out[f"{name}/round1"] = first
        out[f"{name}/round2"] = second
    return out


def test_printed_scalars_match_the_pins():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    got = all_pins()
    assert sorted(got) == sorted(pinned)
    for key in pinned:
        assert got[key] == pinned[key], key


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    # one list per line, so that a changed value shows as a changed line
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(all_pins().items())]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")

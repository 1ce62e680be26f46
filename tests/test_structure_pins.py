"""Pinned structure-theory outputs, witnesses included.

Ideal checks (verdict, reason and offending vector), ideal closures,
centers, derived and lower central series and simplicity certificates
(probe seeds 0-3) are pinned in
``tests/witnesses/structure.json`` for every catalog object, two braided
commutators, a twist of the cross product and gl3, each in its standard
basis and in a fixed conjugated basis. The seed subspaces are each basis
vector, the zero and full spaces, and a few seeded random spans. A change
to how structure theory is computed must reproduce every pinned value byte
for byte.

Regenerate the pins (only when an output changes on purpose) with

    PYTHONPATH=src python tests/test_structure_pins.py
"""

from __future__ import annotations

import json
import pathlib
import random

from bihomcheck.bihom import BiHomAlgebra, BiHomLie, commutator_bracket, twist_bracket
from bihomcheck.catalog import r_triangular_kz2, trivial_hopf, trivial_rmatrix
from bihomcheck.hmod import HModule, ModuleMap
from bihomcheck.linalg import Matrix, Subspace, invert, kron
from bihomcheck.scalars import Scalar
from bihomcheck.structure import (
    center,
    derived_series,
    ideal_closure,
    is_H_bihom_ideal,
    is_H_bihom_lie_ideal,
    lower_central_series,
    simplicity_certificate,
)
from shipped import shipped

PINS = pathlib.Path(__file__).parent / "witnesses" / "structure.json"

PROBE_SEEDS = range(4)


# -- objects ---------------------------------------------------------------------


def matrix_algebra(n):
    """M_n over the trivial Hopf algebra, identity maps, basis E11, E12, ..."""
    d = n * n
    hopf = trivial_hopf()
    module = HModule(hopf, [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)],
                     [Matrix.identity(d, ())])
    zero, one = Scalar.of((), 0), Scalar.of((), 1)
    mult = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for l in range(n):
                mult[n * i + j][n * j + l][n * i + l] = one
    ident = ModuleMap.identity(module)
    return BiHomAlgebra(module, mult, ident, ident,
                        unit=[one if i % (n + 1) == 0 else zero for i in range(d)])


def change_of_basis(d, params):
    """A fixed dense unimodular P (upper ones times lower twos) and P^-1."""
    upper = Matrix.from_dicts(d, d, [{j: 1 for j in range(i, d)} for i in range(d)], params)
    lower = Matrix.from_dicts(d, d, [{i: 1, **({i - 1: 2} if i else {})} for i in range(d)], params)
    p = upper @ lower
    return p, invert(p)


def conjugate(x):
    """The same structure in the basis f_i = sum_k P[k][i] e_k."""
    d, params = x.module.dim, x.params
    p, q = change_of_basis(d, params)
    module = HModule(x.module.hopf, x.module.basis_names, [q @ op @ p for op in x.module.action])
    table = q @ x.structure_matrix() @ kron(p, p)
    alpha = ModuleMap(module, module, q @ x.alpha.matrix @ p)
    beta = ModuleMap(module, module, q @ x.beta.matrix @ p)
    if isinstance(x, BiHomLie):
        return BiHomLie(module, table, alpha, beta, x.rmatrix)
    unit = None if x.unit is None else (q @ Matrix(d, 1, x.unit, params)).col(0)
    return BiHomAlgebra(module, table, alpha, beta, unit=unit, multiplicative=x.multiplicative)


def cyclic_twist(l):
    """l twisted by alpha = id and beta = the automorphism e1 -> e2 -> e3 -> e1
    of the cross product, so that beta can move a subspace alpha fixes."""
    cycle = Matrix.from_dicts(3, 3, [{2: 1}, {0: 1}, {1: 1}], l.params)
    return twist_bracket(l, ModuleMap.identity(l.module), ModuleMap(l.module, l.module, cycle))


def objects():
    m2, m3, a24 = shipped("trivial-hopf", "A"), matrix_algebra(3), shipped("example24", "A")
    base = {
        "trivial-hopf/A": m2,
        "example24/A": a24,
        "example25-heisenberg/A": shipped("example25-heisenberg", "A"),
        "example25-heisenberg/L": shipped("example25-heisenberg", "L"),
        "example25-twisted/L": shipped("example25-twisted", "L"),
        "cross-product-classical/L": shipped("cross-product-classical", "L"),
        "cross-product-cyclic-twist": cyclic_twist(shipped("cross-product-classical", "L")),
        "gl2": commutator_bracket(m2, trivial_rmatrix(m2.module.hopf)),
        "example24-commutator": commutator_bracket(a24, r_triangular_kz2(("b",))),
        "gl3": commutator_bracket(m3, trivial_rmatrix(m3.module.hopf)),
    }
    out = {}
    for name, x in base.items():
        out[f"{name}/standard"] = x
        out[f"{name}/conjugated"] = conjugate(x)
    return out


def seed_spaces(name, x):
    d, p = x.module.dim, x.params
    zero, one = Scalar.of(p, 0), Scalar.of(p, 1)
    seeds = {"zero": Subspace.zero_space(d, p), "full": Subspace.full_space(d, p)}
    for i in range(d):
        seeds[f"e{i}"] = Subspace.from_rows(d, [[one if k == i else zero for k in range(d)]], p)
    rng = random.Random(f"structure:{name}")
    for n in range(3):
        rows = []
        for _ in range(rng.randint(1, 2)):
            row = [Scalar.of(p, rng.randint(-2, 2)) for _ in range(d)]
            if p and rng.random() < 0.5:
                k = rng.randrange(d)
                row[k] = row[k] * Scalar.param(p, p[rng.randrange(len(p))])
            rows.append(row)
        seeds[f"random{n}"] = Subspace.from_rows(d, rows, p)
    return seeds


# -- outputs ---------------------------------------------------------------------


def space(s):
    return [[str(c) for c in row] for row in s.vectors()]


def ideal(check):
    witness = None if check.witness is None else [str(c) for c in check.witness]
    return {"ok": check.is_ideal, "reason": check.reason, "witness": witness}


def series(res):
    return {"verdict": res.verdict, "step": res.step, "terms": [space(t) for t in res.terms]}


def certificate(cert):
    pair = cert.nonprime_pair
    return {
        "nonsimple": None if cert.nonsimple_ideal is None else space(cert.nonsimple_ideal),
        "nonprime": None if pair is None else [space(pair[0]), space(pair[1])],
        "nonsemiprime": None if cert.nonsemiprime_ideal is None else space(cert.nonsemiprime_ideal),
    }


def object_outputs(name, x):
    out = {}
    lie = isinstance(x, BiHomLie)
    seeds = seed_spaces(name, x)
    if lie:
        out["center"] = space(center(x))
        out["derived"] = series(derived_series(x))
    for label, s in seeds.items():
        key = f"{label}/"
        if lie:
            out[key + "ideal"] = ideal(is_H_bihom_lie_ideal(x, s))
            out[key + "lcs"] = series(lower_central_series(x, s))
        else:
            out[key + "ideal"] = ideal(is_H_bihom_ideal(x, s))
        out[key + "closure"] = space(ideal_closure(x, s))
    for seed in PROBE_SEEDS:
        out[f"certificate{seed}"] = certificate(simplicity_certificate(x, probe_seed=seed))
    return out


def all_outputs():
    return {
        f"{name}/{key}": value
        for name, x in objects().items()
        for key, value in object_outputs(name, x).items()
    }


# -- tests -----------------------------------------------------------------------


def test_structure_outputs_match_the_pins():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(all_outputs()))
    assert sorted(got) == sorted(pinned)
    for key in pinned:
        assert got[key] == pinned[key], key


def test_pins_cover_failing_ideal_checks_and_certificates():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    reasons = {v["reason"] for k, v in pinned.items() if k.endswith("/ideal") and not v["ok"]}
    # every way an ideal check can fail is pinned with its witness
    assert {
        "alpha(U) is not contained in U",
        "beta(U) is not contained in U",
        "g.U is not contained in U",
        "[U, L] is not contained in U",
        "AU is not contained in U",
        "UA is not contained in U",
    } <= reasons
    certs = [v for k, v in pinned.items() if "/certificate" in k]
    assert all(any(c[part] is not None for c in certs) for part in ("nonsimple", "nonprime", "nonsemiprime"))


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    # one output per line, so that a changed output shows as a changed line
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(all_outputs().items())]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")

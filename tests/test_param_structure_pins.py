"""Pinned structure theory over parameters: the Yau-twisted gl_n.

The bracket of gl_n is [E_ij, E_kl] = d_jk E_il - d_li E_kj. Twisting it by
alpha = Ad diag(1, s, s^2, ...) and beta = Ad diag(1, t, t^2, ...), with
``twist_bracket``, gives the BiHom-Lie bracket [x, y]' = [alpha(x), beta(y)]
over Q(s, t). Its structure constants are Laurent monomials, and every
closure that ``simplicity_certificate`` spins is eliminated over Q(params).
No benchmark workload runs this path, so a slowdown of the parametric
kernel shows here first.

Pinned, in ``tests/witnesses/param_structure.json``: the twisted bracket and
the certificates (probe seeds 0 and 1) of gl3 over Q(s), with beta = id,
and of gl2 and gl3 over Q(s, t). Each reported ideal is also checked with
``is_H_bihom_lie_ideal``.

Regenerate the pins (only when an output changes on purpose) with

    PYTHONPATH=src python tests/test_param_structure_pins.py
"""

from __future__ import annotations

import json
import pathlib

from bihomcheck.bihom import BiHomLie, twist_bracket
from bihomcheck.catalog import trivial_hopf, trivial_rmatrix
from bihomcheck.hmod import HModule, ModuleMap
from bihomcheck.linalg import Matrix, triples_matrix
from bihomcheck.scalars import Scalar
from bihomcheck.structure import is_H_bihom_lie_ideal, simplicity_certificate

PINS = pathlib.Path(__file__).parent / "witnesses" / "param_structure.json"

PROBE_SEEDS = (0, 1)

# (n, parameters, alpha's parameter, beta's parameter or None for beta = id)
INSTANCES = {
    "yau-gl3-s": (3, ("s",), "s", None),
    "yau-gl2-st": (2, ("s", "t"), "s", "t"),
    "yau-gl3-st": (3, ("s", "t"), "s", "t"),
}


def general_linear(n, params):
    """gl_n over Q(params) and the trivial Hopf algebra, identity maps."""
    d = n * n
    hopf = trivial_hopf(params)
    names = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    module = HModule(hopf, names, [Matrix.identity(d, params)])
    one = Scalar.of(params, 1)
    triples = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        triples.append((n * i + j, n * k + l, n * i + l, one))
                    if l == i:
                        triples.append((n * i + j, n * k + l, n * k + j, -one))
    ident = ModuleMap.identity(module)
    return BiHomLie(module, triples_matrix(triples, d, params), ident, ident, trivial_rmatrix(hopf))


def conjugation(l, n, name):
    """Ad diag(1, x, x^2, ...) for the parameter x = ``name``: it scales
    E_ij by x^(i - j). The identity when ``name`` is None."""
    if name is None:
        return ModuleMap.identity(l.module)
    params = l.params
    x = Scalar.param(params, name)
    powers = [Scalar.of(params, 1)]
    for _ in range(n - 1):
        powers.append(powers[-1] * x)
    # the kernel value of each entry: the int 1 on the diagonal, x^(i - j) off it
    rows = [{n * i + j: 1 if i == j else powers[i] / powers[j]} for i in range(n) for j in range(n)]
    return ModuleMap(l.module, l.module, Matrix.from_dicts(n * n, n * n, rows, params))


def yau_general_linear(n, params, alpha, beta):
    l = general_linear(n, params)
    return twist_bracket(l, conjugation(l, n, alpha), conjugation(l, n, beta))


def space(s):
    return [[str(c) for c in row] for row in s.vectors()]


def certificate_ideals(cert):
    """Every subspace the certificate reports as an ideal."""
    out = [cert.nonsimple_ideal, cert.nonsemiprime_ideal, *(cert.nonprime_pair or ())]
    return [c for c in out if c is not None]


def instance_outputs(name):
    n, params, alpha, beta = INSTANCES[name]
    x = yau_general_linear(n, params, alpha, beta)
    out = {"bracket": [[str(c) for c in row] for row in x.structure_matrix().row_list()]}
    for seed in PROBE_SEEDS:
        cert = simplicity_certificate(x, probe_seed=seed)
        pair = cert.nonprime_pair
        out[f"certificate{seed}"] = {
            "nonsimple": None if cert.nonsimple_ideal is None else space(cert.nonsimple_ideal),
            "nonprime": None if pair is None else [space(pair[0]), space(pair[1])],
            "nonsemiprime": None if cert.nonsemiprime_ideal is None else space(cert.nonsemiprime_ideal),
        }
        for ideal in certificate_ideals(cert):
            assert is_H_bihom_lie_ideal(x, ideal).is_ideal, (name, seed)
    return out


def all_outputs():
    return {f"{name}/{key}": value for name in INSTANCES for key, value in instance_outputs(name).items()}


def test_yau_general_linear_outputs_match_the_pins():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(all_outputs()))
    assert sorted(got) == sorted(pinned)
    for key in pinned:
        assert got[key] == pinned[key], key


def test_the_pinned_certificates_report_proper_ideals():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    for name, (n, *_) in INSTANCES.items():
        for seed in PROBE_SEEDS:
            nonsimple = pinned[f"{name}/certificate{seed}"]["nonsimple"]
            assert nonsimple is not None and 0 < len(nonsimple) < n * n


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    # one output per line, so that a changed output shows as a changed line
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(all_outputs().items())]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")

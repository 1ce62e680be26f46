"""Pinned reports, witnesses included, for deliberately broken inputs.

Every check that can fail is made to fail here, by hand-chosen and by
seeded random perturbations of Hopf algebras (one of them the
non-cocommutative Sweedler algebra H4), R-matrices, module actions,
products, brackets and twisting maps. The full report of each case is
pinned in ``tests/witnesses/reports.json``; a change to how a check is
computed must reproduce every verdict, witness tuple and residual byte for
byte.

``tensor_square_mult``, which every qt and bialgebra check of these cases
goes through, is also checked against its definition on H (x) H. The
definition is written in column form (column c*d + e holds x (e_c (x) e_e));
the operator is row form, so it is compared with the transpose.

Regenerate the pins (only when a report changes on purpose) with

    PYTHONPATH=src python tests/test_witnesses.py
"""

from __future__ import annotations

import json
import pathlib
import random
from fractions import Fraction

from bihomcheck.bihom import (
    BiHomAlgebra,
    BiHomLie,
    check_bihom_associative,
    check_generalized_bihom_lie,
    check_lemma31,
    commutator_bracket,
)
from bihomcheck.catalog import catalog_file, r_triangular_kz2, trivial_rmatrix
from bihomcheck.errors import BihomError
from bihomcheck.hmod import HModule, ModuleMap, check_module, check_module_algebra
from bihomcheck.hopf import (
    HopfAlgebra,
    RMatrix,
    check_hopf_axioms,
    check_quasitriangular,
    group_algebra,
    is_triangular,
)
from bihomcheck.linalg import Matrix, flip, invert, kron
from bihomcheck.scalars import Scalar, parse_scalar
from shipped import shipped

PINS = pathlib.Path(__file__).parent / "witnesses" / "reports.json"

# every check id that a broken input can fail; the pins must fail each one
FAILABLE = (
    "hopf.assoc", "hopf.unit", "hopf.coassoc", "hopf.counit", "hopf.bialgebra",
    "hopf.antipode", "qt.1", "qt.2", "qt.3", "module.unit", "module.compat",
    "module-algebra.equivariance", "bihom.maps-commute", "bihom.assoc",
    "bihom.alpha-multiplicative", "bihom.beta-multiplicative",
    "bihom.alpha-h-linear", "bihom.beta-h-linear", "bihom.unit",
    "lie.rmatrix-triangular", "lie.maps-commute", "lie.twist-endomorphisms",
    "lie.skew", "lie.jacobi", "lie.bracket-h-linear", "lie.alpha-h-linear",
    "lie.beta-h-linear", "lemma31.1", "lemma31.2",
)

T = ("t",)


# -- inputs ----------------------------------------------------------------------


def tensor(dim, params, triples):
    zero = Scalar.of(params, 0)
    out = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, text in triples:
        out[i][j][k] = parse_scalar(text, params)
    return out


def matrix(params, rows):
    return Matrix.from_rows([[parse_scalar(str(x), params) for x in row] for row in rows], params)


def sweedler():
    """Sweedler's H4 over Q(t): basis 1, g, x, gx; g^2 = 1, x^2 = 0,
    xg = -gx, coproduct x -> x(x)1 + g(x)x, S(x) = -gx; the triangular
    family R_t; and A = k[u]/(u^2) with g.u = -u, x.u = gx.u = 1."""
    mult = tensor(4, T, [
        (0, 0, 0, "1"), (0, 1, 1, "1"), (0, 2, 2, "1"), (0, 3, 3, "1"),
        (1, 0, 1, "1"), (1, 1, 0, "1"), (1, 2, 3, "1"), (1, 3, 2, "1"),
        (2, 0, 2, "1"), (2, 1, 3, "-1"), (3, 0, 3, "1"), (3, 1, 2, "-1"),
    ])
    comult = tensor(4, T, [
        (0, 0, 0, "1"), (1, 1, 1, "1"), (2, 2, 0, "1"), (2, 1, 2, "1"),
        (3, 3, 1, "1"), (3, 0, 3, "1"),
    ])
    one, zero = Scalar.of(T, 1), Scalar.of(T, 0)
    antipode = matrix(T, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    hopf = HopfAlgebra(
        ["1", "g", "x", "gx"], mult, [one, zero, zero, zero], comult,
        [one, one, zero, zero], antipode, T,
    )
    r = RMatrix(matrix(T, [
        ["1/2", "1/2", 0, 0], ["1/2", "-1/2", 0, 0], [0, 0, "t/2", "-t/2"], [0, 0, "t/2", "t/2"],
    ]))
    module = HModule(hopf, ["1A", "u"], [
        Matrix.identity(2, T), matrix(T, [[1, 0], [0, -1]]),
        matrix(T, [[0, 1], [0, 0]]), matrix(T, [[0, 1], [0, 0]]),
    ])
    ident = ModuleMap.identity(module)
    a = BiHomAlgebra(module, tensor(2, T, [(0, 0, 0, "1"), (0, 1, 1, "1"), (1, 0, 1, "1")]),
                     ident, ident, unit=[one, zero])
    return hopf, r, a


def klein():
    table = [[a ^ b for b in range(4)] for a in range(4)]
    return group_algebra(table, 0, names=["e", "a", "b", "ab"])


def zn(n):
    return group_algebra([[(i + j) % n for j in range(n)] for i in range(n)], 0)


# -- perturbations ----------------------------------------------------------------


def bump_tensor(t, i, j, k, delta):
    out = [[list(row) for row in plane] for plane in t]
    out[i][j][k] = out[i][j][k] + delta
    return out


def bump_vector(v, i, delta):
    out = list(v)
    out[i] = out[i] + delta
    return out


def bump_matrix(m, i, j, delta):
    rows = m.row_list()
    rows[i][j] = rows[i][j] + delta
    return Matrix.from_rows(rows, m.params)


def perturb_hopf(h, part, pos, delta):
    mult, unit, comult, counit, s = h.mult, h.unit, h.comult, h.counit, h.antipode
    if part == "mult":
        mult = bump_tensor(mult, *pos, delta)
    elif part == "comult":
        comult = bump_tensor(comult, *pos, delta)
    elif part == "unit":
        unit = bump_vector(unit, pos[0], delta)
    elif part == "counit":
        counit = bump_vector(counit, pos[0], delta)
    else:
        s = bump_matrix(s, pos[0], pos[1], delta)
    return HopfAlgebra(h.basis_names, mult, unit, comult, counit, s, h.params)


def with_module(a, action):
    module = HModule(a.module.hopf, a.module.basis_names, action)
    return module, ModuleMap(module, module, a.alpha.matrix), ModuleMap(module, module, a.beta.matrix)


def random_delta(rng, params):
    choices = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(-3, 2)]
    value = Scalar.of(params, rng.choice(choices))
    if params and rng.random() < 0.3:
        value = value * Scalar.param(params, params[0])
    return value


# -- reports ----------------------------------------------------------------------


def outcome(fn):
    """Report JSON, or the refusal a check raised, as pinned text."""
    try:
        out = fn()
    except BihomError as exc:
        return f"refused: {type(exc).__name__}: {exc}"
    return out.to_json() if hasattr(out, "to_json") else out


def hopf_case(h, r):
    case = {"hopf": outcome(lambda: check_hopf_axioms(h))}
    if r is not None:
        case["qt"] = outcome(lambda: check_quasitriangular(h, r))
        case["triangular"] = outcome(lambda: is_triangular(h, r))
    return case


def algebra_case(a, r):
    case = {
        "module": outcome(lambda: check_module(a.module)),
        "module-algebra": outcome(lambda: check_module_algebra(a)),
        "bihom-assoc": outcome(lambda: check_bihom_associative(a)),
        "lemma31": outcome(lambda: check_lemma31(a, r)),
    }
    try:
        lie = commutator_bracket(a, r)
    except BihomError as exc:
        case["commutator"] = f"refused: {type(exc).__name__}: {exc}"
    else:
        d = a.module.dim
        case["commutator"] = [[[str(c) for c in lie.bracket[i][j]] for j in range(d)] for i in range(d)]
    return case


def lie_case(l):
    return {
        "module": outcome(lambda: check_module(l.module)),
        "bihom-lie": outcome(lambda: check_generalized_bihom_lie(l)),
    }


def hopf_cases():
    z3, k4 = zn(3), klein()
    bases = {
        "kz2": (catalog_file("kz2").hopf, r_triangular_kz2()),
        "z3": (z3, trivial_rmatrix(z3)),
        "klein": (k4, trivial_rmatrix(k4)),
        "sweedler": sweedler()[:2],
    }
    cases = {}
    for name, (h, r) in bases.items():
        d, one = h.dim, Scalar.of(h.params, 1)
        cases[f"{name}/clean"] = hopf_case(h, r)
        # one hand-chosen break per structure map
        for part, pos in (
            ("mult", (d - 1, d - 1, 0)), ("mult", (0, 1 % d, 0)), ("comult", (d - 1, 0, d - 1)),
            ("comult", (0, 0, 0)), ("unit", (d - 1,)), ("counit", (d - 1,)), ("antipode", (0, d - 1)),
        ):
            cases[f"{name}/{part}{pos}"] = hopf_case(perturb_hopf(h, part, pos, one), r)
        rng = random.Random(f"hopf:{name}")
        for n in range(6):
            part = rng.choice(("mult", "comult", "unit", "counit", "antipode"))
            size = {"mult": 3, "comult": 3, "unit": 1, "counit": 1, "antipode": 2}[part]
            pos = tuple(rng.randrange(d) for _ in range(size))
            cases[f"{name}/random{n}"] = hopf_case(
                perturb_hopf(h, part, pos, random_delta(rng, h.params)), r
            )
        # R-matrix breaks on the unbroken algebra
        for n in range(4):
            i, j = rng.randrange(d), rng.randrange(d)
            bad = RMatrix(bump_matrix(r.coefficients, i, j, random_delta(rng, h.params)))
            cases[f"{name}/r{n}({i},{j})"] = {
                "qt": outcome(lambda: check_quasitriangular(h, bad)),
                "triangular": outcome(lambda: is_triangular(h, bad)),
            }
    return cases


def algebra_cases():
    _, r4, a4 = sweedler()
    m2 = shipped("trivial-hopf", "A")
    bases = {
        "example24": (shipped("example24", "A"), r_triangular_kz2(("b",))),
        "heisenberg": (shipped("example25-heisenberg", "A"), r_triangular_kz2(("l1", "l2", "l1p", "l2p"))),
        "m2": (m2, trivial_rmatrix(m2.module.hopf)),
        "sweedler-A": (a4, r4),
    }
    cases = {}
    for name, (a, r) in bases.items():
        d, p = a.module.dim, a.params
        one = Scalar.of(p, 1)
        cases[f"{name}/clean"] = algebra_case(a, r)
        rng = random.Random(f"algebra:{name}")
        for n in range(5):
            i, j, k = (rng.randrange(d) for _ in range(3))
            mult = bump_tensor(a.mult, i, j, k, random_delta(rng, p))
            cases[f"{name}/mult{n}"] = algebra_case(
                BiHomAlgebra(a.module, mult, a.alpha, a.beta, unit=a.unit), r
            )
        for n in range(3):
            t, i, j = rng.randrange(a.module.hopf.dim), rng.randrange(d), rng.randrange(d)
            action = list(a.module.action)
            action[t] = bump_matrix(action[t], i, j, random_delta(rng, p))
            module, alpha, beta = with_module(a, action)
            cases[f"{name}/action{n}"] = algebra_case(
                BiHomAlgebra(module, a.mult, alpha, beta, unit=a.unit), r
            )
        for label in ("alpha", "beta"):
            i, j = rng.randrange(d), rng.randrange(d)
            f = ModuleMap(a.module, a.module, bump_matrix(getattr(a, label).matrix, i, j, one))
            maps = {"alpha": a.alpha, "beta": a.beta, label: f}
            cases[f"{name}/{label}({i},{j})"] = algebra_case(
                BiHomAlgebra(a.module, a.mult, maps["alpha"], maps["beta"], unit=a.unit), r
            )
        unit = bump_vector(a.unit or [Scalar.of(p, 0)] * d, d - 1, one)
        cases[f"{name}/unit"] = algebra_case(
            BiHomAlgebra(a.module, a.mult, a.alpha, a.beta, unit=unit), r
        )
    return cases


def lie_cases():
    _, r4, a4 = sweedler()
    bases = {
        "heisenberg-lie": shipped("example25-heisenberg", "L"),
        "twisted-lie": shipped("example25-twisted", "L"),
        "cross-lie": shipped("cross-product-classical", "L"),
        # the braiding of the Sweedler module is not a signed flip
        "sweedler-lie": commutator_bracket(a4, r4),
    }
    cases = {}
    for name, l in bases.items():
        d, p = l.module.dim, l.params
        one = Scalar.of(p, 1)
        cases[f"{name}/clean"] = lie_case(l)
        rng = random.Random(f"lie:{name}")
        for n in range(5):
            i, j, k = (rng.randrange(d) for _ in range(3))
            bracket = bump_tensor(l.bracket, i, j, k, random_delta(rng, p))
            cases[f"{name}/bracket{n}"] = lie_case(BiHomLie(l.module, bracket, l.alpha, l.beta, l.rmatrix))
        for label in ("alpha", "beta"):
            i, j = rng.randrange(d), rng.randrange(d)
            f = ModuleMap(l.module, l.module, bump_matrix(getattr(l, label).matrix, i, j, one))
            maps = {"alpha": l.alpha, "beta": l.beta, label: f}
            cases[f"{name}/{label}({i},{j})"] = lie_case(
                BiHomLie(l.module, l.bracket, maps["alpha"], maps["beta"], l.rmatrix)
            )
        if l.module.hopf.dim > 1:
            action = list(l.module.action)
            action[1] = bump_matrix(action[1], 0, d - 1, one)
            module = HModule(l.module.hopf, l.module.basis_names, action)
            alpha = ModuleMap(module, module, l.alpha.matrix)
            beta = ModuleMap(module, module, l.beta.matrix)
            cases[f"{name}/action"] = lie_case(BiHomLie(module, l.bracket, alpha, beta, l.rmatrix))
            bad_r = RMatrix(bump_matrix(l.rmatrix.coefficients, 1, 1, one))
            cases[f"{name}/rmatrix"] = lie_case(BiHomLie(l.module, l.bracket, l.alpha, l.beta, bad_r))
    return cases


def all_cases():
    groups = (hopf_cases(), algebra_cases(), lie_cases())
    out = {name: case for group in groups for name, case in group.items()}
    assert len(out) == sum(len(g) for g in groups), "case names collide"
    return out


def failing_ids(cases):
    out = set()
    for case in cases.values():
        for value in case.values():
            if isinstance(value, dict):
                out.update(e["id"] for e in value["entries"] if e["status"] == "fail")
    return out


# -- tests ------------------------------------------------------------------------


def test_pins_fail_every_failable_check():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    assert set(FAILABLE) <= failing_ids(pinned)


def test_reports_match_the_pins():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(all_cases()))
    assert sorted(got) == sorted(pinned)
    for name in pinned:
        assert got[name] == pinned[name], name


# -- the tensor-square operator the Sweedler pins lean on -------------------------


def tensor_square_mult_by_definition(h, x, right=False):
    """y -> x y (y -> y x when ``right``) on H (x) H, in column form, from
    the definition: the product of H (x) H is (M (x) M) o (id (x) flip (x)
    id) on the d^4-wide space H (x) H (x) H (x) H, applied to x (x) y
    (y (x) x)."""
    d, p = h.dim, h.params
    ident, square = Matrix.identity(d, p), Matrix.identity(d * d, p)
    product = kron(h.M, h.M) @ kron(kron(ident, flip(d, d, p)), ident)
    xvec = Matrix(d * d, 1, x.entries, p)
    return product @ (kron(square, xvec) if right else kron(xvec, square))


def conjugated(h, p, q):
    """h in the basis f_i = sum_k P[k][i] e_k, where q = P^-1."""
    d = h.dim
    m = q @ h.M @ kron(p, p)
    c = kron(q, q) @ h.C @ p
    mult = [[m.col(i * d + j) for j in range(d)] for i in range(d)]
    comult = [[[c.at(j * d + k, i) for k in range(d)] for j in range(d)] for i in range(d)]
    unit, counit = (q @ h.u).col(0), (h.eps @ p).row(0)
    return HopfAlgebra(h.basis_names, mult, unit, comult, counit, q @ h.antipode @ p, h.params)


def with_bumped_mult(h, i, j, k):
    """h with 1 added to the coefficient of e_k in e_i e_j, one entry of
    column i*d + j of M."""
    d = h.dim
    mult = [[h.M.col(a * d + b) for b in range(d)] for a in range(d)]
    mult[i][j][k] = mult[i][j][k] + 1
    return HopfAlgebra(h.basis_names, mult, h.unit, h.comult, h.counit, h.antipode, h.params)


def tensor_square_cases():
    """Sweedler H4 over Q(t), which is not cocommutative, with R_t and a
    dense parametric element; Z4 in a dense basis with a dense element and
    one with a zero row."""
    h, r, _ = sweedler()
    dense = Matrix.from_rows(
        [[parse_scalar(f"{a - b}*t + {a * 4 + b - 7}", ("t",)) for b in range(4)] for a in range(4)],
        ("t",),
    )
    z4 = zn(4)
    upper = Matrix.from_dicts(4, 4, [{j: 1 for j in range(i, 4)} for i in range(4)], ())
    lower = Matrix.from_dicts(4, 4, [{i: 1, **({i - 1: 2} if i else {})} for i in range(4)], ())
    p = upper @ lower
    cz4 = conjugated(z4, p, invert(p))
    values = Matrix.from_rows(
        [[Scalar.of((), (3 * a + 5 * b) % 7 - 3) for b in range(4)] for a in range(4)]
    )
    holed = Matrix.from_dicts(4, 4, [row if a != 2 else {} for a, row in enumerate(values.data)], ())
    return [(h, r.coefficients), (h, dense), (cz4, values), (cz4, holed)]


def test_tensor_square_mult_matches_the_definition():
    cases = tensor_square_cases()
    h4 = cases[0][0]
    assert flip(4, 4, h4.params) @ h4.C != h4.C  # Sweedler H4 is not cocommutative
    for h, x in cases:
        for right in (False, True):
            want = tensor_square_mult_by_definition(h, x, right).transpose()
            assert h.tensor_square_mult(x, right) == want


def test_tensor_square_mult_sees_a_change_in_one_column_of_the_product():
    for h, x in tensor_square_cases():
        for right in (False, True):
            want = tensor_square_mult_by_definition(h, x, right).transpose()
            # column 1*d + 2 of M holds e_1 e_2
            assert with_bumped_mult(h, 1, 2, 0).tensor_square_mult(x, right) != want


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    # one case per line, so that a changed report shows as a changed line
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(all_cases().items())]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")

"""Module checks, the braiding, and module algebras."""

from itertools import product

from bihomcheck.catalog import (
    example24_algebra,
    heisenberg_assoc,
    kz2_hopf,
    r_triangular_kz2,
    trivial_hopf,
    trivial_rmatrix,
)
from bihomcheck.hmod import (
    HModule,
    ModuleMap,
    braiding,
    check_module,
    check_module_algebra,
    tensor_module,
)
from bihomcheck.linalg import Matrix, kron
from bihomcheck.scalars import Scalar
from report_entry import entry
from test_witnesses import sweedler


def sign_module(signs, names=None):
    hopf = kz2_hopf()
    dim = len(signs)
    names = names or [f"x{i + 1}" for i in range(dim)]
    g = Matrix.from_rows(
        [
            [Scalar.of((), signs[i] if i == j else 0) for j in range(dim)]
            for i in range(dim)
        ],
        (),
    )
    return HModule(hopf, names, [Matrix.identity(dim), g])


def test_example24_action_is_a_module():
    assert check_module(example24_algebra().module).ok


def test_heisenberg_printed_action_is_a_module():
    # the action as printed in the source example (g fixes x2 and x3);
    # a perfectly good module even though the braiding table needs g.x2 = -x2
    assert check_module(sign_module([-1, 1, 1])).ok


def test_non_involutive_action_fails():
    hopf = kz2_hopf()
    g = Matrix.from_rows(
        [[Scalar.of((), 1), Scalar.of((), 1)], [Scalar.of((), 0), Scalar.of((), 1)]],
        (),
    )
    m = HModule(hopf, ["x1", "x2"], [Matrix.identity(2), g])
    rep = check_module(m)
    assert entry(rep, "module.compat").status == "fail"
    assert entry(rep, "module.compat").witness.basis[:2] == ("g", "g")


def apply_tau(tau, m, n, i, j):
    """Column of tau at basis vector e_i (x) f_j, decoded as (coeff, (c, d))."""
    col = tau.col(i * n.dim + j)
    return [
        (col[c * m.dim + d], (c, d))
        for c in range(n.dim)
        for d in range(m.dim)
        if not col[c * m.dim + d].is_zero()
    ]


def test_braiding_example24_table():
    a = example24_algebra()
    m = a.module
    r = r_triangular_kz2(("b",))
    tau = braiding(m, m, r)
    one = Scalar.of(("b",), 1)
    # tau(x2 (x) x2) = -x2 (x) x2; all other pairs plain flip
    for i in range(2):
        for j in range(2):
            hits = apply_tau(tau, m, m, i, j)
            assert len(hits) == 1
            coeff, (c, d) = hits[0]
            assert (c, d) == (j, i)
            assert coeff == (-one if i == j == 1 else one)


def test_braiding_trivial_r_is_flip():
    h = trivial_hopf()
    m = HModule(h, ["u", "v"], [Matrix.identity(2)])
    tau = braiding(m, m, trivial_rmatrix(h))
    for i in range(2):
        for j in range(2):
            hits = apply_tau(tau, m, m, i, j)
            assert hits == [(Scalar.of((), 1), (j, i))]


def test_braiding_heisenberg_table():
    # parities (odd, odd, even): tau(x1 (x) x2) = -x2 (x) x1,
    # tau(x2 (x) x2) = -x2 (x) x2, tau(x3 (x) x3) = x3 (x) x3, etc.
    m = sign_module([-1, -1, 1])
    tau = braiding(m, m, r_triangular_kz2())
    one = Scalar.of((), 1)
    signs = {0: 1, 1: 1, 2: 0}  # parity of each basis vector
    for i in range(3):
        for j in range(3):
            hits = apply_tau(tau, m, m, i, j)
            assert len(hits) == 1
            coeff, (c, d) = hits[0]
            assert (c, d) == (j, i)
            expected = -one if signs[i] and signs[j] else one
            assert coeff == expected


def test_braiding_symmetry_on_triangular_instances():
    # a triangular R makes tau_{M,M} a symmetry: tau o tau is the identity
    h = trivial_hopf()
    for m, r in (
        (example24_algebra().module, r_triangular_kz2(("b",))),
        (sign_module([-1, -1, 1]), r_triangular_kz2()),
        (HModule(h, ["u", "v"], [Matrix.identity(2)]), trivial_rmatrix(h)),
    ):
        tau = braiding(m, m, r)
        assert (tau @ tau).is_identity()


def test_module_algebra_example24():
    assert check_module_algebra(example24_algebra()).ok


def test_module_algebra_heisenberg_product():
    assert check_module_algebra(heisenberg_assoc()).ok


def test_module_algebra_failing_perturbation():
    # flipping the sign pattern to g = diag(-1, 1) keeps a valid module but
    # breaks equivariance at g.(x1 x1) = -x1 versus (g.x1)(g.x1) = x1
    a = example24_algebra()
    hopf = kz2_hopf(("b",))
    bad_module = HModule(
        hopf,
        ["x1", "x2"],
        [
            Matrix.identity(2, ("b",)),
            Matrix.from_rows(
                [
                    [Scalar.of(("b",), -1), Scalar.of(("b",), 0)],
                    [Scalar.of(("b",), 0), Scalar.of(("b",), 1)],
                ],
                ("b",),
            ),
        ],
    )
    assert check_module(bad_module).ok
    from bihomcheck.bihom import BiHomAlgebra

    perturbed = BiHomAlgebra(bad_module, a.mult, a.alpha, a.beta, unit=a.unit)
    rep = check_module_algebra(perturbed)
    e = entry(rep, "module-algebra.equivariance")
    assert e.status == "fail"
    assert e.witness.basis == ("g", "x1", "x1")


def sweedler_modules():
    """Modules of dimensions 1, 2 and 4 over Sweedler's H4, whose coproduct
    is not cocommutative, and its R_t, which is not flip-symmetric: the
    trivial module (h acts by its counit), A = k[u]/(u^2), and H4 acting on
    itself by left multiplication."""
    hopf, r, a = sweedler()
    p, d = hopf.params, hopf.dim
    trivial = HModule(hopf, ["k"], [Matrix(1, 1, [e], p) for e in hopf.counit])
    regular = HModule(hopf, hopf.basis_names, [
        Matrix.from_rows([[hopf.mult[h][j][k] for j in range(d)] for k in range(d)], p)
        for h in range(d)
    ])
    return [trivial, a.module, regular], r


def test_braiding_is_h_linear():
    # tau o (h-action on M (x) N) = (h-action on N (x) M) o tau, via QT3
    modules, r_t = sweedler_modules()
    cases = [
        (example24_algebra().module, r_triangular_kz2(("b",))),
        (sign_module([-1, -1, 1]), r_triangular_kz2()),
    ]
    pairs = [(m, m, r) for m, r in cases] + [(m, n, r_t) for m in modules for n in modules]
    for m, n, r in pairs:
        tau = braiding(m, n, r)
        mn, nm = tensor_module(m, n), tensor_module(n, m)
        for t in range(m.hopf.dim):
            assert tau @ mn.action[t] == nm.action[t] @ tau


def test_braiding_matches_its_definition_on_sweedler():
    # tau(e_i (x) f_j) = sum R[a][b] (h_b . f_j) (x) (h_a . e_i) for the Hopf
    # basis h, summed entry by entry; R_t is not flip-symmetric, so this
    # tells R from its flip
    modules, r = sweedler_modules()
    R = r.coefficients
    for m in modules:
        for n in modules:
            want = [[Scalar.of(m.params, 0)] * (m.dim * n.dim) for _ in range(n.dim * m.dim)]
            dims = (R.rows, R.cols, m.dim, n.dim, n.dim, m.dim)
            for a, b, i, j, c, e in product(*map(range, dims)):
                term = R.at(a, b) * n.action[b].at(c, j) * m.action[a].at(e, i)
                want[c * m.dim + e][i * n.dim + j] += term
            assert braiding(m, n, r).row_list() == want


def assert_hexagons(m, n, p, r):
    # c_{M(x)N,P} = (c_{M,P} (x) 1)(1 (x) c_{N,P}) and
    # c_{M,N(x)P} = (1 (x) c_{M,P})(c_{M,N} (x) 1)
    im, i_n, ip = (Matrix.identity(x.dim, x.params) for x in (m, n, p))
    mp = braiding(m, p, r)
    lhs = braiding(tensor_module(m, n), p, r)
    assert lhs == kron(mp, i_n) @ kron(im, braiding(n, p, r))
    lhs = braiding(m, tensor_module(n, p), r)
    assert lhs == kron(i_n, mp) @ kron(braiding(m, n, r), ip)


def test_hexagon_relations():
    m = sign_module([-1, -1, 1])
    assert_hexagons(m, m, m, r_triangular_kz2())
    (trivial, a, regular), r_t = sweedler_modules()
    for mnp in ((a, regular, a), (regular, a, trivial), (a, a, a), (trivial, regular, a)):
        assert_hexagons(*mnp, r_t)


def test_module_map_composition_stays_h_linear():
    m = sign_module([-1, -1, 1])
    f = ModuleMap(
        m,
        m,
        Matrix.from_rows(
            [
                [Scalar.of((), 2), Scalar.of((), 0), Scalar.of((), 0)],
                [Scalar.of((), 0), Scalar.of((), 3), Scalar.of((), 0)],
                [Scalar.of((), 0), Scalar.of((), 0), Scalar.of((), 5)],
            ],
            (),
        ),
    )
    g = ModuleMap.identity(m)
    assert f.h_linearity_witness() is None
    assert ModuleMap(m, m, f.matrix @ g.matrix).h_linearity_witness() is None
    assert ModuleMap(m, m, g.matrix @ f.matrix).h_linearity_witness() is None
    # a non-diagonal map mixing parities is not H-linear here
    bad = ModuleMap(
        m,
        m,
        Matrix.from_rows(
            [
                [Scalar.of((), 0), Scalar.of((), 0), Scalar.of((), 1)],
                [Scalar.of((), 0), Scalar.of((), 1), Scalar.of((), 0)],
                [Scalar.of((), 1), Scalar.of((), 0), Scalar.of((), 0)],
            ],
            (),
        ),
    )
    assert bad.h_linearity_witness() == "g"

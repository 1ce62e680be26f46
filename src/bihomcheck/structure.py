"""Ideal and series structure theory for validated BiHom structures.

Everything here is exact subspace arithmetic: ideals are RREF subspaces,
series iterate until stabilization (guaranteed within the ambient
dimension), and simplicity/primality/semiprimality are semi-decisions that
either exhibit a certificate ideal or report that the probe search found
no counterexample. Probe vectors come from a seeded generator recorded in
the result, so runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .bihom import BiHomAlgebra, BiHomLie
from .errors import AmbientMismatch
from .linalg import Matrix, Subspace, kernel, multiplication, vstack
from .scalars import Scalar

SERIES_ZERO = "terminates-at-zero"
SERIES_STABLE = "stabilizes-nonzero"


@dataclass
class SeriesResult:
    terms: list
    verdict: str
    step: int

    @property
    def reaches_zero(self) -> bool:
        return self.verdict == SERIES_ZERO


@dataclass
class IdealCheck:
    is_ideal: bool
    reason: str = ""
    witness: list | None = None  # offending vector, in ambient coordinates

    def __bool__(self):
        return self.is_ideal


@dataclass
class Certificate:
    """Semi-decision output; ``found`` certificates are proofs, everything
    else is explicitly 'no counterexample found', never a positive proof."""

    nonsimple_ideal: Subspace | None
    nonprime_pair: tuple | None
    nonsemiprime_ideal: Subspace | None
    probe_seed: int
    probes: int

    @property
    def certified_nonsimple(self):
        return self.nonsimple_ideal is not None


def _ambient_of(x):
    return x.module.dim


def _check_ambient(x, space: Subspace):
    if space.ambient_dim != _ambient_of(x):
        raise AmbientMismatch(
            f"subspace lives in dim {space.ambient_dim}, structure in {_ambient_of(x)}"
        )


def bracket_of_subspaces(l: BiHomLie, u: Subspace, v: Subspace) -> Subspace:
    """Span of [u_i, v_j] over the basis vectors of the two subspaces."""
    _check_ambient(l, u)
    _check_ambient(l, v)
    vecs = [l.bracket_vec(a, b) for a in u.vectors() for b in v.vectors()]
    return Subspace.from_rows(u.ambient_dim, vecs, l.params)


def _pair_span(x, u: Subspace, v: Subspace, product) -> Subspace:
    vecs = [product(a, b) for a in u.vectors() for b in v.vectors()]
    return Subspace.from_rows(u.ambient_dim, vecs, x.params)


def _stability_witness(x, u: Subspace):
    """alpha-, beta-, and H-action stability of a subspace; None when stable."""
    for label, op in (("alpha", x.alpha.matrix), ("beta", x.beta.matrix)):
        for vec in u.vectors():
            img = op.apply(vec)
            if not u.contains_vector(img):
                return f"{label}(U) is not contained in U", img
    for t, op in enumerate(x.module.action):
        for vec in u.vectors():
            img = op.apply(vec)
            if not u.contains_vector(img):
                return (
                    f"{x.module.hopf.basis_names[t]}.U is not contained in U",
                    img,
                )
    return None


def is_H_bihom_lie_ideal(l: BiHomLie, u: Subspace) -> IdealCheck:
    """alpha(U), beta(U), H.U, and [U, L] all inside U."""
    _check_ambient(l, u)
    bad = _stability_witness(l, u)
    if bad is not None:
        return IdealCheck(False, bad[0], bad[1])
    full = Subspace.full_space(u.ambient_dim, l.params)
    for a in u.vectors():
        for b in full.vectors():
            img = l.bracket_vec(a, b)
            if not u.contains_vector(img):
                return IdealCheck(False, "[U, L] is not contained in U", img)
    return IdealCheck(True)


def is_H_bihom_ideal(a: BiHomAlgebra, u: Subspace) -> IdealCheck:
    """Stability plus the two-sided form AU + UA inside U (strictly implies
    the one-sided display (AU)A = A(UA) in the unital case)."""
    _check_ambient(a, u)
    bad = _stability_witness(a, u)
    if bad is not None:
        return IdealCheck(False, bad[0], bad[1])
    full = Subspace.full_space(u.ambient_dim, a.params)
    for vec in u.vectors():
        for b in full.vectors():
            left = a.product_vec(b, vec)
            if not u.contains_vector(left):
                return IdealCheck(False, "AU is not contained in U", left)
            right = a.product_vec(vec, b)
            if not u.contains_vector(right):
                return IdealCheck(False, "UA is not contained in U", right)
    return IdealCheck(True)


def _operator(x, vec, right=False) -> Matrix:
    """Matrix of v -> vec * v (v -> v * vec when ``right``), with * the
    product or bracket of x."""
    return multiplication(x.structure_matrix(), Matrix(len(vec), 1, vec, x.params), right)


def _right_operators(l: BiHomLie):
    """The maps v -> [v, e_j], one per basis vector e_j."""
    return [_operator(l, l.module.basis_vector(j), right=True) for j in range(l.module.dim)]


def center(l: BiHomLie) -> Subspace:
    """{z : [z, L] = 0}, the kernel of the stacked right-bracket operators."""
    return kernel(vstack(_right_operators(l)))


def ideal_closure(x, seed: Subspace, kind: str | None = None) -> Subspace:
    """Least subspace containing ``seed`` stable under alpha, beta, the
    H-action, and bracketing (Lie) or two-sided multiplication (associative).

    ``kind`` defaults to the structure's own flavor; pass "lie" or
    "associative" explicitly when the ambient object carries both readings.
    """
    _check_ambient(x, seed)
    if kind is None:
        kind = "lie" if isinstance(x, BiHomLie) else "associative"
    if kind not in ("lie", "associative"):
        raise ValueError(f"unknown closure kind {kind!r}")
    full = Subspace.full_space(seed.ambient_dim, x.params)
    current = seed
    while True:
        new = current
        for op in (x.alpha.matrix, x.beta.matrix, *x.module.action):
            new = new + Subspace.from_rows(
                seed.ambient_dim, [op.apply(v) for v in current.vectors()], x.params
            )
        if kind == "lie":
            new = new + _pair_span(x, current, full, x.bracket_vec)
        else:
            new = new + _pair_span(x, current, full, x.product_vec)
            new = new + _pair_span(x, full, current, x.product_vec)
        if new == current:
            return current
        current = new


def derived_series(l: BiHomLie, max_steps: int = 16) -> SeriesResult:
    """L, [L,L], [[L,L],[L,L]], ... until zero or stabilization."""
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    term = Subspace.full_space(l.module.dim, l.params)
    terms = [term]
    if term.dim == 0:
        return SeriesResult(terms, SERIES_ZERO, 0)
    for step in range(1, max_steps + 1):
        nxt = bracket_of_subspaces(l, term, term)
        if nxt == term:
            return SeriesResult(terms, SERIES_STABLE, step - 1)
        terms.append(nxt)
        if nxt.dim == 0:
            return SeriesResult(terms, SERIES_ZERO, step)
        term = nxt
    return SeriesResult(terms, SERIES_STABLE, max_steps)


def lower_central_series(l: BiHomLie, start: Subspace, max_steps: int = 16) -> SeriesResult:
    """V1 = start, V_{k+1} = [V_k, start], until zero or stabilization."""
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    _check_ambient(l, start)
    term = start
    terms = [term]
    if term.dim == 0:
        return SeriesResult(terms, SERIES_ZERO, 0)
    for step in range(1, max_steps + 1):
        nxt = bracket_of_subspaces(l, term, start)
        if nxt == term:
            return SeriesResult(terms, SERIES_STABLE, step - 1)
        terms.append(nxt)
        if nxt.dim == 0:
            return SeriesResult(terms, SERIES_ZERO, step)
        term = nxt
    return SeriesResult(terms, SERIES_STABLE, max_steps)


def relative_sets(x, u: Subspace, kind: str) -> Subspace:
    """normalizer/transporter {v : [v, L] <= U} for a Lie ambient, or the
    annihilator {v : vI = Iv = 0} for an associative ambient."""
    _check_ambient(x, u)
    d = _ambient_of(x)
    if kind in ("normalizer", "transporter"):
        if not isinstance(x, BiHomLie):
            raise ValueError(f"{kind} needs a Lie ambient")
        # rows of the annihilator of U composed with each v -> [v, e_j]
        ann = u.annihilator_matrix()
        ops = [ann @ op for op in _right_operators(x)] if ann.rows else []
    elif kind == "annihilator":
        if not isinstance(x, BiHomAlgebra):
            raise ValueError("annihilator needs an associative ambient")
        # v . i = 0 and i . v = 0 for every basis vector i of U
        ops = [_operator(x, i, right) for i in u.vectors() for right in (False, True)]
    else:
        raise ValueError(f"unknown relative set kind {kind!r}")
    if not ops:
        return Subspace.full_space(d, x.params)
    return kernel(vstack(ops))


def _probe_vectors(x, seed: int, count: int):
    rng = random.Random(seed)
    d = _ambient_of(x)
    out = []
    for _ in range(count):
        out.append([Scalar.of(x.params, Fraction(rng.randint(-3, 3))) for _ in range(d)])
    return out


def _power_series_reaches_zero(x, ideal: Subspace, product, max_steps: int = 16):
    term = ideal
    for _ in range(max_steps):
        nxt = _pair_span(x, term, ideal, product)
        if nxt.dim == 0:
            return True
        if nxt == term:
            return False
        term = nxt
    return False


def simplicity_certificate(x, probe_seed: int = 0, probes: int = 8) -> Certificate:
    """Search basis-vector and seeded-probe closures for proper nonzero
    ideals; report the smallest found plus prime/semiprime counterexamples.

    'No counterexample found' is NOT a proof of simplicity: deciding the
    absence of invariant subspaces over an infinite field is out of scope.
    """
    d = _ambient_of(x)
    product = x.bracket_vec if isinstance(x, BiHomLie) else x.product_vec
    seeds = [
        Subspace.from_rows(d, [v], x.params)
        for v in ([x.module.basis_vector(i) for i in range(d)] + _probe_vectors(x, probe_seed, probes))
    ]
    found = []
    for s in seeds:
        c = ideal_closure(x, s)
        if 0 < c.dim < d and c not in found:
            found.append(c)
    nonsimple = None
    for c in found:
        if nonsimple is None or c.dim < nonsimple.dim:
            nonsimple = c
    nonprime = None
    candidates = found + [Subspace.full_space(d, x.params)]
    for a in candidates:
        for b in candidates:
            if a.dim and b.dim and _pair_span(x, a, b, product).dim == 0:
                nonprime = (a, b)
                break
        if nonprime:
            break
    nonsemiprime = None
    for c in found:
        if c.dim and _power_series_reaches_zero(x, c, product):
            nonsemiprime = c
            break
    return Certificate(nonsimple, nonprime, nonsemiprime, probe_seed, probes)


def restrict_lie(l: BiHomLie, s: Subspace) -> BiHomLie:
    """The Lie structure induced on a bracket-closed, map- and H-stable
    subspace, in the coordinates of its RREF basis."""
    from .hmod import HModule, ModuleMap  # local import to avoid a cycle at load

    _check_ambient(l, s)
    vecs = s.vectors()
    k = len(vecs)

    def coords_or_fail(vec, what):
        c = s.coordinates(vec)
        if c is None:
            raise ValueError(f"subspace is not closed under {what}")
        return c

    def restrict_op(op, what):
        cols = [coords_or_fail(op.apply(v), what) for v in vecs]
        return Matrix.from_rows(
            [[cols[j][i] for j in range(k)] for i in range(k)], l.params
        )

    action = [restrict_op(op, "the H-action") for op in l.module.action]
    names = [f"v{i + 1}" for i in range(k)]
    module = HModule(l.module.hopf, names, action)
    alpha = ModuleMap(module, module, restrict_op(l.alpha.matrix, "alpha"))
    beta = ModuleMap(module, module, restrict_op(l.beta.matrix, "beta"))
    cols = [coords_or_fail(l.bracket_vec(a, b), "the bracket") for a in vecs for b in vecs]
    bracket = Matrix(k, k * k, [c[i] for i in range(k) for c in cols], l.params)
    return BiHomLie(module, bracket, alpha, beta, l.rmatrix)

"""Ideal and series structure theory for validated BiHom structures.

Everything here is exact subspace arithmetic: ideals are RREF subspaces,
series run for at most n = dim steps, and simplicity/primality/semiprimality
are semi-decisions that either exhibit a certificate ideal or report that
the probe search found no counterexample. Probe vectors come from a seeded
generator recorded in the result, so runs are reproducible.

n steps settle whether a series reaches zero. A decreasing chain loses a
dimension at each step until it is zero or stable. In the lower central
series of a start S, V_{k+1} is the span of all words of length k in the
maps v -> v s (s in S) applied to S; if some V_m = 0, these maps act
nilpotently on U, the sum of all those spans, so V_{n+1} = 0 already
because dim U <= n.

One list says what an ideal is (``_closure_operators``): the maps alpha,
beta and the H-action, and the products with each basis vector, on the
right for a Lie ideal and on both sides for an ideal of an algebra, each
a row-form operator the structure builds once, on first use, and keeps.
Each operator carries the reason a failing ideal check prints. The ideal
checks and the closures read that list and nothing else: a check makes
the images of the basis rows one at a time and stops at the first that
leaves the subspace, and a closure spins under the same operators.

A subspace is the sparse matrix of its basis rows. The products or
brackets of two subspaces come from ``products`` of the structure one
pair of rows at a time, made only as a span reads them, so a span that
stops early makes no more. Containment is tested row by row on the sparse
rows.

An ideal closure is spun on one ``Echelon``, as in a MeatAxe spin: only the
images of basis rows that have just been added are reduced, a row already
in the span is dropped at once, and the spin stops as soon as the echelon
fills the whole space.

Every span has a ceiling, the MeatAxe spin's own stopping rule (Parker
1984): a span known to lie in a subspace U is U once its rank reaches
dim U, so it stops there and is U. The certificate spins each seed under
the smallest closure already found that holds it (the whole space when
none does). A series whose second term lies in its first decreases, and then each
term is capped by the one before: ``derived_series``, the lower central
series of the whole space and the powers of a closure. Any other start
runs uncapped. The nonprime pair search stops at the first nonzero
product.
"""

from __future__ import annotations

import random
from itertools import chain

from .bihom import BiHomAlgebra, BiHomLie
from .errors import AmbientMismatch
from .linalg import Echelon, Matrix, Subspace, hstack, kernel, row_times

SERIES_ZERO = "terminates-at-zero"
SERIES_STABLE = "stabilizes-nonzero"
SERIES_UNSETTLED = "never-reaches-zero"


class SeriesResult:
    def __init__(self, terms: list, verdict: str, step: int):
        self.terms = terms
        self.verdict = verdict
        self.step = step

    @property
    def reaches_zero(self) -> bool:
        return self.verdict == SERIES_ZERO


class IdealCheck:
    def __init__(self, is_ideal: bool, reason: str = "", witness: list | None = None):
        self.is_ideal = is_ideal
        self.reason = reason
        self.witness = witness  # offending vector, in ambient coordinates

    def __bool__(self):
        return self.is_ideal


class Certificate:
    """Semi-decision output; ``found`` certificates are proofs, everything
    else is explicitly 'no counterexample found', never a positive proof."""

    def __init__(
        self,
        nonsimple_ideal: Subspace | None,
        nonprime_pair: tuple | None,
        nonsemiprime_ideal: Subspace | None,
        probe_seed: int,
        probes: int,
    ):
        self.nonsimple_ideal = nonsimple_ideal
        self.nonprime_pair = nonprime_pair
        self.nonsemiprime_ideal = nonsemiprime_ideal
        self.probe_seed = probe_seed
        self.probes = probes


def _check_ambient(x, space: Subspace):
    if space.ambient_dim != x.module.dim:
        raise AmbientMismatch(
            f"subspace lives in dim {space.ambient_dim}, structure in {x.module.dim}"
        )


def _closure_operators(x, kind: str | None) -> tuple:
    """What an ideal of ``kind`` is stable under: the maps (alpha, beta
    and the action of each element of H) and the products with each basis
    vector e_j, one list per side: u e_j for "lie", and u e_j then e_j u
    for "associative" (a spin in this order puts fewer rows into its
    echelon than one that alternates the sides). Lists of (reason,
    row-form operator) pairs, the reason being what a failing ideal check
    says; an identity map, which adds nothing to a span that holds the
    row, is left out."""
    if kind is None:
        kind = "lie" if isinstance(x, BiHomLie) else "associative"
    if kind not in ("lie", "associative"):
        raise ValueError(f"unknown closure kind {kind!r}")
    labels = ["alpha(U)", "beta(U)"] + [f"{h}.U" for h in x.module.hopf.basis_names]
    maps = [(f"{label} is not contained in U", op)
            for label, op in zip(labels, x.map_operators) if not op.is_identity()]
    if kind == "lie":
        return maps, [("[U, L] is not contained in U", op) for op in x.right_operators]
    return (maps, [("UA is not contained in U", op) for op in x.right_operators],
            [("AU is not contained in U", op) for op in x.left_operators])


def _ideal_check(x, u: Subspace, kind: str) -> IdealCheck:
    """Whether ``u`` is stable under every operator of an ideal of ``kind``.

    The images are made one at a time: map by map over every row of u, then
    row by row of u under the products with e_1, e_2, ..., e_j u before
    u e_j. The first image outside u is the witness, with the reason its
    operator carries."""
    _check_ambient(x, u)
    maps, *sides = _closure_operators(x, kind)
    products = [p for ps in zip(*reversed(sides)) for p in ps]
    rows = u.basis.data
    images = chain(((row, m) for m in maps for row in rows),
                   ((row, p) for row in rows for p in products))
    for row, (reason, op) in images:
        image = row_times(row, op)
        if not u._holds(image):
            witness = Matrix.from_dicts(1, u.ambient_dim, [image], x.params).row(0)
            return IdealCheck(False, reason, witness)
    return IdealCheck(True)


def is_H_bihom_lie_ideal(l: BiHomLie, u: Subspace) -> IdealCheck:
    """alpha(U), beta(U), H.U, and [U, L] all inside U."""
    return _ideal_check(l, u, "lie")


def is_H_bihom_ideal(a: BiHomAlgebra, u: Subspace) -> IdealCheck:
    """Stability plus the two-sided form AU + UA inside U (strictly implies
    the one-sided display (AU)A = A(UA) in the unital case)."""
    return _ideal_check(a, u, "associative")


def center(l: BiHomLie) -> Subspace:
    """{z : [z, L] = 0}, the common kernel of the operators v -> [v, e_j]."""
    return kernel(hstack(l.right_operators).transpose())


def ideal_closure(x, seed: Subspace, kind: str | None = None) -> Subspace:
    """Least subspace containing ``seed`` stable under alpha, beta, the
    H-action, and products with the whole space: on one side ([U, L],
    kind "lie") or on both (AU + UA, kind "associative").

    ``kind`` defaults to the structure's own flavor. The closure is spun on
    one ``Echelon``: each row that enters the span has its images under the
    row-form operators of the structure reduced once, and the spin stops
    when no new row is left or the span is the whole space.
    """
    _check_ambient(x, seed)
    return _spin(x, seed, _closure_operators(x, kind))


def _spin(x, seed: Subspace, ops: tuple, within: Subspace | None = None) -> Subspace:
    """The closure of ``seed`` under ``ops``, the lists of
    ``_closure_operators`` in their order. ``within``, a closed subspace
    that holds ``seed``, holds the closure too: it is returned as soon as
    the span reaches its dimension."""
    spun = [op for _, op in chain(*ops)]
    span = Echelon(seed.ambient_dim, x.params, within)
    pending = [(r, spun) for r in map(span.add, seed.basis.data) if r is not None]
    return span.spin(pending, spun).subspace()


def _series(x, start: Subspace, derived: bool, ideal: bool = False) -> SeriesResult:
    """V1 = start and V_{k+1} = V_k V_k (``derived``) or V_k start, for at
    most n = dim steps. The verdict is ``SERIES_ZERO`` at a zero term,
    ``SERIES_STABLE`` at a term equal to the one before, and otherwise
    ``SERIES_UNSETTLED``: by the bound above, that chain never reaches zero.

    When ``start`` is the whole space or an ``ideal`` (a closure), V2 lies
    in V1, so each term lies in the one before and its span stops at that
    dimension. Any other start runs uncapped."""
    _check_ambient(x, start)
    term, terms = start, [start]
    if term.dim == 0:
        return SeriesResult(terms, SERIES_ZERO, 0)
    n = start.ambient_dim
    decreasing = ideal or start.dim == n
    for step in range(1, n + 1):
        rows = x.products(term.basis.data, (term if derived else start).basis.data)
        nxt = Subspace.span(n, rows, x.params, term if decreasing else None)
        if nxt == term:
            return SeriesResult(terms, SERIES_STABLE, step - 1)
        terms.append(nxt)
        if nxt.dim == 0:
            return SeriesResult(terms, SERIES_ZERO, step)
        term = nxt
    return SeriesResult(terms, SERIES_UNSETTLED, n)


def derived_series(l: BiHomLie) -> SeriesResult:
    """L, [L,L], [[L,L],[L,L]], ... for at most dim steps."""
    return _series(l, Subspace.full_space(l.module.dim, l.params), derived=True)


def lower_central_series(l: BiHomLie, start: Subspace) -> SeriesResult:
    """V1 = start, V_{k+1} = [V_k, start], for at most dim steps."""
    return _series(l, start, derived=False)


PROBES = 8  # the seeded probe vectors of a simplicity certificate


def _probe_rows(x, seed: int):
    """``PROBES`` seeded probe vectors with coordinates in -3..3, as sparse
    kernel rows."""
    rng = random.Random(seed)
    out = []
    for _ in range(PROBES):
        coords = [rng.randint(-3, 3) for _ in range(x.module.dim)]
        out.append({k: c for k, c in enumerate(coords) if c})
    return out


def simplicity_certificate(x, probe_seed: int = 0) -> Certificate:
    """Search the closures of the basis vectors and of ``PROBES`` probe
    vectors seeded by ``probe_seed`` for proper nonzero ideals; report the
    smallest found plus prime/semiprime counterexamples.

    'No counterexample found' is NOT a proof of simplicity: deciding the
    absence of invariant subspaces over an infinite field is out of scope.
    """
    d = x.module.dim
    ops = _closure_operators(x, None)
    found = []
    for row in Matrix.identity(d, x.params).data + _probe_rows(x, probe_seed):
        # the smallest closure found that holds the row holds its closure
        within = min((c for c in found if c._holds(row)), key=lambda c: c.dim, default=None)
        c = _spin(x, Subspace.span(d, [row], x.params), ops, within)
        if 0 < c.dim < d and c not in found:
            found.append(c)
    nonsimple = min(found, key=lambda c: c.dim, default=None)
    candidates = found + [Subspace.full_space(d, x.params)]
    nonprime = next(((a, b) for a in candidates for b in candidates
                     if a.dim and b.dim and _annihilates(x, a, b)), None)
    # the powers C, CC, (CC)C, ... of a found closure reach zero
    nonsemiprime = next(
        (c for c in found if _series(x, c, derived=False, ideal=True).reaches_zero), None
    )
    return Certificate(nonsimple, nonprime, nonsemiprime, probe_seed, PROBES)


def _annihilates(x, a: Subspace, b: Subspace) -> bool:
    """Whether every product of a row of ``a`` with a row of ``b`` is zero;
    the products stop at the first nonzero one."""
    return not any(x.products(a.basis.data, b.basis.data))

"""Command-line surface: check / construct / structure / catalog / print.

Exit codes are a stable contract: 0 all checks passed, 1 at least one
axiom failed, 2 input error (unreadable, non-UTF-8, too deeply nested or
invalid file, bad flags), 3 precondition refusal (singular twisting maps,
non-triangular R-matrix, and friends). Reports print as text by default or
as versioned JSON with --json; output is deterministic for a given input
and seed.

Only the structure command loads the structure-theory code
(``bihomcheck.structure``): a check, construct or print process never
imports or compiles it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .algfile import (
    AlgebraFile,
    AlgebraObject,
    parse_algebra_file,
    print_algebra_file,
    substitute_file,
)
from .bihom import (
    braided_commutator,
    check_bihom_associative,
    check_generalized_bihom_lie,
    check_lemma31,
    commutator_bracket,
    twist_bracket,
)
from .catalog import CATALOG_DESCRIPTIONS, catalog_file, catalog_names
from .errors import (
    BihomError,
    ConstructionError,
    DenominatorVanishes,
    NotAGroup,
    NotBijective,
    NotEndomorphism,
    NotInvertible,
    NotTriangular,
    ParseError,
    Singular,
    UnboundParameter,
    ValidationError,
)
from .hmod import check_module, check_module_algebra
from .hopf import check_hopf_axioms, triangularity
from .linalg import Subspace
from .report import (
    CheckEntry,
    CheckReport,
    Witness,
    format_combination,
    format_subspace,
    residual_from_vector,
)
from .scalars import MAX_INT_DIGITS, parse_scalar

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_REFUSED = 3

INPUT_ERRORS = (ParseError, ValidationError, NotAGroup, UnboundParameter, DenominatorVanishes)
REFUSALS = (NotBijective, NotTriangular, NotEndomorphism, NotInvertible, Singular, ConstructionError)

SUITES = ("hopf", "module", "module-algebra", "bihom-assoc", "bihom-lie", "lemma31", "all")


def load_file(ref: str) -> AlgebraFile:
    """Resolve a catalog name or a path to a validated AlgebraFile."""
    if ref in catalog_names():
        return catalog_file(ref)
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError([f"cannot read {ref!r}: {exc}"]) from None
    except UnicodeDecodeError as exc:
        raise ValidationError(
            [f"cannot read {ref!r}: not UTF-8 text ({exc.reason} at byte {exc.start})"]
        ) from None
    return parse_algebra_file(text)


def _parse_bindings(pairs):
    bindings = {}
    for item in pairs or ():
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValidationError([f"--set expects NAME=RATIONAL, got {item!r}"])
        if name in bindings:
            raise ValidationError([f"--set {name}: given more than once"])
        # Fraction("1e999999999") would build a billion-digit integer
        _, e, exponent = value.lower().partition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (
            len(digits) > len(str(MAX_INT_DIGITS)) or int(digits) > MAX_INT_DIGITS
        ):
            raise ValidationError(
                [f"--set {name}: the exponent of {value!r} exceeds {MAX_INT_DIGITS}"]
            )
        try:
            bindings[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValidationError([f"--set {name}: {value!r} is not a rational"]) from None
    return bindings


def _prefixed(rep_into: CheckReport, prefix: str, rep: CheckReport):
    entries = [
        CheckEntry(f"{prefix}:{e.check_id}", e.law, e.status, e.witness, e.detail)
        for e in rep.entries
    ]
    rep_into.extend(CheckReport(rep.suite, entries, rep.notes, rep.probe_seed))
    return rep_into


def _bracket_diff_notes(obj, lie, rep: CheckReport):
    """Informational diff of ``lie``, the commutator of the product object
    ``obj``, against its published reference table; discrepancies never
    fail the run."""
    names = obj.basis
    got, want = lie.structure_matrix(), obj.reference_bracket
    diffs = []
    for c in (got - want).nonzero_columns():
        i, j = divmod(c, obj.dim)
        diffs.append(
            f"[{names[i]},{names[j]}]: computed {format_combination(names, got.col(c))}, "
            f"reference {format_combination(names, want.col(c))}"
        )
    if diffs:
        rep.note(
            f"{obj.name}: computed commutator differs from the stored reference "
            f"table (suspected typo in the published values); formula output is "
            f"authoritative"
        )
        for dtext in diffs:
            rep.note(f"{obj.name}: {dtext}")
    else:
        rep.note(f"{obj.name}: computed commutator matches the stored reference table")


def run_suite(f: AlgebraFile, suite: str) -> CheckReport:
    """Aggregate the requested axiom suites over every applicable object.
    Each object's structure is built once, on first use, and shared by the
    module-algebra, bihom-assoc, bihom-lie and lemma31 suites and the
    reference diff. The ``triangularity`` verdict on (H, R) is likewise
    computed once and passed to R:qt, lie.rmatrix-triangular, lemma31 and
    the reference diff, and so are the braiding and the commutator matrix
    of each product object, to lemma31 and the reference diff, and its
    module-algebra report, to bihom-assoc."""
    if suite not in SUITES:
        raise ValidationError([f"unknown suite {suite!r} (choose from {', '.join(SUITES)})"])
    rep = CheckReport(suite)
    tolerant = suite == "all"
    verdict = functools.cache(lambda: triangularity(f.hopf, f.rmatrix))
    structure = functools.cache(lambda name: f.objects[name].structure(f.rmatrix))
    commutator = functools.cache(
        lambda name: braided_commutator(structure(name), f.rmatrix, verdict=verdict())
    )
    module_algebra = functools.cache(lambda name: check_module_algebra(structure(name)))
    names = sorted(f.objects)
    products = [name for name in names if f.objects[name].kind == "mult"]
    brackets = [name for name in names if name not in products]

    def guarded(fn, label):
        try:
            fn()
        except REFUSALS as exc:
            if not tolerant:
                raise
            rep.skip(label, "suite skipped", f"precondition refused: {exc}")

    if suite in ("hopf", "all"):
        _prefixed(rep, "H", check_hopf_axioms(f.hopf))

        def qt():
            if isinstance(verdict(), NotInvertible):
                raise verdict()
            sub, tri = verdict()
            _prefixed(rep, "R", sub)
            rep.add(
                "R:qt.triangular",
                "flip(R) equals the inverse of R in H (x) H",
                tri,
                None,
                "" if tri else "R is quasitriangular at most",
            )

        guarded(qt, "R:qt")
    if suite in ("module", "all"):
        for name in names:
            _prefixed(rep, name, check_module(f.objects[name].module))
    if suite in ("module-algebra", "all"):
        for name in products:
            _prefixed(rep, name, module_algebra(name))
    if suite in ("bihom-assoc", "all"):
        for name in products:
            _prefixed(
                rep,
                name,
                check_bihom_associative(structure(name), module_algebra=module_algebra(name)),
            )
    if suite in ("bihom-lie", "all"):
        for name in brackets:
            _prefixed(rep, name, check_generalized_bihom_lie(structure(name), verdict=verdict()))
    if suite in ("lemma31", "all"):
        for name in products:
            guarded(
                lambda name=name: _prefixed(
                    rep, name, check_lemma31(structure(name), f.rmatrix, commutator=commutator(name))
                ),
                f"{name}:lemma31",
            )
    if suite == "all":
        for name in products:
            obj = f.objects[name]
            if obj.reference_bracket is None:
                continue
            try:
                lie = commutator_bracket(
                    structure(name), f.rmatrix, verdict=verdict(), commutator=commutator(name)
                )
            except BihomError as exc:
                rep.note(f"{obj.name}: reference diff skipped ({exc})")
                continue
            _bracket_diff_notes(obj, lie, rep)
    return rep


def _pick_object(f: AlgebraFile, wanted: str | None, kind: str | None = None):
    label = {"mult": "product object", "bracket": "bracket object"}.get(kind, "object")
    pool = {n: o for n, o in f.objects.items() if kind is None or o.kind == kind}
    if wanted is not None:
        if wanted not in pool:
            raise ValidationError([f"no {label} named {wanted!r}; have {sorted(pool) or 'none'}"])
        return pool[wanted]
    if not pool:
        raise ValidationError([f"the file has no {label}s"])
    if len(pool) != 1:
        raise ValidationError([f"choose one of the {label}s {sorted(pool)} with --object"])
    return next(iter(pool.values()))


def run_construction(f: AlgebraFile, what: str, object_name: str | None = None):
    """Derive a new instance file: the braided commutator of a product
    object, or the twist of a bracket object by its stored twist maps,
    with the BiHom-Lie report that validated it, prefixed as in run_suite."""
    if what == "commutator":
        obj = _pick_object(f, object_name, "mult")
        lie = commutator_bracket(obj.structure(f.rmatrix), f.rmatrix)
    elif what == "twist":
        obj = _pick_object(f, object_name, "bracket")
        lie = twist_bracket(obj.structure(f.rmatrix), *obj.twist_maps())
    else:
        raise ValidationError([f"unknown construction {what!r}"])
    derived = AlgebraFile(
        name=f"{f.name}-{what}" if f.name else what,
        parameters=f.parameters,
        hopf_spec=f.hopf_spec,
        hopf=f.hopf,
        rmatrix=f.rmatrix,
        objects={obj.name or "A": AlgebraObject.of(obj.name, lie)},
    )
    return derived, _prefixed(CheckReport("bihom-lie"), obj.name or "A", lie.validation)


def _parse_space(spec: str | None, dim, params, default=None) -> Subspace:
    if spec is None:
        if default is not None:
            return default
        raise ValidationError(["--space is required for this computation"])
    rows = []
    text = spec.strip()
    if text in ("0", ""):
        return Subspace.zero_space(dim, params)
    if text == "full":
        return Subspace.full_space(dim, params)
    for rtext in text.split(";"):
        cells = [c.strip() for c in rtext.split(",")]
        if len(cells) != dim:
            raise ValidationError(
                [f"--space row {rtext!r} has {len(cells)} coordinates, expected {dim}"]
            )
        try:
            rows.append([parse_scalar(c, params) for c in cells])
        except ParseError as exc:
            raise ValidationError([f"--space: {exc}"]) from None
    return Subspace.from_rows(dim, rows, params)


STRUCTURE_WHAT = ("center", "derived-series", "lcs", "ideal-check", "closure", "certificate")


def run_structure(
    f: AlgebraFile,
    what: str,
    object_name: str | None = None,
    space: str | None = None,
    max_steps: int = 16,
    probe_seed: int = 0,
) -> CheckReport:
    """Structure-theory computations rendered into a report; subspaces are
    printed as RREF bases over the object's named basis."""
    # imported here, so that no other command loads the structure theory
    from .structure import (
        center,
        derived_series,
        ideal_closure,
        is_H_bihom_ideal,
        is_H_bihom_lie_ideal,
        lower_central_series,
        simplicity_certificate,
    )

    rep = CheckReport(f"structure:{what}")
    if what not in STRUCTURE_WHAT:
        raise ValidationError(
            [f"unknown computation {what!r} (choose from {', '.join(STRUCTURE_WHAT)})"]
        )
    if max_steps < 1:
        raise ValidationError([f"--max-steps must be at least 1, got {max_steps}"])
    lie_only = what in ("center", "derived-series", "lcs")
    obj = _pick_object(f, object_name, "bracket" if lie_only else None)
    x = obj.structure(f.rmatrix)
    names = obj.basis
    is_lie = obj.kind == "bracket"
    if what == "center":
        rep.note(f"center = {format_subspace(names, center(x))}")
    elif what in ("derived-series", "lcs"):
        if what == "derived-series":
            res, label, holds = derived_series(x, max_steps), "derived series", "solvable"
        else:
            start = _parse_space(
                space, obj.dim, f.parameters, Subspace.full_space(obj.dim, f.parameters)
            )
            res = lower_central_series(x, start, max_steps)
            label, holds = "lower central series", "nilpotent"
        chain = ", ".join(format_subspace(names, t) for t in res.terms)
        rep.note(f"{label}: [{chain}]")
        rep.note(f"verdict: {res.verdict} at step {res.step}")
        rep.note(f"{holds}: {'yes' if res.reaches_zero else 'no'}")
    elif what == "ideal-check":
        sub = _parse_space(space, obj.dim, f.parameters)
        if is_lie:
            verdict = is_H_bihom_lie_ideal(x, sub)
            law = "U is an H-BiHom-Lie ideal (alpha, beta, H-stable and [U,L] <= U)"
        else:
            verdict = is_H_bihom_ideal(x, sub)
            law = (
                "U is an H-BiHom-ideal (alpha, beta, H-stable and AU + UA <= U; "
                "two-sided form, strictly implies the one-sided (AU)A = A(UA))"
            )
        w = None
        if not verdict:
            w = Witness((verdict.reason,), residual_from_vector(names, verdict.witness))
        rep.add("structure.ideal", law, bool(verdict), w)
    elif what == "closure":
        sub = _parse_space(space, obj.dim, f.parameters)
        rep.note(f"closure kind: {'lie' if is_lie else 'associative'}")
        rep.note(f"seed = {format_subspace(names, sub)}")
        rep.note(f"closure = {format_subspace(names, ideal_closure(x, sub))}")
    else:  # certificate
        cert = simplicity_certificate(x, probe_seed=probe_seed)
        rep.probe_seed = probe_seed
        if cert.nonsimple_ideal is not None:
            rep.note(
                f"certified-nonsimple: proper nonzero ideal "
                f"{format_subspace(names, cert.nonsimple_ideal)}"
            )
        else:
            rep.note("simplicity: no-counterexample-found (NOT a simplicity proof)")
        if cert.nonprime_pair is not None:
            a, b = cert.nonprime_pair
            rep.note(
                f"certified-nonprime: {format_subspace(names, a)} and "
                f"{format_subspace(names, b)} have zero product"
            )
        else:
            rep.note("primality: no-counterexample-found")
        if cert.nonsemiprime_ideal is not None:
            rep.note(
                f"certified-nonsemiprime: nilpotent ideal "
                f"{format_subspace(names, cert.nonsemiprime_ideal)}"
            )
        else:
            rep.note("semiprimality: no-counterexample-found")
    return rep


def _emit(text: str, output: str | None):
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError([f"cannot write {output!r}: {exc}"]) from None
    else:
        sys.stdout.write(text)


def _emit_report(rep: CheckReport, as_json: bool, output: str | None) -> int:
    if as_json:
        _emit(json.dumps(rep.to_json(), indent=2) + "\n", output)
    else:
        _emit(rep.render_text() + "\n", output)
    return EXIT_OK if rep.ok else EXIT_FAIL


def build_parser():
    p = argparse.ArgumentParser(
        prog="bihomcheck",
        description="Exact axiom checking and structure theory for BiHom "
        "algebras over quasitriangular Hopf algebras.",
    )
    p.add_argument("--version", action="version", version=f"bihomcheck {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="list the built-in instances")
    cat.add_argument("--json", action="store_true")

    pr = sub.add_parser("print", help="canonical file text for an instance")
    pr.add_argument("ref", help="catalog name or path to an algebra file")
    pr.add_argument("--output", default=None)

    ch = sub.add_parser("check", help="run axiom suites and report pass/fail")
    ch.add_argument("ref")
    ch.add_argument("--suite", default="all", choices=SUITES)
    ch.add_argument("--set", dest="bindings", action="append", metavar="NAME=RATIONAL")
    ch.add_argument("--json", action="store_true")
    ch.add_argument("--output", default=None)

    co = sub.add_parser("construct", help="derive the commutator or twist instance")
    co.add_argument("ref")
    co.add_argument("--what", required=True, choices=("commutator", "twist"))
    co.add_argument("--object", dest="object_name", default=None)
    co.add_argument("--set", dest="bindings", action="append", metavar="NAME=RATIONAL")
    co.add_argument("--output", required=True)
    co.add_argument("--json", action="store_true", help="also print the suite report for the result")

    st = sub.add_parser("structure", help="center, series, ideals, closures, certificates")
    st.add_argument("ref")
    st.add_argument("--what", required=True, choices=STRUCTURE_WHAT)
    st.add_argument("--object", dest="object_name", default=None)
    st.add_argument("--space", default=None, help="basis rows 'c1,c2,...;d1,d2,...' or '0' or 'full'")
    st.add_argument("--set", dest="bindings", action="append", metavar="NAME=RATIONAL")
    st.add_argument("--max-steps", type=int, default=16)
    st.add_argument("--probe-seed", type=int, default=0)
    st.add_argument("--json", action="store_true")
    st.add_argument("--output", default=None)
    return p


def _dispatch(args) -> int:
    if args.command == "catalog":
        if args.json:
            doc = [
                {"name": n, "description": CATALOG_DESCRIPTIONS[n]} for n in catalog_names()
            ]
            sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        else:
            for n in catalog_names():
                sys.stdout.write(f"{n}: {CATALOG_DESCRIPTIONS[n]}\n")
        return EXIT_OK

    f = load_file(args.ref)
    bindings = _parse_bindings(getattr(args, "bindings", None))
    if bindings:
        f = substitute_file(f, bindings)

    if args.command == "print":
        _emit(print_algebra_file(f), args.output)
        return EXIT_OK
    if args.command == "check":
        rep = run_suite(f, args.suite)
        return _emit_report(rep, args.json, args.output)
    if args.command == "construct":
        derived, rep = run_construction(f, args.what, args.object_name)
        _emit(print_algebra_file(derived), args.output)
        if args.json:
            sys.stdout.write(json.dumps(rep.to_json(), indent=2) + "\n")
        return EXIT_OK if rep.ok else EXIT_FAIL
    if args.command == "structure":
        rep = run_structure(
            f,
            args.what,
            object_name=args.object_name,
            space=args.space,
            max_steps=args.max_steps,
            probe_seed=args.probe_seed,
        )
        return _emit_report(rep, args.json, args.output)
    raise AssertionError(f"unhandled command {args.command}")


# built on first use and shared by every call of ``main``: parsing keeps no
# state in the parser, and each call gets a fresh namespace
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help, the version or a usage error
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return _dispatch(args)
    except INPUT_ERRORS as exc:
        if isinstance(exc, ValidationError):
            for item in exc.findings:
                sys.stderr.write(f"error: {item}\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except REFUSALS as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())

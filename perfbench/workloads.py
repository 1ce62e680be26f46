"""Task lists of the benchmark workloads and the gate that checks their outputs.

A task is one call into bihomcheck that produces a verdict. ``run`` is the
timed part; ``check`` inspects its output after the pass, outside the timed
span, and returns None or the reason the output is wrong. Every call goes
through a module attribute (``hopf.check_hopf_axioms``, ``cli.main``), so
the traced run sees it once its wrappers are installed.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from bihomcheck import algfile, bihom, cli, hopf, structure
from bihomcheck.catalog import GROUP_Z1, catalog_names, trivial_rmatrix
from bihomcheck.linalg import Subspace
from bihomcheck.report import format_subspace

import instances

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_FILE = BENCH_DIR / "expected.json"

# the golden structure commands of the CLI tests: (name, what, extra argv)
GOLDEN_STRUCTURE = (
    ("example25-heisenberg", "center", ["--object", "L"]),
    ("example25-heisenberg", "derived-series", ["--object", "L"]),
    ("example25-heisenberg", "lcs", ["--object", "L", "--space", "0,0,1"]),
    ("example25-heisenberg", "certificate", ["--object", "L"]),
    ("example25-twisted", "center", ["--object", "L"]),
    ("example24", "certificate", ["--object", "A"]),
    ("cross-product-classical", "derived-series", ["--object", "L"]),
    ("trivial-hopf", "certificate", ["--object", "A"]),
)


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    # canonical text of the output, for tasks checked against a pinned digest
    canon: "Callable[[object], str] | None" = None


@dataclass
class Expected:
    """What correct outputs look like: the goldens under tests/golden, read
    in place, plus digests and symbolic statuses pinned in expected.json."""

    goldens: dict
    digests: dict
    statuses: dict
    standard: dict

    @classmethod
    def load(cls):
        pinned = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
        return cls(read_goldens(), pinned["digests"], pinned["statuses"], pinned["standard"])


def read_goldens():
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(GOLDEN_DIR.glob("*.json"))}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- output shapes ------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    written: "str | None" = None


def call_cli(argv, output: "Path | None" = None) -> CliResult:
    """``bihomcheck.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    written = output.read_text(encoding="utf-8") if output is not None else None
    return CliResult(code, out.getvalue(), written)


def canon_cli(r: CliResult) -> str:
    return f"exit {r.code}\n{r.stdout}\n--- written\n{r.written}"


def canon_report(rep) -> str:
    return json.dumps(rep.to_json(), indent=1)


def canon_tensor(x) -> str:
    d = x.module.dim
    return json.dumps([[[str(c) for c in x.tensor[i][j]] for j in range(d)] for i in range(d)])


def canon_series(res, names) -> str:
    return json.dumps(
        {
            "verdict": res.verdict,
            "step": res.step,
            "terms": [format_subspace(names, t) for t in res.terms],
        }
    )


def statuses(report_json: dict) -> list:
    return [[e["id"], e["status"]] for e in report_json["entries"]]


# -- checks -------------------------------------------------------------------


def check_digest(expected: Expected, name, canon):
    def check(out):
        want = expected.digests.get(name)
        if want is None:
            return "no digest pinned for this task"
        got = sha256(canon(out))
        return None if got == want else f"output digest {got[:12]} != pinned {want[:12]}"

    return check


def check_golden(expected: Expected, stem):
    def check(out: CliResult):
        if out.code != 0:
            return f"exit code {out.code}"
        if stem not in expected.goldens:
            return f"golden {stem}.json missing"
        return None if out.stdout == expected.goldens[stem] else f"output differs from golden {stem}.json"

    return check


def check_statuses(want_statuses):
    """A --set specialization must give the statuses of the symbolic report."""

    def check(out: CliResult):
        if want_statuses is None:
            return "no symbolic statuses pinned"
        want_code = 1 if any(s == "fail" for _, s in want_statuses) else 0
        if out.code != want_code:
            return f"exit code {out.code}, symbolic report gives {want_code}"
        try:
            got = statuses(json.loads(out.stdout))
        except (ValueError, KeyError) as exc:
            return f"unreadable report: {exc}"
        return None if got == want_statuses else "statuses differ from the symbolic report"

    return check


def check_all_pass(rep):
    bad = [e.check_id for e in rep.entries if e.status != "pass"]
    return f"entries not passing: {bad}" if bad else None


def check_true(value):
    return None if value is True else f"expected True, got {value!r}"


def check_dims(want):
    def check(res):
        got = [t.dim for t in res.terms] if hasattr(res, "terms") else res.dim
        return None if got == want else f"dimensions {got} != standard basis {want}"

    return check


def check_equal_tensor(want):
    text = canon_tensor(want)

    def check(lie):
        return None if canon_tensor(lie) == text else "bracket differs from the conjugated gl_n"

    return check


def check_certificate(x):
    """Every ideal or pair a certificate reports must hold exactly."""
    d = x.module.dim
    is_ideal = structure.is_H_bihom_lie_ideal

    def product_span(a, b):
        vecs = [x.bracket_vec(u, v) for u in a.vectors() for v in b.vectors()]
        return Subspace.from_rows(d, vecs, x.params)

    def check(cert):
        ideal = cert.nonsimple_ideal
        if ideal is not None and not (0 < ideal.dim < d and is_ideal(x, ideal)):
            return "reported nonsimple ideal is not a proper nonzero ideal"
        if cert.nonprime_pair is not None:
            a, b = cert.nonprime_pair
            if product_span(a, b).dim != 0:
                return "reported nonprime pair has a nonzero product"
        ideal = cert.nonsemiprime_ideal
        if ideal is not None and not is_ideal(x, ideal):
            return "reported nilpotent ideal is not an ideal"
        return None

    return check


# -- workloads ----------------------------------------------------------------


def seeded_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def generated_files():
    """The parametric inputs no catalog entry covers, written at set-up."""
    gen = OUT_DIR / "gen"
    gen.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in (
        ("sweedler-h4", instances.sweedler_h4_file()),
        ("yau-m2", instances.yau_m2_file()),
    ):
        paths[name] = gen / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    return paths


def cli_catalog(seed, expected: Expected):
    """What a user runs: every command in-process through ``cli.main``."""
    rng = random.Random(seed)
    files = generated_files()
    gen = OUT_DIR / "gen"
    tasks = []

    def cli_task(name, argv, check, output=None, canon=None):
        tasks.append(Task(name, lambda: call_cli(argv, output), check, canon))

    def digest_task(name, argv, output=None):
        cli_task(name, argv, check_digest(expected, name, canon_cli), output, canon_cli)

    for name in catalog_names():
        cli_task(
            f"check:{name}",
            ["check", name, "--suite", "all", "--json"],
            check_golden(expected, f"check_all_{name}"),
        )
    # the text rendering of a report, as printed without --json
    digest_task("check:text:example25-heisenberg", ["check", "example25-heisenberg", "--suite", "all"])
    for name, what, extra in GOLDEN_STRUCTURE:
        cli_task(
            f"structure:{what}:{name}",
            ["structure", name, "--what", what, "--json", *extra],
            check_golden(expected, f"structure_{what}_{name}"),
        )
    for name, what, extra in (
        ("example24", "commutator", []),
        ("example25-heisenberg", "twist", ["--object", "L"]),
    ):
        out = gen / f"{name}-{what}.json"
        digest_task(
            f"construct:{what}:{name}",
            ["construct", name, "--what", what, *extra, "--output", str(out)],
            out,
        )
    for ref in [*catalog_names(), *files]:
        path = files.get(ref, ref)

        def print_parse(path=path):
            r = call_cli(["print", str(path)])
            return r, algfile.print_algebra_file(algfile.parse_algebra_file(r.stdout))

        def check_print(out, name=f"print:{ref}"):
            r, reprinted = out
            if reprinted != r.stdout:
                return "printed file does not re-print byte-identically"
            return check_digest(expected, name, canon_cli)(r)

        tasks.append(Task(f"print:{ref}", print_parse, check_print, lambda out: canon_cli(out[0])))
    for name, path in files.items():
        digest_task(f"check:{name}", ["check", str(path), "--suite", "all", "--json"])
        out = gen / f"{name}-commutator.json"
        digest_task(
            f"construct:commutator:{name}",
            ["construct", str(path), "--what", "commutator", "--output", str(out)],
            out,
        )
    # specializations at seeded nonzero rationals keep the symbolic statuses
    symbolic = {
        name: statuses(json.loads(expected.goldens[f"check_all_{name}"]))
        for name in ("example24", "example25-heisenberg", "example25-twisted")
    }
    symbolic.update(expected.statuses)
    params = {
        "example24": ["b"],
        "example25-heisenberg": ["l1", "l2", "l1p", "l2p"],
        "example25-twisted": ["l1", "l2", "l1p", "l2p"],
        "sweedler-h4": ["t"],
        "yau-m2": ["s", "t"],
    }
    for name, names in params.items():
        binds = []
        for p in names:
            binds += ["--set", f"{p}={seeded_rational(rng)}"]
        cli_task(
            f"set:{name}",
            ["check", str(files.get(name, name)), "--suite", "all", "--json", *binds],
            check_statuses(symbolic.get(name)),
        )
    return tasks


def _api_task(tasks, expected, name, fn, canon):
    tasks.append(Task(name, fn, check_digest(expected, name, canon), canon))


def sparse_scale(seed, expected: Expected):
    """Q-only scaled families in their natural, sparse bases."""
    tasks = []
    hopf_cases = []
    for n in range(2, 9):
        h = instances.cyclic_group_algebra(n)
        hopf_cases.append((f"Z{n}", h, trivial_rmatrix(h)))
    hopf_cases.append(("Z2xZ2-R0R0", *instances.klein_r0r0()))
    for label, h, r in hopf_cases:
        _api_task(tasks, expected, f"hopf:{label}", lambda h=h: hopf.check_hopf_axioms(h), canon_report)
        _api_task(
            tasks, expected, f"qt:{label}", lambda h=h, r=r: hopf.check_quasitriangular(h, r), canon_report
        )
        _api_task(tasks, expected, f"triangular:{label}", lambda h=h, r=r: hopf.is_triangular(h, r), str)
    rng = random.Random(seed)
    for n in (2, 3):
        a = instances.matrix_algebra(n)
        r = trivial_rmatrix(a.module.hopf)
        gl = instances.general_linear(n)
        names = gl.module.basis_names
        full = Subspace.full_space(n * n, ())
        _api_task(tasks, expected, f"assoc:M{n}", lambda a=a: bihom.check_bihom_associative(a), canon_report)
        tasks.append(
            Task(f"commutator:M{n}", lambda a=a, r=r: bihom.commutator_bracket(a, r), check_equal_tensor(gl))
        )
        _api_task(
            tasks, expected, f"lie:gl{n}", lambda gl=gl: bihom.check_generalized_bihom_lie(gl), canon_report
        )
        _api_task(tasks, expected, f"lemma31:M{n}", lambda a=a, r=r: bihom.check_lemma31(a, r), canon_report)
        _api_task(
            tasks,
            expected,
            f"center:gl{n}",
            lambda gl=gl: structure.center(gl),
            lambda z, names=names: format_subspace(names, z),
        )
        _api_task(
            tasks,
            expected,
            f"derived:gl{n}",
            lambda gl=gl: structure.derived_series(gl),
            lambda s, names=names: canon_series(s, names),
        )
        _api_task(
            tasks,
            expected,
            f"lcs:gl{n}",
            lambda gl=gl, full=full: structure.lower_central_series(gl, full),
            lambda s, names=names: canon_series(s, names),
        )
        probe = rng.randrange(1 << 30)
        tasks.append(
            Task(
                f"certificate:gl{n}",
                lambda gl=gl, probe=probe: structure.simplicity_certificate(gl, probe_seed=probe),
                check_certificate(gl),
            )
        )
    return tasks


# Density of the conjugated instances: elementary operations per basis
# change, and the unit's support size for the Hopf algebras (which fixes
# the number of nonzero R coefficients at its square).
DENSE_M3_OPS = 6
DENSE_ZN = ((3, 6), (4, 8), (5, 10))
DENSE_UNIT_SUPPORT = 2
DENSE_M2_OPS = 4


def dense_scale(seed, expected: Expected):
    """The sparse families after a seeded unimodular change of basis: the
    same exact answers, but dense structure constants."""
    tasks = []
    std = expected.standard["gl3"]
    a0 = instances.matrix_algebra(3)
    p, q = instances.dense_basis("M3", 9, DENSE_M3_OPS, seed)
    a = instances.conjugate_algebra(a0, p, q)
    gl = instances.conjugate_lie(instances.general_linear(3), p, q)
    r = trivial_rmatrix(a.module.hopf)
    full = Subspace.full_space(9, ())
    tasks += [
        Task("assoc:cM3", lambda a=a: bihom.check_bihom_associative(a), check_all_pass),
        Task("commutator:cM3", lambda a=a, r=r: bihom.commutator_bracket(a, r), check_equal_tensor(gl)),
        Task("lemma31:cM3", lambda a=a, r=r: bihom.check_lemma31(a, r), check_all_pass),
        Task("center:cgl3", lambda gl=gl: structure.center(gl), check_dims(std["center"])),
        Task("derived:cgl3", lambda gl=gl: structure.derived_series(gl), check_dims(std["derived"])),
        Task(
            "lcs:cgl3",
            lambda gl=gl, full=full: structure.lower_central_series(gl, full),
            check_dims(std["lcs"]),
        ),
        Task(
            "certificate:cgl3",
            lambda gl=gl: structure.simplicity_certificate(gl, probe_seed=seed),
            check_certificate(gl),
        ),
    ]
    for n, ops in DENSE_ZN:
        h0 = instances.cyclic_group_algebra(n)
        p, q = instances.dense_basis(f"Z{n}", n, ops, seed, h0.unit, DENSE_UNIT_SUPPORT)
        h, r = instances.conjugate_hopf(h0, trivial_rmatrix(h0), p, q)
        tasks += [
            Task(f"hopf:cZ{n}", lambda h=h: hopf.check_hopf_axioms(h), check_all_pass),
            Task(f"qt:cZ{n}", lambda h=h, r=r: hopf.check_quasitriangular(h, r), check_all_pass),
            Task(f"triangular:cZ{n}", lambda h=h, r=r: hopf.is_triangular(h, r), check_true),
        ]
    return tasks


BUILDERS = {"cli-catalog": cli_catalog, "sparse-scale": sparse_scale, "dense-scale": dense_scale}


def build(workload, seed, expected: Expected):
    return BUILDERS[workload](seed, expected)


def cold_commands(workload, seed):
    """Fresh-process CLI commands behind ``cli_cold_s``: each is the argv
    after ``python -m bihomcheck.cli`` and the golden its output must equal,
    or None when every entry of its report must pass instead."""
    if workload == "cli-catalog":
        return [
            [["check", name, "--suite", "all", "--json"], f"check_all_{name}"]
            for name in catalog_names()
        ]
    gen = OUT_DIR / workload
    gen.mkdir(parents=True, exist_ok=True)
    n = 3 if workload == "dense-scale" else 4
    h = instances.cyclic_group_algebra(n)
    r = trivial_rmatrix(h)
    spec = {"group": {"names": h.basis_names, "table": [[(i + j) % n for j in range(n)] for i in range(n)], "identity": 0}}
    m2 = instances.matrix_algebra(2)
    if workload == "dense-scale":
        p, q = instances.dense_basis(f"Z{n}", n, dict(DENSE_ZN)[n], seed, h.unit, DENSE_UNIT_SUPPORT)
        h, r = instances.conjugate_hopf(h, r, p, q)
        spec = instances.raw_hopf_spec(h)
        p, q = instances.dense_basis("M2", 4, DENSE_M2_OPS, seed)
        m2 = instances.conjugate_algebra(m2, p, q)
    one = m2.module.hopf
    files = {
        "hopf.json": instances.algebra_file_text(f"{workload}-hopf", h, spec, r),
        "m2.json": instances.algebra_file_text(
            f"{workload}-m2", one, GROUP_Z1, trivial_rmatrix(one), [("A", m2)]
        ),
    }
    commands = []
    for name, text in files.items():
        (gen / name).write_text(text, encoding="utf-8")
        commands.append([["check", str(gen / name), "--suite", "all", "--json"], None])
    return commands

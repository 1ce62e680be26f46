"""Per-layer measurement from outside the program: spans around calls into
each module's public functions, exact scalar-operation counts, and scalar
microbenchmarks.

Modules import names directly (``from .linalg import kron``), so a wrapper
is installed at every import site: each ``bihomcheck`` module global that
is the original function, plus the class attribute for methods. Nothing is
wrapped while the timed, untraced passes run.
"""

from __future__ import annotations

import statistics
import sys
import timeit
from fractions import Fraction
from time import perf_counter

from bihomcheck import algfile, bihom, catalog, cli, hmod, hopf, linalg, report, scalars, structure

# (layer, owner, attribute): functions and methods whose calls become spans
SPANNED = (
    ("linalg", linalg.Matrix, "__matmul__"),
    ("linalg", linalg, "kron"),
    ("linalg", linalg, "rref"),
    ("linalg", linalg, "invert"),
    ("linalg", linalg, "kernel"),
    ("hopf", hopf, "check_hopf_axioms"),
    ("hopf", hopf, "check_quasitriangular"),
    ("hopf", hopf, "is_triangular"),
    ("hopf", hopf.RMatrix, "inverse_in"),
    ("hmod", hmod, "braiding"),
    ("hmod", hmod, "tensor_module"),
    ("hmod", hmod, "check_module"),
    ("hmod", hmod, "check_module_algebra"),
    ("bihom", bihom, "check_bihom_associative"),
    ("bihom", bihom, "check_generalized_bihom_lie"),
    ("bihom", bihom, "commutator_bracket"),
    ("bihom", bihom, "twist_bracket"),
    ("bihom", bihom, "check_lemma31"),
    ("structure", structure, "center"),
    ("structure", structure, "derived_series"),
    ("structure", structure, "lower_central_series"),
    ("structure", structure, "ideal_closure"),
    ("structure", structure, "simplicity_certificate"),
    ("algfile", algfile, "parse_algebra_file"),
    ("algfile", algfile, "print_algebra_file"),
    ("algfile", algfile, "substitute_file"),
    ("catalog", catalog, "catalog_file"),
    ("report", report.CheckReport, "to_json"),
    ("report", report.CheckReport, "render_text"),
    ("cli", cli, "main"),
)

LAYERS = ("linalg", "hopf", "hmod", "bihom", "structure", "algfile", "catalog", "report", "cli")

# span name -> (metric stem, reports a call count too)
SPAN_METRICS = {
    "linalg.__matmul__": ("linalg.matmul", True),
    "linalg.kron": ("linalg.kron", False),
    "linalg.rref": ("linalg.rref", True),
    "linalg.invert": ("linalg.invert", False),
    "hopf.check_hopf_axioms": ("hopf.check_hopf_axioms", False),
    "hopf.check_quasitriangular": ("hopf.check_quasitriangular", False),
    "hopf.is_triangular": ("hopf.is_triangular", False),
    "hopf.inverse_in": ("hopf.inverse_in", True),
    "hmod.braiding": ("hmod.braiding", True),
    "hmod.tensor_module": ("hmod.tensor_module", False),
    "hmod.check_module_algebra": ("hmod.check_module_algebra", False),
    "bihom.check_bihom_associative": ("bihom.check_bihom_associative", False),
    "bihom.check_generalized_bihom_lie": ("bihom.check_generalized_bihom_lie", False),
    "bihom.commutator_bracket": ("bihom.commutator_bracket", False),
    "bihom.twist_bracket": ("bihom.twist_bracket", False),
    "bihom.check_lemma31": ("bihom.check_lemma31", False),
    "structure.center": ("structure.center", False),
    "structure.derived_series": ("structure.derived_series", False),
    "structure.lower_central_series": ("structure.lower_central_series", False),
    "structure.ideal_closure": ("structure.ideal_closure", True),
    "structure.simplicity_certificate": ("structure.simplicity_certificate", False),
    "algfile.parse_algebra_file": ("algfile.parse", False),
    "algfile.print_algebra_file": ("algfile.print", False),
    "algfile.substitute_file": ("algfile.substitute", False),
    "catalog.catalog_file": ("catalog.catalog_file", True),
    "report.to_json": ("report.to_json", False),
    "report.render_text": ("report.render_text", False),
    "cli.main": ("cli.main", False),
}
CALL_COUNT_NAMES = {"bihom.check_generalized_bihom_lie": "bihom.lie_suite_calls"}


def _patch_sites(original, replacement, patched):
    """Point every bihomcheck module global bound to ``original`` at
    ``replacement``; remember each site so ``restore`` can undo it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "bihomcheck" or name.startswith("bihomcheck.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patched.append((module, attr, original))
                setattr(module, attr, replacement)


def restore(patched):
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
    patched.clear()


def _count_matmul(counters, args, result):
    a, b = args
    counters["matmul_cells"] += a.rows * a.cols * b.cols
    counters["matmul_out"] += len(result.entries)
    counters["matmul_nnz"] += sum(1 for x in result.entries if not x.is_zero())


def _count_kron(counters, args, result):
    counters["kron_cells"] += len(result.entries)


def _count_parse(counters, args, result):
    counters["parse_bytes"] += len(args[0].encode("utf-8"))


# counters updated after a span ends, so their cost stays outside the span
SPAN_COUNTERS = {
    "linalg.__matmul__": _count_matmul,
    "linalg.kron": _count_kron,
    "algfile.parse_algebra_file": _count_parse,
}


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, task index).
    Counters are recorded at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = -1
        self.counters = dict.fromkeys(
            ("matmul_cells", "matmul_out", "matmul_nnz", "kron_cells", "parse_bytes"), 0
        )
        self.patched = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        count = SPAN_COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.task)
            if count is not None:
                count(counters, args, result)
            return result

        return wrapper

    def install(self):
        for layer, owner, attr in SPANNED:
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            if isinstance(owner, type):
                self.patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                _patch_sites(original, wrapper, self.patched)

    def uninstall(self):
        restore(self.patched)

    def start_task(self, index):
        self.task = index

    def metrics(self, pass_count):
        """Per-pass totals of every span metric, and self time per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = {}
        calls = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            self_s[name.split(".")[0]] += (end - start) - child[i]
        out = {}
        for name, (stem, counted) in SPAN_METRICS.items():
            out[f"{stem}_s"] = (total.get(name, 0.0) / pass_count, "s")
            if counted:
                out[f"{stem}_calls"] = (calls.get(name, 0) / pass_count, "count")
        for name, metric in CALL_COUNT_NAMES.items():
            out[metric] = (calls.get(name, 0) / pass_count, "count")
        for layer, value in self_s.items():
            out[f"{layer}.self_s"] = (value / pass_count, "s")
        c = self.counters
        out["linalg.matmul_cells"] = (c["matmul_cells"] / pass_count, "count")
        out["linalg.matmul_nnz_ratio"] = (c["matmul_nnz"] / c["matmul_out"] if c["matmul_out"] else 0.0, "ratio")
        out["linalg.kron_cells"] = (c["kron_cells"] / pass_count, "count")
        out["algfile.parse_bytes"] = (c["parse_bytes"] / pass_count, "bytes")
        return out

    def dump(self, task_names):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "span_names": names,
            "tasks": list(task_names),
            "columns": ["name", "start_us", "duration_us", "parent", "task"],
            "spans": [
                [ids[n], round((s - t0) * 1e6), round((e - s) * 1e6), p, t]
                for n, s, e, p, t in self.spans
            ],
        }


# -- exact scalar-operation counts ---------------------------------------------

COUNTED_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "inverse",
)


class ScalarCounter:
    """Counts Scalar arithmetic and ``is_zero`` calls. ``__radd__`` and
    ``__rmul__`` are aliases in the class body, so they are wrapped on their
    own. Only installed for the counting pass."""

    def __init__(self):
        self.counts = [0, 0]  # arithmetic operations, is_zero calls
        self.patched = []

    @property
    def ops(self):
        return self.counts[0]

    @property
    def is_zero_calls(self):
        return self.counts[1]

    def install(self):
        cls = scalars.Scalar
        for attr in COUNTED_OPS:
            self._wrap(cls, attr, 0)
        self._wrap(cls, "is_zero", 1)

    def _wrap(self, cls, attr, slot):
        original = cls.__dict__[attr]
        counts = self.counts

        def wrapper(*args):
            counts[slot] += 1
            return original(*args)

        self.patched.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        restore(self.patched)

    def start_task(self, index):
        pass


# -- scalar microbenchmarks ----------------------------------------------------


def _ns_per_call(fn, per_call=1, repeats=7, min_s=0.02):
    """Median over ``repeats`` timeit runs of at least ``min_s`` each."""
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < min_s:
        number *= 2
    return statistics.median(timer.repeat(repeats, number)) / number * 1e9 / per_call


def scalar_microbenchmarks():
    """ns per operation on fixed operands: Q constants, degree-2 rational
    functions in the ``b`` and ``l1..l2p`` contexts, a bivariate gcd, and
    parsing and printing."""
    S = scalars.Scalar
    qa = S.of((), Fraction(3, 7))
    qb = S.of((), Fraction(-5, 11))
    qz = S.of((), 0)
    pb = ("b",)
    pl = ("l1", "l2", "l1p", "l2p")
    parse = scalars.parse_scalar
    a1, b1 = parse("(b^2 + 3*b - 1)/(2*b - 5)", pb), parse("(b - 2)/(b^2 + 1)", pb)
    a2, b2 = parse("(l1*l2p + 2)/(l1 - l2)", pl), parse("(l1p^2 - l2)/(l1*l2 + 1)", pl)
    xy = ("x", "y")
    f = parse("(x + y)*(x - 2*y + 1)*(x^2 + y)", xy).num
    g = parse("(x + y)*(y^2 - 3*x)", xy).num
    text_scalar = parse("(l1*l2p - 3/2)/(l1^2 + l2p)", pl)
    return {
        "scalars.q_add_ns": _ns_per_call(lambda: qa + qb),
        "scalars.q_mul_ns": _ns_per_call(lambda: qa * qb),
        "scalars.q_is_zero_ns": _ns_per_call(lambda: (qa.is_zero(), qz.is_zero()), per_call=2),
        "scalars.param_add_ns": _ns_per_call(lambda: (a1 + b1, a2 + b2), per_call=2),
        "scalars.param_mul_ns": _ns_per_call(lambda: (a1 * b1, a2 * b2), per_call=2),
        "scalars.param_div_ns": _ns_per_call(lambda: (a1 / b1, a2 / b2), per_call=2),
        "scalars.poly_gcd_ns": _ns_per_call(lambda: scalars.poly_gcd(f, g)),
        "scalars.parse_ns": _ns_per_call(lambda: parse("(l1*l2p)/2", pl)),
        "scalars.str_ns": _ns_per_call(lambda: scalars.scalar_str(text_scalar)),
    }

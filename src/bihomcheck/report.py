"""Structured pass/fail records for axiom suites.

Reports are deterministic: entries appear in the order the checks ran, and
witnesses name basis elements, so two runs on the same input are
byte-identical. The JSON rendering is schema-versioned for golden-file
pinning.
"""

from __future__ import annotations

from . import __version__

REPORT_SCHEMA = "bihomcheck-report/1"

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"


class Witness:
    """Offending basis tuple plus the nonzero residual element; equal and
    hashed by value."""

    def __init__(self, basis: tuple, residual: tuple):
        self.basis = basis
        self.residual = residual  # pairs (basis name, scalar string), zero coefficients dropped

    def __eq__(self, other):
        if not isinstance(other, Witness):
            return NotImplemented
        return (self.basis, self.residual) == (other.basis, other.residual)

    def __hash__(self):
        return hash((self.basis, self.residual))

    def to_json(self):
        return {
            "basis": list(self.basis),
            "residual": [[name, coeff] for name, coeff in self.residual],
        }


def residual_from_vector(names, vec):
    return tuple((n, str(c)) for n, c in zip(names, vec) if not c.is_zero())


def decode(index, slots):
    """Basis tuple of an index into a tensor power, given one list of basis
    names per factor; the last factor varies fastest."""
    out = []
    for names in reversed(slots):
        index, r = divmod(index, len(names))
        out.append(names[r])
    return tuple(reversed(out))


def first_failure(*diffs):
    """The first failing basis tuple of an identity checked as ``diff == 0``.

    Columns of a difference matrix on a tensor power are numbered so that
    their order is the lexicographic order of basis tuples. Over difference
    matrices that share their columns, this is the smallest nonzero column,
    the earlier matrix on ties: ``(column, that matrix's column vector)``,
    or None when every difference vanishes.
    """
    firsts = [
        (c, n) for n, diff in enumerate(diffs) if (c := diff.first_nonzero_column()) is not None
    ]
    if not firsts:
        return None
    c, n = min(firsts)
    return c, diffs[n].col(c)


def column_witness(slots, names, *diffs):
    """Witness at the first failing column: its basis tuple and the whole
    residual column over ``names``."""
    bad = first_failure(*diffs)
    if bad is None:
        return None
    c, col = bad
    return Witness(decode(c, slots), residual_from_vector(names, col))


def coefficient_witness(basis, label, *diffs):
    """Witness naming one coefficient of the residual: at the first failing
    column, the smallest failing row over all differences, the earlier
    difference on ties. ``basis(column)`` gives the witness tuple and
    ``label(column, row)`` the name of the coefficient."""
    bad = first_failure(*diffs)
    if bad is None:
        return None
    c = bad[0]
    r, _, x = min(
        (r, n, row[c]) for n, diff in enumerate(diffs) for r, row in enumerate(diff.data) if c in row
    )
    return Witness(basis(c), ((label(c, r), str(x)),))


def format_combination(names, vec) -> str:
    """Linear combination of named basis vectors, e.g. 'x1 - 1/2*x2'."""
    parts = []
    for name, c in zip(names, vec):
        if c.is_zero():
            continue
        text = str(c)
        if text == "1":
            body = name
        elif text == "-1":
            body = f"-{name}"
        elif "+" in text or (text.count("-") > (1 if text.startswith("-") else 0)):
            body = f"({text})*{name}"
        else:
            body = f"{text}*{name}"
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(f" - {body[1:]}")
        else:
            parts.append(f" + {body}")
    return "".join(parts) if parts else "0"


def format_subspace(names, subspace) -> str:
    """RREF basis with named coordinates, e.g. 'span(x3)' or '0'."""
    if subspace.dim == 0:
        return "0"
    rows = [format_combination(names, v) for v in subspace.vectors()]
    return f"span({', '.join(rows)})"


class CheckEntry:
    def __init__(
        self, check_id: str, law: str, status: str, witness: Witness | None = None, detail: str = ""
    ):
        self.check_id = check_id
        self.law = law
        self.status = status
        self.witness = witness
        self.detail = detail

    def to_json(self):
        out = {"id": self.check_id, "law": self.law, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.detail:
            out["detail"] = self.detail
        return out


class CheckReport:
    def __init__(
        self,
        suite: str,
        entries: list | None = None,
        notes: list | None = None,
        probe_seed: int | None = None,
    ):
        self.suite = suite
        self.entries = [] if entries is None else entries
        self.notes = [] if notes is None else notes  # informational, never failing
        self.probe_seed = probe_seed

    def add(self, check_id, law, ok, witness=None, detail=""):
        self.entries.append(
            CheckEntry(check_id, law, PASS if ok else FAIL, None if ok else witness, detail)
        )
        return ok

    def skip(self, check_id, law, reason):
        self.entries.append(CheckEntry(check_id, law, SKIP, None, reason))

    def note(self, text):
        self.notes.append(text)

    def extend(self, other: "CheckReport"):
        self.entries.extend(other.entries)
        self.notes.extend(other.notes)
        if other.probe_seed is not None:
            self.probe_seed = other.probe_seed

    @property
    def ok(self) -> bool:
        return all(e.status != FAIL for e in self.entries)

    def to_json(self):
        return {
            "schema": REPORT_SCHEMA,
            "suite": self.suite,
            "ok": self.ok,
            "entries": [e.to_json() for e in self.entries],
            "notes": list(self.notes),
            "toolchain": {"version": __version__, "probe_seed": self.probe_seed},
        }

    def render_text(self) -> str:
        lines = [f"suite {self.suite}"]
        for e in self.entries:
            tag = {PASS: "PASS", FAIL: "FAIL", SKIP: "SKIP"}[e.status]
            line = f"  {tag}  {e.check_id}: {e.law}"
            if e.detail:
                line += f"  [{e.detail}]"
            lines.append(line)
            if e.witness is not None:
                at = ", ".join(str(b) for b in e.witness.basis)
                res = " + ".join(
                    f"({coeff})*{name}" for name, coeff in e.witness.residual
                )
                lines.append(f"        at ({at}): residual {res}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        lines.append(f"  => {'all checks passed' if self.ok else 'FAILURES PRESENT'}")
        return "\n".join(lines)

"""Self-describing JSON file format for algebra instances.

One file declares the parameter names, the Hopf algebra (a validated group
table or raw structure tensors), an R-matrix, and any number of named
objects, each carrying an H-action, a mult or bracket tensor as sparse
(i, j, k, scalar) triples, the twisting maps, and optional extras (unit,
twist maps for the twist construction, a published reference bracket for
informational diffs). Parsing either returns a fully validated model or
raises with every located finding; it never returns a partial object. The
model holds every scalar, parsed once: each tensor as the structure matrix
its triples sum to (``linalg.triples_matrix``), and the raw Hopf section
also as parsed, with a ``Scalar`` in each cell (a matrix cell "0" stays the
string), since its rows print in input order. ``--set``
(``substitute_file``) maps the model.

The printer emits a canonical form (fixed key order, sorted object triples,
canonical scalar strings), and parse-then-print is the identity on it.
"""

from __future__ import annotations

import json

from .bihom import BiHomAlgebra, BiHomLie
from .errors import NotAGroup, ParseError, ValidationError, quoted
from .hmod import HModule, ModuleMap
from .hopf import HopfAlgebra, RMatrix, group_algebra
from .linalg import Matrix, _kval, tensor_matrix, triples_matrix
from .scalars import MAX_INT_DIGITS, Scalar, parse_scalar, too_long_to_print

FORMAT = "bihom-algebra-file/1"


class AlgebraObject:
    def __init__(
        self,
        name: str,
        basis: list,
        module: HModule,
        kind: str,  # "mult" or "bracket"
        tensor: Matrix,  # the structure matrix; nested constants are converted
        alpha: Matrix,
        beta: Matrix,
        unit: list | None = None,
        multiplicative: bool = True,
        twist_alpha: Matrix | None = None,
        twist_beta: Matrix | None = None,
        reference_bracket: Matrix | None = None,
    ):
        p, d = module.params, len(basis)
        self.name = name
        self.basis = basis
        self.module = module
        self.kind = kind
        self.tensor = tensor_matrix(tensor, d, p, name=kind)
        self.alpha = alpha
        self.beta = beta
        self.unit = unit
        self.multiplicative = multiplicative
        self.twist_alpha = twist_alpha
        self.twist_beta = twist_beta
        if reference_bracket is not None:
            reference_bracket = tensor_matrix(reference_bracket, d, p, name="reference")
        self.reference_bracket = reference_bracket

    @property
    def dim(self):
        return len(self.basis)

    @classmethod
    def of(cls, name, structure):
        """The file object of a structure: a product object for a
        BiHomAlgebra, a bracket object for a BiHomLie."""
        module = structure.module
        return cls(
            name=name,
            basis=list(module.basis_names),
            module=module,
            kind="bracket" if isinstance(structure, BiHomLie) else "mult",
            tensor=structure.structure_matrix(),
            alpha=structure.alpha.matrix,
            beta=structure.beta.matrix,
            unit=getattr(structure, "unit", None),
            multiplicative=getattr(structure, "multiplicative", True),
        )

    def structure(self, rmatrix: RMatrix) -> BiHomAlgebra | BiHomLie:
        """The algebra this object declares: the BiHomLie of a bracket
        object, braided by ``rmatrix``, or the BiHomAlgebra of a product
        object, which does not use ``rmatrix``. Each call builds a new one."""
        m = self.module
        alpha, beta = ModuleMap(m, m, self.alpha), ModuleMap(m, m, self.beta)
        if self.kind == "bracket":
            return BiHomLie(m, self.tensor, alpha, beta, rmatrix)
        return BiHomAlgebra(m, self.tensor, alpha, beta, self.unit, self.multiplicative)

    def twist_maps(self):
        if self.twist_alpha is None or self.twist_beta is None:
            raise ValidationError(
                [f"object '{self.name}' has no twist_alpha/twist_beta maps"]
            )
        return (
            ModuleMap(self.module, self.module, self.twist_alpha),
            ModuleMap(self.module, self.module, self.twist_beta),
        )


class AlgebraFile:
    def __init__(
        self,
        name: str,
        parameters: tuple,
        hopf_spec: dict,
        hopf: HopfAlgebra,
        rmatrix: RMatrix,
        objects: dict | None = None,
    ):
        self.name = name
        self.parameters = parameters
        self.hopf_spec = hopf_spec
        self.hopf = hopf
        self.rmatrix = rmatrix
        self.objects = {} if objects is None else objects


class _Findings:
    def __init__(self):
        self.items = []

    def add(self, path, message):
        self.items.append(f"{path}: {message}")

    def raise_if_any(self):
        if self.items:
            raise ValidationError(self.items)


def _parse_scalar_at(text, params, path, findings):
    # a JSON true or false is a bool, which Python counts as an int
    if type(text) not in (str, int):
        findings.add(path, f"expected a scalar string, got {type(text).__name__}")
        return None
    try:
        return parse_scalar(str(text), params)
    except ParseError as exc:
        # the column counts in the cell's own text, not in the file
        at = "" if exc.column is None else f" at character {exc.column} of the cell"
        findings.add(path, f"bad scalar {quoted(str(text))}: {exc.reason}{at}")
        return None


def _parse_cells(cells, params, path, findings):
    """Parse every cell of the list ``cells`` and write its Scalar back in
    place; True when all of them parse."""
    ok = True
    for i, cell in enumerate(cells):
        cells[i] = _parse_scalar_at(cell, params, f"{path}[{i}]", findings)
        ok = ok and cells[i] is not None
    return ok


def _parse_matrix(data, dim_rows, dim_cols, params, path, findings):
    """The matrix of ``data`` read sparse, row by row into ``{column:
    kernel value}`` dicts. Each parsed Scalar is written back into its cell
    (the raw Hopf section prints from its cells); a cell that is the string
    "0" is skipped and kept as it is."""
    if not isinstance(data, list) or len(data) != dim_rows:
        findings.add(path, f"expected {dim_rows} rows")
        return None
    rows = []
    for i, row in enumerate(data):
        at = f"{path}[{i}]"
        if not isinstance(row, list) or len(row) != dim_cols:
            findings.add(at, f"expected {dim_cols} entries")
            rows = None
            continue
        kept = {}
        for j, cell in enumerate(row):
            if cell == "0":
                continue
            s = row[j] = _parse_scalar_at(cell, params, f"{at}[{j}]", findings)
            if s is None:
                rows = None
            elif not s.is_zero():
                kept[j] = _kval(s)
        if rows is not None:
            rows.append(kept)
    return None if rows is None else Matrix.from_dicts(dim_rows, dim_cols, rows, params)


def _parse_vector(data, dim, params, path, findings):
    if not isinstance(data, list) or len(data) != dim:
        findings.add(path, f"expected a vector of length {dim}")
        return None
    return data if _parse_cells(data, params, path, findings) else None


def _parse_triples(data, dim, params, path, findings, coproduct=False):
    """Sparse rank-3 tensor rows (i, j, k, scalar), summed into the
    structure matrix of a product (of a coproduct when ``coproduct``); each
    parsed Scalar is written back into its row."""
    triples = []
    if not isinstance(data, list):
        findings.add(path, "expected a list of (i, j, k, scalar) rows")
        return None
    ok = True
    for n, row in enumerate(data):
        if not isinstance(row, list) or len(row) != 4:
            findings.add(f"{path}[{n}]", "expected [i, j, k, scalar]")
            ok = False
            continue
        i, j, k, cell = row
        if not all(type(t) is int and 0 <= t < dim for t in (i, j, k)):
            findings.add(
                f"{path}[{n}]", f"triple ({i},{j},{k}) is not three indices below {dim}"
            )
            ok = False
            continue
        s = row[3] = _parse_scalar_at(cell, params, f"{path}[{n}][3]", findings)
        if s is None:
            ok = False
            continue
        triples.append((i, j, k, s))
    return triples_matrix(triples, dim, params, coproduct) if ok else None


def _is_name_list(names):
    """A nonempty list of distinct strings: names key the action matrices."""
    return (
        isinstance(names, list)
        and names
        and all(isinstance(n, str) for n in names)
        and len(set(names)) == len(names)
    )


def _build_hopf(spec, params, findings):
    if not isinstance(spec, dict) or len(spec) != 1 or next(iter(spec)) not in ("group", "raw"):
        findings.add("hopf", "expected exactly one of 'group' or 'raw'")
        return None
    if "group" in spec:
        g = spec["group"]
        if not isinstance(g, dict):
            findings.add("hopf.group", "expected an object")
            return None
        table = g.get("table")
        identity = g.get("identity")
        names = g.get("names")
        if (
            not isinstance(table, list)
            or not all(isinstance(row, list) for row in table)
            or type(identity) is not int
        ):
            findings.add("hopf.group", "needs 'table' (list of rows) and 'identity' (index)")
            return None
        if names is not None and not _is_name_list(names):
            findings.add("hopf.group.names", "expected a nonempty list of distinct basis names")
            return None
        try:
            return group_algebra(table, identity, names=names, params=params)
        except NotAGroup as exc:
            findings.add("hopf.group", str(exc))
            return None
    raw = spec["raw"]
    if not isinstance(raw, dict):
        findings.add("hopf.raw", "expected an object")
        return None
    names = raw.get("names")
    if not _is_name_list(names):
        findings.add("hopf.raw.names", "expected a nonempty list of distinct basis names")
        return None
    d = len(names)
    mult = _parse_triples(raw.get("mult"), d, params, "hopf.raw.mult", findings)
    comult = _parse_triples(raw.get("comult"), d, params, "hopf.raw.comult", findings, True)
    unit = _parse_vector(raw.get("unit"), d, params, "hopf.raw.unit", findings)
    counit = _parse_vector(raw.get("counit"), d, params, "hopf.raw.counit", findings)
    antipode = _parse_matrix(raw.get("antipode"), d, d, params, "hopf.raw.antipode", findings)
    if None in (mult, comult, unit, counit, antipode):
        return None
    return HopfAlgebra(names, mult, unit, comult, counit, antipode, params)


def _build_object(name, data, hopf, params, findings):
    path = f"objects.{name}"
    if not isinstance(data, dict):
        findings.add(path, "expected an object")
        return None
    basis = data.get("basis")
    if not _is_name_list(basis):
        findings.add(f"{path}.basis", "expected a nonempty list of distinct basis names")
        return None
    dim = len(basis)
    declared = data.get("dim")
    if declared is not None and (type(declared) is not int or declared != dim):
        findings.add(f"{path}.dim", f"declared {json.dumps(declared)} but basis has {dim} names")
    action_spec = data.get("action")
    action = None
    if not isinstance(action_spec, dict):
        findings.add(f"{path}.action", "expected a map from Hopf basis names to matrices")
    else:
        action = []
        for hname in hopf.basis_names:
            if hname not in action_spec:
                findings.add(
                    f"{path}.action", f"missing action matrix for Hopf element '{hname}'"
                )
                action = None
                continue
            mat = _parse_matrix(
                action_spec[hname], dim, dim, params, f"{path}.action.{hname}", findings
            )
            if mat is None:
                action = None
            elif action is not None:
                action.append(mat)
        extra = sorted(set(action_spec) - set(hopf.basis_names))
        if extra:
            findings.add(f"{path}.action", f"unknown Hopf element names {extra}")

    has_mult = "mult" in data
    has_bracket = "bracket" in data
    tensor = None
    kind = "mult"
    if has_mult == has_bracket:
        findings.add(path, "exactly one of 'mult' or 'bracket' is required")
    else:
        kind = "mult" if has_mult else "bracket"
        tensor = _parse_triples(data[kind], dim, params, f"{path}.{kind}", findings)
    if kind == "bracket":
        for key, what in (("unit", "a unit"), ("multiplicative", "a multiplicative flag")):
            if data.get(key) is not None:
                findings.add(f"{path}.{key}", f"only a product object has {what}")

    if "alpha" not in data:
        findings.add(f"{path}.alpha", "alpha required")
        return None
    if "beta" not in data:
        findings.add(f"{path}.beta", "beta required")
        return None
    alpha = _parse_matrix(data["alpha"], dim, dim, params, f"{path}.alpha", findings)
    beta = _parse_matrix(data["beta"], dim, dim, params, f"{path}.beta", findings)

    def optional(key, parse, *shape):
        value = data.get(key)
        return None if value is None else parse(value, *shape, params, f"{path}.{key}", findings)

    unit = optional("unit", _parse_vector, dim)
    multiplicative = data.get("multiplicative", True)
    if not isinstance(multiplicative, bool):
        findings.add(f"{path}.multiplicative", "expected true or false")
        multiplicative = True
    twist_alpha = optional("twist_alpha", _parse_matrix, dim, dim)
    twist_beta = optional("twist_beta", _parse_matrix, dim, dim)
    reference = optional("reference_bracket", _parse_triples, dim)
    if action is None or None in (tensor, alpha, beta):
        return None
    module = HModule(hopf, basis, action)
    return AlgebraObject(
        name=name,
        basis=list(basis),
        module=module,
        kind=kind,
        tensor=tensor,
        alpha=alpha,
        beta=beta,
        unit=unit,
        multiplicative=multiplicative,
        twist_alpha=twist_alpha,
        twist_beta=twist_beta,
        reference_bracket=reference,
    )


def _json_int(text: str) -> int:
    digits = len(text.lstrip("-"))
    if digits > MAX_INT_DIGITS:
        raise ParseError(f"JSON integer of {digits} digits exceeds the limit {MAX_INT_DIGITS}")
    return int(text)


def parse_algebra_file(text: str) -> AlgebraFile:
    """Parse and validate; raises ParseError (syntax) or ValidationError
    (semantics, with every located finding), never returns a partial file."""
    try:
        data = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        # the decoder recurses once per nested array or object
        raise ParseError("JSON nesting is too deep") from None
    findings = _Findings()
    if not isinstance(data, dict):
        findings.add("$", "top level must be an object")
        findings.raise_if_any()
    if data.get("format") != FORMAT:
        findings.add("format", f"expected {FORMAT!r}, got {data.get('format')!r}")
    name = data.get("name", "")
    if not isinstance(name, str):
        findings.add("name", "expected a string")
        name = ""
    raw_params = data.get("parameters", [])
    if not isinstance(raw_params, list) or not all(isinstance(p, str) for p in raw_params):
        findings.add("parameters", "expected a list of identifiers")
        raw_params = []
    if len(set(raw_params)) != len(raw_params):
        findings.add("parameters", "duplicate parameter names")
    params = tuple(raw_params)

    hopf = _build_hopf(data.get("hopf"), params, findings)
    findings.raise_if_any()

    rmx = data.get("rmatrix")
    rmatrix = None
    mat = _parse_matrix(rmx, hopf.dim, hopf.dim, params, "rmatrix", findings)
    if mat is not None:
        rmatrix = RMatrix(mat)

    objects = {}
    objs = data.get("objects", {})
    if not isinstance(objs, dict):
        findings.add("objects", "expected a map of named objects")
        objs = {}
    for oname, odata in objs.items():
        obj = _build_object(oname, odata, hopf, params, findings)
        if obj is not None:
            objects[oname] = obj
    findings.raise_if_any()
    return AlgebraFile(
        name=name,
        parameters=params,
        hopf_spec=data["hopf"],
        hopf=hopf,
        rmatrix=rmatrix,
        objects=objects,
    )


# -- canonical printing ------------------------------------------------------


def _tensor_triples(m: Matrix):
    """The stored entries of a product structure matrix as (i, j, k, scalar)
    triples in (i, j, k) order."""
    d = m.rows
    return sorted([*divmod(c, d), k, str(x)] for k, r in enumerate(m.data) for c, x in r.items())


def _matrix_rows(mat: Matrix):
    return [[str(x) for x in mat.row(r)] for r in range(mat.rows)]


def _object_json(o: AlgebraObject):
    out = {
        "dim": o.dim,
        "basis": list(o.basis),
        "action": {
            hname: _matrix_rows(o.module.action[i])
            for i, hname in enumerate(o.module.hopf.basis_names)
        },
        o.kind: _tensor_triples(o.tensor),
        "alpha": _matrix_rows(o.alpha),
        "beta": _matrix_rows(o.beta),
    }
    if o.unit is not None:
        out["unit"] = [str(x) for x in o.unit]
    if not o.multiplicative:
        out["multiplicative"] = False
    if o.twist_alpha is not None:
        out["twist_alpha"] = _matrix_rows(o.twist_alpha)
    if o.twist_beta is not None:
        out["twist_beta"] = _matrix_rows(o.twist_beta)
    if o.reference_bracket is not None:
        out["reference_bracket"] = _tensor_triples(o.reference_bracket)
    return out


# the keys _build_hopf reads, in printed order
_HOPF_KEYS = {
    "group": ("names", "table", "identity"),
    "raw": ("names", "mult", "comult", "unit", "counit", "antipode"),
}


def print_algebra_file(f: AlgebraFile) -> str:
    ((kind, body),) = f.hopf_spec.items()
    doc = {
        "format": FORMAT,
        "name": f.name,
        "parameters": list(f.parameters),
        "hopf": {kind: {k: body[k] for k in _HOPF_KEYS[kind] if body.get(k) is not None}},
        "rmatrix": _matrix_rows(f.rmatrix.coefficients),
        "objects": {name: _object_json(obj) for name, obj in sorted(f.objects.items())},
    }
    # the raw Hopf section holds parsed Scalars, printed canonically
    return json.dumps(doc, indent=2, default=str) + "\n"


def substitute_file(f: AlgebraFile, bindings) -> AlgebraFile:
    """The file at a point: ``Scalar.substitute`` mapped over every scalar
    of the model, the raw Hopf section included.

    Binding names must be declared parameters; every parameter occurring
    anywhere in the file must be bound (UnboundParameter otherwise), and
    bindings may not hit a pole (DenominatorVanishes) or make a number too
    long to print (ValidationError)."""
    unknown = sorted(set(bindings) - set(f.parameters))
    if unknown:
        raise ValidationError([f"--set: unknown parameter names {unknown}"])
    params = tuple(p for p in f.parameters if p not in bindings)

    def sub(s):
        v = s.substitute(bindings)
        if too_long_to_print(v):
            raise ValidationError(
                [f"--set: {quoted(str(s))} becomes a number of more than {MAX_INT_DIGITS} digits"]
            )
        return v.reparametrize(params)

    def walk(node):
        if isinstance(node, Scalar):
            return sub(node)
        if isinstance(node, Matrix):
            return node.map(sub, params)
        if isinstance(node, HModule):
            # over the substituted Hopf algebra, which is built first
            return HModule(hopf, node.basis_names, walk(node.action))
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node

    # the sections in printed order, so a finding names the first one that fails
    hopf_spec = walk(f.hopf_spec)
    h = f.hopf
    hopf = HopfAlgebra(h.basis_names, *map(walk, (h.M, h.unit, h.C, h.counit, h.antipode)), params)
    rmatrix = RMatrix(walk(f.rmatrix.coefficients))
    # an object's attributes are its constructor arguments, in order
    objects = {
        name: AlgebraObject(**{k: walk(v) for k, v in vars(o).items()})
        for name, o in sorted(f.objects.items())
    }
    return AlgebraFile(f.name, params, hopf_spec, hopf, rmatrix, objects)

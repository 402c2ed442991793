"""Job configuration: JSON ingestion and validation into library objects.

Rationals are "p/q" strings everywhere; no floats enter the pipeline.
"""

import json

from .algebra import Algebra, AlgebraMap, FiniteGroupAction, validate_action, validate_algebra
from .errors import ActionError, AlgebraError, ParseError, ValidationError
from .fixtures import fixture_config
from .rational import parse_q
from .sparse import QMatrix

class JobConfig:
    """Validated algebra + group action + task parameters."""

    def __init__(self, name, algebra, group, max_degree, twist, lambda_coinvariants, fmt):
        self.name = name
        self.algebra = algebra
        self.group = group
        self.max_degree = max_degree
        self.twist = twist                      # element name or None
        self.lambda_coinvariants = lambda_coinvariants
        self.format = fmt

    def twist_index(self):
        if self.twist is None:
            return None
        try:
            return self.group.index_of(self.twist)
        except ValueError:
            raise ValidationError(f"twist element {self.twist!r} is not in the group")


def _need(mapping, key, where):
    if key not in mapping:
        raise ParseError(f"missing field {key!r} in {where}")
    return mapping[key]


def _known(mapping, fields, where):
    """Refuse every key of mapping that is not one of fields."""
    for key in mapping:
        if key not in fields:
            raise ParseError(f"unknown field {key!r} {where}")


def _object(value, where):
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be an object of fields, got {value!r}")
    return value


def _list(value, where):
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a list, got {value!r}")
    return value


def _name(value, where):
    """A name string that the tab-separated machine report keeps in one field."""
    if not isinstance(value, str):
        raise ParseError(f"{where} must be a name string, got {value!r}")
    if any(c in value for c in "\t\n\r"):
        raise ParseError(
            f"{where} must not contain a tab, newline or carriage return, got {value!r}"
        )
    return value


def _int(value):
    """A JSON integer; true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _q(value, where):
    if not isinstance(value, str):
        raise ParseError(f"rational at {where} must be a \"p/q\" string, got {value!r}")
    try:
        return parse_q(value)
    except ValueError as exc:
        raise ParseError(f"bad rational at {where}: {exc}")


def _matrix(rows, dim, where):
    rows = [_list(row, f"{where}[{i}]") for i, row in enumerate(_list(rows, where))]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ParseError(f"matrix at {where} must be {dim}x{dim}")
    cols = [dict() for _ in range(dim)]
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            v = _q(cell, f"{where}[{i}][{j}]")
            if v:
                cols[j][i] = v
    return QMatrix(dim, dim, cols)


def config_from_dict(data, name=None):
    """Build and validate a JobConfig from parsed structured data."""
    if not isinstance(data, dict):
        raise ParseError("top level must be a table of fields")
    _known(data, ("name", "algebra", "group", "task"), "at top level")
    name = name or _name(data.get("name", "unnamed"), "the name at top level")

    alg = _object(_need(data, "algebra", "config"), "algebra")
    _known(alg, ("dim", "basis", "unit_index", "mult"), "in algebra")
    dim = _need(alg, "dim", "algebra")
    if not _int(dim) or dim < 1:
        raise ParseError("algebra.dim must be a positive integer")
    basis = _list(alg.get("basis", [f"e{i}" for i in range(dim)]), "algebra.basis")
    if len(basis) != dim:
        raise ParseError("algebra.basis length must equal algebra.dim")
    for i, name_e in enumerate(basis):
        _name(name_e, f"algebra.basis[{i}]")
    unit_index = alg.get("unit_index", 0)
    if not _int(unit_index) or not 0 <= unit_index < dim:
        raise ParseError("algebra.unit_index out of range")
    mult_raw = [
        _list(row, f"algebra.mult[{i}]")
        for i, row in enumerate(_list(_need(alg, "mult", "algebra"), "algebra.mult"))
    ]
    if len(mult_raw) != dim or any(len(row) != dim for row in mult_raw):
        raise ParseError("algebra.mult must be a dim x dim table")
    mult = []
    for i, row in enumerate(mult_raw):
        out_row = []
        for j, cell in enumerate(row):
            if len(_list(cell, f"algebra.mult[{i}][{j}]")) != dim:
                raise ParseError(f"algebra.mult[{i}][{j}] must have {dim} coordinates")
            vec = {}
            for k, entry in enumerate(cell):
                v = _q(entry, f"algebra.mult[{i}][{j}][{k}]")
                if v:
                    vec[k] = v
            out_row.append(vec)
        mult.append(out_row)
    algebra = Algebra(dim, basis, {unit_index: 1}, mult)

    grp = _object(_need(data, "group", "config"), "group")
    _known(grp, ("elements", "table", "action"), "in group")
    elements = _list(_need(grp, "elements", "group"), "group.elements")
    for i, name_g in enumerate(elements):
        if _name(name_g, f"group.elements[{i}]") in elements[:i]:
            raise ParseError(
                f"group.elements[{i}] repeats the name {name_g!r} of "
                f"group.elements[{elements.index(name_g)}]"
            )
    r = len(elements)
    if r < 1:
        raise ParseError("group must have at least one element")
    table = [
        _list(row, f"group.table[{i}]")
        for i, row in enumerate(_list(_need(grp, "table", "group"), "group.table"))
    ]
    if len(table) != r or any(len(row) != r for row in table):
        raise ParseError("group.table must be r x r")
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not _int(v) or not 0 <= v < r:
                raise ParseError(f"group.table[{i}][{j}] must be an element index")
    action_raw = _object(_need(grp, "action", "group"), "group.action")
    _known(action_raw, elements, "in group.action: it names no element of group.elements")
    action = []
    for name_g in elements:
        if name_g not in action_raw:
            raise ParseError(f"group.action is missing element {name_g!r}")
        action.append(AlgebraMap(_matrix(action_raw[name_g], dim, f"group.action[{name_g}]")))
    try:
        group = FiniteGroupAction(elements, table, action)
        validate_algebra(algebra)
        validate_action(algebra, group)
    except (AlgebraError, ActionError) as exc:
        raise ValidationError(str(exc))
    if unit_index != 0:
        raise ValidationError(
            f"algebra.unit_index must be 0, got {unit_index}: the reduced tensor "
            "slots need the unit to be basis vector 0"
        )

    task = _object(data.get("task", {}), "task")
    _known(task, ("max_degree", "twist", "lambda_coinvariants", "format"), "in task")
    max_degree = task.get("max_degree", 3)
    if not _int(max_degree) or max_degree < 0:
        raise ParseError("task.max_degree must be a nonnegative integer")
    twist = task.get("twist")
    if twist is not None and twist not in elements:
        raise ValidationError(f"twist element {twist!r} is not in the group")
    lam = task.get("lambda_coinvariants", True)
    if not isinstance(lam, bool):
        raise ParseError("task.lambda_coinvariants must be true or false")
    fmt = task.get("format", "human")
    if fmt not in ("human", "machine"):
        raise ParseError("task.format must be 'human' or 'machine'")
    return JobConfig(name, algebra, group, max_degree, twist, lam, fmt)


def load_config(path):
    """Read a JSON job file into a validated JobConfig."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed config {path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    return config_from_dict(data)


def load_fixture(name):
    return config_from_dict(fixture_config(name), name=name)

"""Fuzzing of config ingestion: a mutated fixture either loads into a
config that the library runs, or is refused with a ParseError or a
ValidationError whose message names what is wrong.  Any other exception
is a crash."""

import copy
import json
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from thl import cli
from thl.config import config_from_dict
from thl.errors import ParseError, ValidationError
from thl.fixtures import fixture_config, fixture_names
from thl.report import emit_machine, parse_machine

HALF_LINES = os.path.join(os.path.dirname(__file__), "data", "half-lines-z2.json")


def _base(name):
    if name == "half-lines-z2":
        with open(HALF_LINES, encoding="utf-8") as fh:
            return json.load(fh)
    return copy.deepcopy(fixture_config(name))


# a refusal names a config field, or the basis tensor, triple, element or
# pair on which validation failed
NAMED = re.compile(
    r"top level|algebra|group|task|basis vector|triple|element|homomorphism"
    r"|: (not multiplicative|does not fix the unit|matrix is singular)"
)

# the machine report separates its fields by tabs and its lines by newlines
SEPARATORS = ["\t", "\n", "\r"]
BAD_RATIONALS = ["1/0", "x", "", " ", "1//2", "1/2/3", "--1", 1, 0.5, None, True, [], {}]
WRONG_TYPES = [None, True, False, 3, -1, 0.5, "x", [], [1], {}, {"a": 1}]


def _at(data, path):
    """The node at path, or None when an earlier mutation removed it."""
    for key in path:
        try:
            data = data[key]
        except (KeyError, IndexError, TypeError):
            return None
    return data


def _set(data, path, value):
    parent = _at(data, path[:-1])
    try:
        parent[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


def _swap_unit(data, k):
    """The same algebra with basis vectors 0 and k exchanged, so that the
    unit is basis vector k."""
    alg, d = data["algebra"], data["algebra"]["dim"]
    p = list(range(d))
    p[0], p[k] = k, 0
    alg["basis"] = [alg["basis"][p[i]] for i in range(d)]
    alg["mult"] = [
        [[alg["mult"][p[i]][p[j]][p[c]] for c in range(d)] for j in range(d)] for i in range(d)
    ]
    alg["unit_index"] = k
    action = data["group"]["action"]
    for name, rows in action.items():
        action[name] = [[rows[p[i]][p[j]] for j in range(d)] for i in range(d)]


def _tables(data):
    """Paths of every list in the config that has a fixed length."""
    alg, grp = data["algebra"], data["group"]
    d, r = alg["dim"], len(grp["elements"])
    paths = [("algebra", "mult"), ("group", "table"), ("group", "elements"), ("algebra", "basis")]
    paths += [("algebra", "mult", i) for i in range(d)]
    paths += [("algebra", "mult", i, j) for i in range(d) for j in range(d)]
    paths += [("group", "table", x) for x in range(r)]
    for name in grp["action"]:
        paths.append(("group", "action", name))
        paths += [("group", "action", name, i) for i in range(d)]
    return paths


def _rationals(data):
    """Paths of every rational entry in the config."""
    d = data["algebra"]["dim"]
    cells = [("algebra", "mult", i, j, c) for i in range(d) for j in range(d) for c in range(d)]
    for name in data["group"]["action"]:
        cells += [("group", "action", name, i, j) for i in range(d) for j in range(d)]
    return cells


FIELDS = [
    (), ("name",), ("algebra",), ("algebra", "dim"), ("algebra", "basis"),
    ("algebra", "unit_index"), ("algebra", "mult"), ("group",), ("group", "elements"),
    ("group", "table"), ("group", "action"), ("task",), ("task", "max_degree"),
    ("task", "twist"), ("task", "lambda_coinvariants"), ("task", "format"),
]

# every object of fields in a config, and group.action, keyed by element
OBJECTS = [(), ("algebra",), ("group",), ("task",), ("group", "action")]


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from([*fixture_names(), "half-lines-z2"]))
    data = _base(name)
    data["task"]["max_degree"] = draw(st.integers(0, 1))
    d, elements = data["algebra"]["dim"], data["group"]["elements"]
    if d > 1 and draw(st.booleans()):
        _swap_unit(data, draw(st.integers(1, d - 1)))
    # the paths are taken before any mutation; a later mutation may find
    # its node gone, and then does nothing
    tables, rationals = _tables(data), _rationals(data)
    name_paths = [("name",)] + [("algebra", "basis", i) for i in range(d)]
    name_paths += [("group", "elements", x) for x in range(len(elements))]
    for kind in draw(st.lists(st.sampled_from(
        ["rational", "ragged", "type", "action", "names", "separator", "unit", "unknown", "none"]
    ), min_size=1, max_size=2)):
        if kind == "rational":
            _set(data, draw(st.sampled_from(rationals)), draw(st.sampled_from(BAD_RATIONALS)))
        elif kind == "ragged":
            node = _at(data, draw(st.sampled_from(tables)))
            if isinstance(node, list) and node:
                if draw(st.booleans()):
                    node.pop()
                else:
                    node.append(copy.deepcopy(node[-1]))
        elif kind == "type":
            path = draw(st.sampled_from(FIELDS))
            value = draw(st.sampled_from(WRONG_TYPES))
            if path:
                _set(data, path, value)
            else:
                data = value
        elif kind == "action":
            # another element's matrix, or one entry doubled
            action = _at(data, ("group", "action"))
            if isinstance(action, dict) and len(elements) > 1:
                x, y = draw(st.permutations(elements))[:2]
                if draw(st.booleans()):
                    action[x] = copy.deepcopy(action.get(y))
                else:
                    cell = (x, draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)))
                    old = _at(action, cell)
                    if isinstance(old, str):
                        _set(action, cell, f"2*{old}" if draw(st.booleans()) else f"{old}0")
        elif kind == "names":
            if len(elements) > 1:
                i, j = draw(st.permutations(range(len(elements))))[:2]
                _set(data, ("group", "elements", i), elements[j])
        elif kind == "separator":
            path = draw(st.sampled_from(name_paths))
            old = _at(data, path)
            if isinstance(old, str):
                _set(data, path, old + draw(st.sampled_from(SEPARATORS)) + "x")
        elif kind == "unit":
            _set(data, ("algebra", "unit_index"), draw(st.integers(-1, d)))
        elif kind == "unknown":
            # a field no reader knows, or an action for an element not listed
            path = draw(st.sampled_from(OBJECTS))
            _set(data, path + ("maxdegree",), draw(st.sampled_from(WRONG_TYPES)))
    return data


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_mutated_configs_load_and_run_or_are_refused_by_field(data):
    try:
        cfg = config_from_dict(data)
    except (ParseError, ValidationError) as exc:
        assert NAMED.search(str(exc)), str(exc)
        return
    names = cfg.group.element_names
    assert [cfg.group.index_of(n) for n in names] == list(range(cfg.group.order))
    report = cli.run("validate", cfg)
    assert report.ok
    assert parse_machine(emit_machine(report))["name"] == cfg.name
    # a config that loads runs a homology command too (kept small)
    cfg.max_degree = min(cfg.max_degree, 1)
    cli.run("hc-coinv", cfg)


def test_repeated_element_name_is_refused():
    data = _base("trunc-poly-z2")
    data["group"]["elements"] = ["e", "e"]
    with pytest.raises(ParseError) as err:
        config_from_dict(data)
    assert str(err.value) == "group.elements[1] repeats the name 'e' of group.elements[0]"


def _rename_element(data, old, new):
    """data with group element old called new everywhere it is named."""
    grp = data["group"]
    grp["elements"] = [new if e == old else e for e in grp["elements"]]
    grp["action"] = {new if e == old else e: m for e, m in grp["action"].items()}
    if data["task"].get("twist") == old:
        data["task"]["twist"] = new


@pytest.mark.parametrize("sep", SEPARATORS, ids=["tab", "newline", "return"])
@pytest.mark.parametrize("field", ["name", "basis", "element"])
def test_name_that_splits_a_report_field_is_refused(field, sep, tmp_path, capsys):
    """A name with a tab, a newline or a carriage return would split the
    name, param, dim or check line of the machine report that carries it:
    refused at load time, naming the field, exit 2."""
    data = _base("trunc-poly-z2")
    if field == "name":
        bad, where = f"poly{sep}z2", "the name at top level"
        data["name"] = bad
    elif field == "basis":
        bad, where = f"x{sep}y", "algebra.basis[1]"
        data["algebra"]["basis"][1] = bad
    else:
        bad, where = f"s{sep}x", "group.elements[1]"
        _rename_element(data, "s", bad)
    message = f"{where} must not contain a tab, newline or carriage return, got {bad!r}"
    with pytest.raises(ParseError) as err:
        config_from_dict(data)
    assert str(err.value) == message
    path = tmp_path / "job.json"
    path.write_text(json.dumps(data))
    assert cli.main(["all", "--config", str(path), "--format", "machine"]) == 2
    assert capsys.readouterr().err == f"thl: {message}\n"


def test_basis_name_that_is_not_a_string_is_refused():
    data = _base("trunc-poly-z2")
    data["algebra"]["basis"][1] = 1
    with pytest.raises(ParseError) as err:
        config_from_dict(data)
    assert str(err.value) == "algebra.basis[1] must be a name string, got 1"


def test_unit_not_at_index_zero_is_refused(tmp_path, capsys):
    """The unit relabelled to basis vector 1 is a valid algebra, but the
    reduced tensor modules need it at 0: refused at load time, exit 2."""
    data = _base("trunc-cubic-z2")
    _swap_unit(data, 1)
    message = (
        "algebra.unit_index must be 0, got 1: the reduced tensor slots need "
        "the unit to be basis vector 0"
    )
    with pytest.raises(ValidationError) as err:
        config_from_dict(data)
    assert str(err.value) == message
    path = tmp_path / "job.json"
    path.write_text(json.dumps(data))
    assert cli.main(["hc-coinv", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"thl: {message}\n"


@pytest.mark.parametrize("path, message", [
    ((), "unknown field 'maxdegree' at top level"),
    (("algebra",), "unknown field 'maxdegree' in algebra"),
    (("group",), "unknown field 'maxdegree' in group"),
    (("task",), "unknown field 'maxdegree' in task"),
    (("group", "action"),
     "unknown field 'maxdegree' in group.action: it names no element of group.elements"),
], ids=["top", "algebra", "group", "task", "action"])
def test_unknown_field_is_refused(path, message, tmp_path, capsys):
    """A misspelt field (task.maxdegree for task.max_degree) would be
    ignored, and its default used in its place; an action for a name that
    is not an element would be dropped: both refused at load time, naming
    the field, exit 2."""
    data = _base("half-lines-z2")
    _at(data, path)["maxdegree"] = 7
    with pytest.raises(ParseError) as err:
        config_from_dict(data)
    assert str(err.value) == message
    job = tmp_path / "job.json"
    job.write_text(json.dumps(data))
    assert cli.main(["hc-coinv", "--config", str(job)]) == 2
    assert capsys.readouterr().err == f"thl: {message}\n"

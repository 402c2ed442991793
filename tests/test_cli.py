import copy
import json

import pytest

from thl.cli import main, run
from thl.config import config_from_dict, load_config, load_fixture
from thl.errors import ParseError, ValidationError
from thl.fixtures import fixture_config, fixture_names
from thl.report import emit_machine, emit_report, parse_machine

from fixtures_for_tests import PINNED_SHA256


def test_fixture_names_complete():
    assert set(fixture_names()) == {
        "ground-field",
        "trunc-poly-z2",
        "triple-lines-z3",
        "triple-lines-s3",
        "trunc-cubic-z2",
    }


def test_load_builtin_fixture():
    cfg = load_fixture("trunc-poly-z2")
    assert cfg.algebra.dim == 2
    assert cfg.algebra.basis_names == ["1", "x"]
    assert cfg.group.order == 2
    assert cfg.twist == "s"
    # g(x) = -x
    from thl.rational import Q

    assert cfg.group.action[1].image_of_basis(1) == {1: Q(-1)}


def test_every_fixture_validates():
    for name in fixture_names():
        cfg = load_fixture(name)
        assert cfg.max_degree >= 2


def test_malformed_rational_raises_parse_error():
    data = copy.deepcopy(fixture_config("trunc-poly-z2"))
    data["algebra"]["mult"][0][0][0] = "1/0"
    with pytest.raises(ParseError):
        config_from_dict(data)


def test_nonassociative_table_raises_validation_error():
    data = copy.deepcopy(fixture_config("trunc-cubic-z2"))
    data["algebra"]["mult"][1][1] = ["1", "0", "0"]  # x.x = 1 breaks associativity
    with pytest.raises(ValidationError) as err:
        config_from_dict(data)
    assert "associativity" in str(err.value)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(fixture_config("ground-field")))
    cfg = load_config(str(path))
    assert cfg.algebra.dim == 1


@pytest.mark.parametrize("case", ["directory", "not-utf8"])
def test_cli_rejects_unreadable_config(tmp_path, capsys, case):
    """A config that cannot be read as text (a directory, bytes that are
    not UTF-8) is an input error naming the path in one line (exit 2), not
    a traceback with the exit code of a failed check."""
    path = tmp_path / "job.json"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"name": "\xff\xfe"}')
    rc = main(["all", "--config", str(path), "--format", "machine"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("thl: ") and str(path) in captured.err
    assert captured.err.count("\n") == 1


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ParseError) as err:
        load_config(str(path))
    assert "line" in str(err.value)


def test_machine_report_roundtrip():
    cfg = load_fixture("ground-field")
    report = run("hc-coinv", cfg)
    text = emit_machine(report)
    parsed = parse_machine(text)
    assert parsed["name"] == "ground-field"
    assert parsed["dims"]["hc-coinv"] == [(0, 1), (1, 0), (2, 1), (3, 0)]


def test_all_builds_each_complex_once(monkeypatch):
    """One run of all builds the operator set and each complex once (the
    Connes complex once for hc-lambda and Karoubi together, the de Rham
    complex once for hdr-G and Karoubi together), the twisted complex once
    per group element it reads, each from that element's operators of the
    shared operator set, and evaluates each operator identity at most once
    per block (verify-identities and the deep check of PropositionComplex
    read the same outcomes)."""
    from thl import crossed, sequences, twisted

    builds = []
    evaluated = []
    evaluate = crossed.check_identity

    def counted_check(ops, name, p, q):
        evaluated.append((name, p, q))
        return evaluate(ops, name, p, q)

    monkeypatch.setattr(crossed, "check_identity", counted_check)

    def count(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            builds.append((cls.__name__, args))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    for cls in (crossed.GJOperators, crossed.CoinvariantComplex,
                crossed.ConjugacyDecomposition, crossed.PropositionComplex,
                crossed.LambdaComplex, sequences.DeRhamComplex, twisted.HKBicomplex,
                twisted.TwistedOperators):
        count(cls)
    for name in ("trunc-poly-z2", "triple-lines-z3"):
        builds.clear()
        evaluated.clear()
        cfg = load_fixture(name)
        run("all", cfg)
        assert len(set(evaluated)) == len(evaluated), (name, len(evaluated))
        # the suite and both parts of the full boundary pair were evaluated
        assert {n for n, _, _ in evaluated} == set(crossed.IDENTITIES), name
        names = [cls for cls, _ in builds]
        for cls in ("GJOperators", "CoinvariantComplex", "ConjugacyDecomposition",
                    "PropositionComplex", "LambdaComplex", "DeRhamComplex"):
            assert names.count(cls) == 1, (name, cls, names.count(cls))
        # at most one set of twisted operators per group element, each
        # built for the shared operator set
        elements = [id(args[1]) for cls, args in builds if cls == "TwistedOperators"]
        assert len(set(elements)) == len(elements) <= cfg.group.order, (name, len(elements))
        twists = [args[0] for cls, args in builds if cls == "HKBicomplex"]
        assert twists and len({id(t) for t in twists}) == len(twists), (name, len(twists))
        ops = next(args[0] for cls, args in builds if cls == "PropositionComplex")
        for t in twists:
            assert any(t is ops.element(h) for h in range(cfg.group.order)), name


# SHA-256 of the machine report of `all --lambda-coinv off` on
# triple-lines-z3: the one run in which hc-lambda and the Karoubi sequence
# read different Connes complexes.
LAMBDA_OFF_SHA256 = PINNED_SHA256["all --fixture triple-lines-z3 --lambda-coinv off"]


def test_all_with_lambda_coinvariants_off():
    import hashlib

    from thl.crossed import connes_lambda_complex

    cfg = load_fixture("triple-lines-z3")
    cfg.lambda_coinvariants = False
    text = emit_machine(run("all", cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == LAMBDA_OFF_SHA256
    default = emit_machine(run("all", load_fixture("triple-lines-z3")))
    lam = connes_lambda_complex(cfg.algebra, cfg.group, cfg.max_degree, g_coinvariants=False)
    dims = [d for _, d in parse_machine(text)["dims"]["hc-lambda"]]
    assert dims == lam.dims
    assert dims != [d for _, d in parse_machine(default)["dims"]["hc-lambda"]]

    def karoubi_checks(report):
        return [c for c in parse_machine(report)["checks"] if c[0].startswith("karoubi:")]

    assert karoubi_checks(text) and karoubi_checks(text) == karoubi_checks(default)


def test_machine_report_deterministic():
    cfg1 = load_fixture("trunc-poly-z2")
    cfg2 = load_fixture("trunc-poly-z2")
    a = emit_machine(run("verify-sbi", cfg1))
    b = emit_machine(run("verify-sbi", cfg2))
    assert a == b


def test_cli_exit_codes(capsys):
    assert main(["validate", "--fixture", "ground-field"]) == 0
    capsys.readouterr()
    # failing check: the factor-r comparison on the sign-twist fixture
    assert main(["verify-theorem", "--fixture", "trunc-poly-z2"]) == 1
    capsys.readouterr()
    # input errors
    assert main(["hc-twisted", "--fixture", "ground-field"]) == 2
    capsys.readouterr()
    assert main(["validate", "--fixture", "ground-field", "--twist", "zz"]) == 2
    capsys.readouterr()


def test_cli_machine_format(capsys):
    rc = main(["hc-lambda", "--fixture", "ground-field", "--format", "machine"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("thl-report\tv1\n")
    assert "dim\thc-lambda\t0\t1" in out
    assert out.endswith("end\n")


def test_cli_max_degree_override(capsys):
    rc = main(["hc-coinv", "--fixture", "ground-field", "--max-degree", "1",
               "--format", "machine"])
    out = capsys.readouterr().out
    assert rc == 0
    parsed = parse_machine(out)
    assert parsed["dims"]["hc-coinv"] == [(0, 1), (1, 0)]


def test_emit_human_contains_tables():
    cfg = load_fixture("ground-field")
    report = run("hc-coinv", cfg)
    text = emit_report(report, "human")
    assert "hc-coinv" in text
    assert "degree" in text
    assert "result: ok" in text


def test_human_and_golden_machine_report(capsys):
    """Both renderings of one job succeed; the machine report is byte-stable."""
    rc = main(["hc-coinv", "--fixture", "ground-field", "--format", "human"])
    capsys.readouterr()
    assert rc == 0
    rc = main(["hc-coinv", "--fixture", "ground-field", "--format", "machine"])
    assert rc == 0
    assert capsys.readouterr().out == GOLDEN_HC_COINV_GROUND_FIELD


def test_all_skips_twist_when_absent(capsys):
    rc = main(["all", "--fixture", "ground-field", "--format", "machine"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "check\thc-twisted\tskip" in out


GOLDEN_HC_COINV_GROUND_FIELD = (
    "thl-report\tv1\n"
    "name\tground-field\n"
    "command\thc-coinv\n"
    "param\tmax_degree\t3\n"
    "dim\thc-coinv\t0\t1\n"
    "dim\thc-coinv\t1\t0\n"
    "dim\thc-coinv\t2\t1\n"
    "dim\thc-coinv\t3\t0\n"
    "end\n"
)


def test_machine_report_golden_bytes():
    cfg = load_fixture("ground-field")
    assert emit_machine(run("hc-coinv", cfg)) == GOLDEN_HC_COINV_GROUND_FIELD


def test_console_entry_point_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "thl.cli", "hc-coinv", "--fixture", "ground-field",
         "--format", "machine"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_HC_COINV_GROUND_FIELD


def _bad_config(path_dir, edit):
    data = copy.deepcopy(fixture_config("trunc-poly-z2"))
    edit(data)
    path = path_dir / "bad.json"
    path.write_text(json.dumps(data))
    return str(path)


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def edit(data):
        for k in keys:
            data = data[k]
        data[last] = value

    return edit


WRONG_JSON_TYPES = [
    ("task.max_degree", _set("task", {"max_degree": True})),
    ("task.max_degree", _set("task", {"max_degree": False})),
    ("algebra.dim", _set("algebra", "dim", True)),
    ("algebra.unit_index", _set("algebra", "unit_index", False)),
    ("group.table[0][1]", _set("group", "table", 0, 1, True)),
    ("group.table[1][1]", _set("group", "table", 1, 1, False)),
    ("task", _set("task", [])),
    ("algebra", _set("algebra", [1, 2])),
    ("group", _set("group", "Z/2")),
    ("group.action", _set("group", "action", [["1", "0"], ["0", "-1"]])),
    ("group.elements", _set("group", "elements", 3)),
    ("algebra.mult", _set("algebra", "mult", 5)),
    ("algebra.basis", _set("algebra", "basis", 7)),
    ("algebra.mult[0]", _set("algebra", "mult", 0, 3)),
    ("group.table[0]", _set("group", "table", 0, 3)),
    ("group.elements[0]", _set("group", "elements", 0, ["e"])),
]


@pytest.mark.parametrize("where, edit", WRONG_JSON_TYPES, ids=[w for w, _ in WRONG_JSON_TYPES])
def test_cli_rejects_wrong_json_types(tmp_path, capsys, where, edit):
    """A bool where an integer is required, or a non-object where fields
    are required, is an input error naming the field (exit 2), not a run
    at degree 1 or a traceback."""
    rc = main(["hc-coinv", "--config", _bad_config(tmp_path, edit), "--format", "machine"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"thl: {where}"), captured.err


def test_cli_rejects_exponent_rational(tmp_path, capsys):
    """A rational entry must be "p/q": "1e3" is an input error naming the field."""
    edit = _set("group", "action", "s", 1, 1, "1e3")
    rc = main(["hc-coinv", "--config", _bad_config(tmp_path, edit), "--format", "machine"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("thl: bad rational at group.action[s][1][1]"), captured.err


def test_cli_accepts_integer_fields(tmp_path, capsys):
    rc = main(["hc-coinv", "--config",
               _bad_config(tmp_path, _set("task", {"max_degree": 1})), "--format", "machine"])
    assert rc == 0
    assert "param\tmax_degree\t1\n" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["trunc-poly-z2", "triple-lines-z3"])
def test_single_commands_write_the_lines_of_all(name):
    """`all` shares each complex between its steps, which read its top in
    another order than a command run alone (homology before or after the
    top is presented); each command still writes exactly its lines of
    `all`, in the same order."""
    from thl.cli import STEPS

    cfg = load_fixture(name)
    whole = run("all", cfg)
    alone = [run(command, cfg) for command in STEPS]
    assert whole.dim_tables == [t for r in alone for t in r.dim_tables]
    assert whole.checks == [c for r in alone for c in r.checks]
    assert whole.notes == [n for r in alone for n in r.notes]

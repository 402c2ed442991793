import copy
import json

import pytest

from thl.cli import main, run
from thl.config import config_from_dict, load_config, load_fixture
from thl.errors import ParseError, ValidationError
from thl.fixtures import fixture_config, fixture_names
from thl.report import emit_machine, emit_report, parse_machine


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
    """One run of all builds the operator set and each complex once, the
    twisted complex once per group element it reads, and evaluates the
    full boundary pair identities once (verify-identities and the deep
    check of PropositionComplex share the bound)."""
    from thl import crossed, twisted

    builds = []
    pair_checks = []
    evaluate = crossed._full_pair_identities

    def counted_pair_check(ops, bound):
        pair_checks.append(bound)
        return evaluate(ops, bound)

    monkeypatch.setattr(crossed, "_full_pair_identities", counted_pair_check)

    def count(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            builds.append((cls.__name__, args))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    for cls in (crossed.GJOperators, crossed.CoinvariantComplex,
                crossed.ConjugacyDecomposition, crossed.PropositionComplex,
                twisted.HKBicomplex):
        count(cls)
    for name in ("trunc-poly-z2", "triple-lines-z3"):
        builds.clear()
        pair_checks.clear()
        run("all", load_fixture(name))
        assert pair_checks == [2], (name, pair_checks)
        names = [cls for cls, _ in builds]
        for cls in ("GJOperators", "CoinvariantComplex", "ConjugacyDecomposition",
                    "PropositionComplex"):
            assert names.count(cls) == 1, (name, cls, names.count(cls))
        twists = [id(args[1]) for cls, args in builds if cls == "HKBicomplex"]
        assert twists and len(set(twists)) == len(twists), (name, len(twists))


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

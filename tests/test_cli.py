import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avekit import cli
from avekit import problems as pr


def run(*argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def write_problem(path, problem):
    path.write_text(json.dumps(cli.problem_to_dict(problem)))
    return str(path)


@pytest.fixture
def trap_file(tmp_path):
    path = tmp_path / "trap.json"
    assert run("generate", "--class", "sge-trap", "--eps", "0.01", "--out", str(path)) == 0
    return str(path)


@pytest.fixture
def circulant_file(tmp_path):
    path = tmp_path / "circ.json"
    assert run("generate", "--class", "newton-cycle", "--out", str(path)) == 0
    return str(path)


class TestGenerate:
    def test_tridiag_passes_reanalysis(self, tmp_path):
        path = tmp_path / "t.json"
        assert run("generate", "--class", "tridiag", "--n", "6", "--seed", "7",
                   "--out", str(path)) == 0
        out = tmp_path / "analysis.json"
        assert run("analyze", str(path), "--out", str(out)) == 0
        assert read_json(str(out))["condition_profile"]["cond4"] is True

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            assert run("generate", "--class", "norm-lt-half", "--n", "5",
                       "--seed", "3", "--out", str(p)) == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == (
            "2c2d175c9872b22b4f9d9990e4c2da3785865416c28e027cb7de75fd0816ce76"
        )

    def test_trap_instance_payload(self, trap_file):
        data = read_json(trap_file)
        assert data["n"] == 2
        assert data["A"] == [[0.005, 0.505], [0.0, 0.5]]
        assert data["b"] == [-0.500025, 0.5]
        assert data["known_solution"] == [0.005, 1.0]

    def test_invalid_class_lists_valid_ones(self, tmp_path, capsys):
        assert run("generate", "--class", "bogus", "--out", str(tmp_path / "x.json")) == 1
        err = capsys.readouterr().err
        assert "sge-trap" in err and "norm-lt-half" in err

    def test_roundtrip_identity(self, tmp_path):
        path = tmp_path / "r.json"
        assert run("generate", "--class", "unconstrained", "--nu", "1.3", "--n", "4",
                   "--seed", "11", "--out", str(path)) == 0
        data = read_json(str(path))
        problem, known, _meta = cli.load_problem(str(path))
        assert np.array_equal(problem.a, np.array(data["A"]))
        assert np.array_equal(problem.b, np.array(data["b"]))
        # Serializing the parsed problem again reproduces the numbers.
        again = cli.problem_to_dict(problem, known)
        assert again["A"] == data["A"] and again["b"] == data["b"]


class TestSolve:
    def test_sge_on_guaranteed_instance(self, tmp_path):
        path = tmp_path / "p.json"
        run("generate", "--class", "norm-lt-half", "--n", "5", "--seed", "1",
            "--out", str(path))
        out = tmp_path / "report.json"
        assert run("solve", str(path), "--method", "sge", "--out", str(out)) == 0
        report = read_json(str(out))
        assert report["status"] == "converged"
        assert report["residual"] <= 1e-10

    def test_newton_cycle_exit_code(self, circulant_file, tmp_path):
        out = tmp_path / "report.json"
        code = run("solve", circulant_file, "--method", "newton", "--start", "+-+",
                   "--out", str(out))
        assert code == 2
        assert read_json(str(out))["status"] == "cycle"

    def test_oracle_on_trap(self, trap_file, tmp_path):
        out = tmp_path / "report.json"
        assert run("solve", trap_file, "--method", "oracle", "--out", str(out)) == 0
        report = read_json(str(out))
        assert report["z"] == pytest.approx([0.005, 1.0], abs=1e-9)

    def test_sge_pivot_breakdown_exit_code(self, tmp_path):
        path = write_problem(tmp_path / "p.json", pr.AveProblem(np.eye(1), np.array([2.0])))
        out = tmp_path / "report.json"
        assert run("solve", path, "--method", "sge", "--out", str(out)) == 2
        report = read_json(str(out))
        assert report["status"] == "pivot_breakdown"
        assert report["z"] is None and report["residual"] is None
        assert report["warnings"]

    def test_oracle_dimension_cap(self, tmp_path, capsys):
        path = write_problem(tmp_path / "big.json", pr.AveProblem(np.zeros((13, 13)), np.ones(13)))
        assert run("solve", path, "--method", "oracle") == 1
        assert "capped at n <= 12" in capsys.readouterr().err

    def test_missing_field_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "A": [[0, 0], [0, 0]]}))
        assert run("solve", str(path)) == 1
        assert "'b'" in capsys.readouterr().err

    def test_bad_shape_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "A": [[0, 0]], "b": [0, 0]}))
        assert run("solve", str(path)) == 1
        assert "'A'" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run("solve", str(path)) == 1
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("n", True),
        ("known_solution", ["x"]),
        ("known_solution", [float("nan")]),
    ])
    def test_loader_rejects_field(self, tmp_path, capsys, field, value):
        data = cli.problem_to_dict(pr.AveProblem(np.zeros((1, 1)), np.ones(1)))
        data[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run("solve", str(path)) == 1
        assert f"'{field}'" in capsys.readouterr().err

    def test_bad_start_signature(self, trap_file, capsys):
        assert run("solve", trap_file, "--method", "newton", "--start", "+-+") == 1
        assert "length" in capsys.readouterr().err


class TestAnalyze:
    def test_circulant_profile(self, circulant_file, tmp_path):
        out = tmp_path / "a.json"
        assert run("analyze", circulant_file, "--rho", "both", "--out", str(out)) == 0
        data = read_json(str(out))
        profile = data["condition_profile"]
        assert not any([profile["cond1"], profile["cond2"], profile["cond3"], profile["cond4"]])
        assert data["rho_sr_enum"] == pytest.approx(0.625, abs=1e-8)
        assert data["rho_sr_bisect"] == pytest.approx(0.625, abs=1e-6)

    def test_quarter_identity(self, tmp_path):
        path = tmp_path / "p.json"
        problem = pr.AveProblem(0.25 * np.eye(2), np.ones(2))
        path.write_text(json.dumps(cli.problem_to_dict(problem)))
        out = tmp_path / "a.json"
        assert run("analyze", str(path), "--out", str(out)) == 0
        data = read_json(str(out))
        assert data["condition_profile"]["cond1"] is True
        # 0.25 is a double eigenvalue of 0.25*I, so allow the usual
        # multiple-root evaluation blur.
        assert data["rho_sr_enum"] == pytest.approx(0.25, abs=1e-7)

    def test_inflated_identity_not_det_positive(self, tmp_path):
        path = tmp_path / "p.json"
        problem = pr.AveProblem(pr.inflated_identity(0.1, 3), np.ones(3))
        path.write_text(json.dumps(cli.problem_to_dict(problem)))
        out = tmp_path / "a.json"
        assert run("analyze", str(path), "--out", str(out)) == 0
        assert read_json(str(out))["det_positive_all_signatures"] is False

    def test_dimension_cap_note(self, tmp_path):
        n = 13
        path = tmp_path / "big.json"
        problem = pr.AveProblem(np.zeros((n, n)), np.zeros(n))
        path.write_text(json.dumps(cli.problem_to_dict(problem)))
        out = tmp_path / "a.json"
        assert run("analyze", str(path), "--out", str(out)) == 0
        data = read_json(str(out))
        assert "dimension cap" in data["note"]
        assert "rho_sr_enum" not in data


class TestCompare:
    def test_demo_suite_shows_non_equivalence(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        assert run("compare", "--suite", "demo", "--out", str(out)) == 0
        data = read_json(str(out))
        rows = {r["instance"]: r for r in data["instances"]}
        trap = rows["trap-eps-0.01"]
        circ = rows["circulant-5-8-mixed-start"]
        assert trap["newton_ok"] and not trap["sge_ok"]
        assert circ["sge_ok"] and not circ["newton_ok"]
        assert data["summary"]["sge_only"] == 1
        assert data["summary"]["newton_only"] == 1

    def test_directory_of_guaranteed_instances(self, tmp_path):
        d = tmp_path / "instances"
        d.mkdir()
        for i in range(6):
            run("generate", "--class", "norm-lt-half", "--n", "4", "--seed", str(i),
                "--out", str(d / f"i{i}.json"))
        out = tmp_path / "cmp.json"
        assert run("compare", "--dir", str(d), "--out", str(out)) == 0
        data = read_json(str(out))
        assert data["summary"]["both"] == 6

    def test_empty_directory(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        out = tmp_path / "cmp.json"
        assert run("compare", "--dir", str(d), "--out", str(out)) == 0
        assert read_json(str(out))["instances"] == []

    def test_unreadable_file_skipped(self, tmp_path):
        d = tmp_path / "instances"
        d.mkdir()
        (d / "bad.json").write_text("nope")
        run("generate", "--class", "norm-lt-half", "--n", "3", "--seed", "0",
            "--out", str(d / "good.json"))
        out = tmp_path / "cmp.json"
        assert run("compare", "--dir", str(d), "--out", str(out)) == 0
        data = read_json(str(out))
        assert len(data["instances"]) == 1
        assert len(data["skipped"]) == 1

    def test_oracle_cap_recorded_in_row(self, tmp_path):
        d = tmp_path / "instances"
        d.mkdir()
        write_problem(d / "big.json", pr.AveProblem(np.zeros((13, 13)), np.ones(13)))
        out = tmp_path / "cmp.json"
        assert run("compare", "--dir", str(d), "--out", str(out)) == 0
        (row,) = read_json(str(out))["instances"]
        assert row["oracle"] == "oracle enumeration capped at n <= 12"


@pytest.mark.parametrize("argv", [
    ("solve", "{problem}"),
    ("analyze", "{problem}"),
    ("generate", "--class", "norm-lt-half"),
    ("compare", "--suite", "demo"),
])
def test_unwritable_out_is_one_error_line(tmp_path, capsys, argv):
    problem = write_problem(tmp_path / "p.json", pr.AveProblem(np.zeros((2, 2)), np.ones(2)))
    out = tmp_path / "missing" / "r.json"
    argv = [arg.format(problem=problem) for arg in argv]
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err and str(out) in err


def test_unlistable_dir_names_it(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert run("compare", "--dir", str(missing)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=16,
)


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(["n", "A", "b", "known_solution", "metadata"]), value=JSON_VALUES)
def test_loader_returns_or_raises_cli_error(tmp_path_factory, field, value):
    data = cli.problem_to_dict(pr.AveProblem(np.zeros((2, 2)), np.ones(2)))
    data[field] = value
    path = tmp_path_factory.mktemp("fuzz") / "p.json"
    path.write_text(json.dumps(data))
    try:
        cli.load_problem(str(path))
    except cli.CliError:
        pass

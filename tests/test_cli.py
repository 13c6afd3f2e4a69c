import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from avekit import cli
from avekit import problems as pr


def run(*argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def write_problem(path, problem):
    cli._write_json(cli.problem_to_dict(problem), str(path))
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

    # sha256 of the generate output at n = 40, seed 5, taken before the
    # array draws and the row writer replaced the scalar loops and json.dump.
    @pytest.mark.parametrize("args, rhs, digest", [
        (("norm-lt-half",), "from-random-z",
         "6b1901a40ccde45c27550e78e6222e628097388c33d32cad8aabd9ecf906e2a4"),
        (("norm-lt-half",), "explicit",
         "a3712bed3fac4cd15d9f1bccbeaec06d4f8bf561d9d1a02f35f907b3624de516"),
        (("irreducible-half",), "from-random-z",
         "4977f834bc45bcffc5435c6ed10405f6aae4c10b820b19e6ad4a3e20c0f5a7f8"),
        (("irreducible-half",), "explicit",
         "f0a46cae8867a2575b071c65875f3166ecf88063c13ecf2f593682be5352d975"),
        (("sdd-two-thirds",), "from-random-z",
         "4144a3f2ffeb0a5413fc44c44f480b609fb287d98e56f599103cf80f6b29323e"),
        (("sdd-two-thirds",), "explicit",
         "5152e7f94cef39895979c06c58cc54b3006880a1d9192f0787e65e6d9ba288a6"),
        (("tridiag",), "from-random-z",
         "eea9c23db51792325e6f086cc89939261ba05fb3645167e3e41483fea9de944d"),
        (("tridiag",), "explicit",
         "6656ecf7d7eef6a8700c6bb4a8677386059214229aeffc82d9b53a32c0129145"),
        (("norm-lt-third",), "from-random-z",
         "803b5f94f534610430a313d1881a170337166b0b7103b1c0b96a5d885c9a407f"),
        (("norm-lt-third",), "explicit",
         "e1890f4a51bd16b2057429539e61d5b072cdd4e134cf7d719c3774894c46da56"),
        (("unconstrained", "--nu", "1.5"), "from-random-z",
         "95f5fdfc01ef0f5d6a26370d66bf4c9c598562a643468578c1cd194d2c051c8b"),
        (("unconstrained", "--nu", "1.5"), "explicit",
         "f77cb374c5065c9b5f6d4aced618bd7ce79ff03075226f86a0be01e5bba9e539"),
    ])
    def test_pinned_bytes_per_class(self, tmp_path, args, rhs, digest):
        path = tmp_path / "p.json"
        assert run("generate", "--class", *args, "--n", "40", "--seed", "5", "--rhs", rhs,
                   "--out", str(path)) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

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
        assert again["A"].tolist() == data["A"] and again["b"].tolist() == data["b"]


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

    def test_oracle_counts_singular_signatures(self, tmp_path):
        # A = I: I - IS is singular unless S = -I, where z = (-1/2, -1/2).
        problem = pr.AveProblem(np.eye(2), np.array([-1.0, -1.0]))
        path = write_problem(tmp_path / "eye.json", problem)
        out = tmp_path / "report.json"
        assert run("solve", path, "--method", "oracle", "--out", str(out)) == 0
        report = read_json(str(out))
        assert report["solution_count"] == 1
        assert report["singular_signatures"] == 3
        assert report["z"] == [-0.5, -0.5]

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
        cli._write_json(data, str(path))
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
        write_problem(path, problem)
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
        write_problem(path, problem)
        out = tmp_path / "a.json"
        assert run("analyze", str(path), "--out", str(out)) == 0
        assert read_json(str(out))["det_positive_all_signatures"] is False

    # The norm of the 1e308 matrix overflows in condition_profile first,
    # which numpy reports as a RuntimeWarning.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e30, 1e308])
    @pytest.mark.parametrize("rho", ["enum", "bisect", "both"])
    def test_overflowing_radii_are_an_error(self, tmp_path, capsys, scale, rho):
        # Overflowing char polys or minors once gave 0.0 or 2 ||A||_inf,
        # and at 1e308 an invalid JSON Infinity, with exit 0.
        b = np.random.default_rng(12).uniform(-1.0, 1.0, (12, 12))
        a = scale * b if scale < 1e300 else scale * np.sign(b)
        path = write_problem(tmp_path / "p.json", pr.AveProblem(a, np.ones(12)))
        assert run("analyze", path, "--rho", rho) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "overflows" in errors[0]

    @pytest.mark.parametrize("cls, sizes, seeds", [
        *[(cls, range(3, 7), range(20, 31))
          for cls in ("norm_lt_half", "irreducible_half", "sdd_two_thirds", "tridiag_abs_sym")],
        ("irreducible_half", (8, 10), (20, 22, 24)),
    ], ids=["norm_lt_half", "irreducible_half", "sdd_two_thirds", "tridiag_abs_sym",
            "irreducible_half-n8-n10"])
    def test_radii_agree_on_generated_instances(self, tmp_path, cls, sizes, seeds):
        # The rule the benchmark's analyze check applies, on generated
        # instances: zero-diagonal irreducible-half matrices among them
        # give characteristic polynomials whose Sturm chains drop more
        # than one degree at a step.
        for n in sizes:
            for seed in seeds:
                problem, _z = pr.random_instance(cls, n, seed)
                path = write_problem(tmp_path / "p.json", problem)
                out = tmp_path / "a.json"
                assert run("analyze", path, "--rho", "both", "--out", str(out)) == 0
                data = read_json(str(out))
                norm = float(np.abs(problem.a).sum(axis=1).max())
                tol = 1e-8 * (1.0 + norm)
                enum, bisect = data["rho_sr_enum"], data["rho_sr_bisect"]
                assert abs(enum - bisect) <= tol, (n, seed)
                assert max(enum, bisect) <= norm + tol, (n, seed)
                if abs(enum - 1.0) > 1e-6:
                    assert data["det_positive_all_signatures"] == (enum < 1.0), (n, seed)

    def test_dimension_cap_note(self, tmp_path):
        n = 13
        path = tmp_path / "big.json"
        problem = pr.AveProblem(np.zeros((n, n)), np.zeros(n))
        write_problem(path, problem)
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
    cli._write_json(data, str(path))
    try:
        cli.load_problem(str(path))
    except cli.CliError:
        pass


def reference_load(path):
    """The loader as ``json.load`` followed by ``np.asarray`` of each field."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or not {"n", "A", "b"} <= data.keys():
        raise cli.CliError("shape of the file")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise cli.CliError("n")
    fields = {}
    for name in ("A", "b", "known_solution"):
        if name == "known_solution" and data.get(name) is None:
            fields[name] = None
            continue
        value = np.asarray(data[name], dtype=float)
        if not np.isfinite(value).all() or value.shape != ((n, n) if name == "A" else (n,)):
            raise cli.CliError(name)
        fields[name] = value
    metadata = data.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise cli.CliError("metadata")
    return fields["A"], fields["b"], fields["known_solution"], metadata


def assert_loads_as_reference(path):
    try:
        expected = reference_load(path)
    except (cli.CliError, ValueError, TypeError, OverflowError):
        with pytest.raises(cli.CliError):
            cli.load_problem(path)
        return
    problem, known, metadata = cli.load_problem(path)
    for got, want in ((problem.a, expected[0]), (problem.b, expected[1]), (known, expected[2])):
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    assert metadata == expected[3]


ENTRY = (st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2 ** 70), 2 ** 70)
         | st.booleans() | st.sampled_from(["0.5", "-2", " 1e-3 ", "-0.0"]))
BAD_ENTRY = st.sampled_from([None, float("nan"), float("inf"), -float("inf"), "abc", "", "nan",
                             "1e400", 10 ** 400, [0.5], [], {}, {"x": 1.0}])


@st.composite
def problem_texts(draw):
    n = draw(st.integers(1, 3))
    rows = [draw(st.lists(ENTRY, min_size=n, max_size=n)) for _ in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    flaw = draw(st.sampled_from(["none", "none", "entry", "entry", "entry", "ragged", "extra_row",
                                 "scalar_row", "nested", "not_a_list", "empty"]))
    if flaw == "entry":
        rows[i][j] = draw(BAD_ENTRY)
    elif flaw == "ragged":
        rows[i] = rows[i][:j] + rows[i][j + 1:]
    elif flaw == "extra_row":
        rows.append(list(rows[i]))
    elif flaw == "scalar_row":
        rows[i] = draw(ENTRY | BAD_ENTRY)
    elif flaw == "nested":
        rows = [[[x] for x in row] for row in rows]
    a = {"not_a_list": draw(ENTRY | BAD_ENTRY), "empty": []}.get(flaw, rows)
    data = {"n": n, "A": a, "b": draw(st.lists(ENTRY | BAD_ENTRY, min_size=n, max_size=n))}
    if draw(st.booleans()):
        data["known_solution"] = draw(st.none() | st.lists(ENTRY, min_size=n, max_size=n))
    if draw(st.booleans()):
        data["metadata"] = draw(st.none() | st.dictionaries(st.text(max_size=2), ENTRY, max_size=2)
                                | st.just([1]))
    keys = draw(st.permutations(list(data)))
    return json.dumps({k: data[k] for k in keys}, indent=draw(st.sampled_from([None, 0, 2])))


@settings(max_examples=400, deadline=None)
@given(text=problem_texts())
def test_loader_matches_json_load(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("load") / "p.json"
    path.write_text(text)
    assert_loads_as_reference(str(path))


@pytest.mark.parametrize("text", [
    ' \t{"n":1,"A":[ [ 0.5 ] ,\r\n[0.25]\n]\t,"b":[1]} \n',
    '{"n": 1, "A": [[0.5]], "b": [1]}',
    '{"n": 1, "A": [["x"]], "b": [1], "A": [[0.25]]}',
    '{"n": 1, "A": [[0.25]], "b": [1], "A": [["x"]]}',
    '{"n": 1, "A": [[0.25]], "b": [1], "A": 0.5}',
    '{"n": 1, "A": 0.5, "b": [1], "A": [[0.25]]}',
    '{"n": 1, "\\u0041": [[0.5]], "b": [1]}',
    '{"n": 2, "A": [[0.5, true], ["0.25", 0]], "b": [1, 2], "known_solution": null}',
    '{"n": 2, "A": [[0.5, true], [null, 0]], "b": [1, 2]}',
    '{"n": 1, "A": [[NaN]], "b": [1]}',
    '{"n": 1, "A": [[1e400]], "b": [1]}',
    '{"n": 1, "A": [[[0.5]]], "b": [1]}',
    '{"n": 1, "A": [], "b": [1]}',
    '{"n": 1, "A": [[0.5]], "b": [1], "metadata": []}',
    '{"n": 1, "A": [[0.5],], "b": [1]}',
    '{"n": 1, "A": [[0.5]] "b": [1]}',
    '{"n": 1, "A": [[0.5]], "b": [1],}',
    '{"n": 1, "A": [[0.5]], "b": [1]} x',
    '{"n": 1, "A": [[0.5]], "b": [1]',
    '{"n": 1, "A": [[0.5]',
    '{"n": 1, "A" [[0.5]], "b": [1]}',
    '{n: 1, "A": [[0.5]], "b": [1]}',
    '{"n": 1, "A": [[0.5] [0.5]], "b": [1]}',
    '{"n": 1, "A": [,], "b": [1]}',
    '\ufeff{"n": 1, "A": [[0.5]], "b": [1]}',
    '[{"n": 1, "A": [[0.5]], "b": [1]}]',
    '',
])
def test_loader_matches_json_load_on_edge_texts(tmp_path, text):
    path = tmp_path / "p.json"
    path.write_text(text, encoding="utf-8")
    assert_loads_as_reference(str(path))


@pytest.mark.parametrize("content", [
    b'{"n": 1, "A": [[0.5]], "b": [1], "metadata": {"x": "\xff"}}',
    b'{"n": 1, "A": ' + b"[" * 100_000 + b"]" * 100_000 + b', "b": [1]}',
    b'{"n": 1, "A": [[1' + b"0" * 5000 + b']], "b": [1]}',
])
def test_loader_names_the_path_where_json_load_raised(tmp_path, content):
    # Undecodable bytes, nesting past the recursion limit and an integer
    # past Python's digit limit made json.load raise something other than
    # a JSONDecodeError.
    path = tmp_path / "p.json"
    path.write_bytes(content)
    with pytest.raises(cli.CliError, match=str(path)):
        cli.load_problem(str(path))


SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 5e-324, float("nan"),
                                  float("inf"), float("-inf"), 1e300])
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | SPECIAL_FLOATS
               | st.text(max_size=6))
JSON_KEYS = st.text(max_size=4) | st.integers() | st.floats() | st.booleans() | st.none()
JSON_DATA = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=5)
    | st.lists(st.floats() | SPECIAL_FLOATS, max_size=6)
    | st.dictionaries(JSON_KEYS, children, max_size=4),
    max_leaves=30,
)


def written_text(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("write") / "out.json"
    cli._write_json(data, str(path))
    return path.read_bytes().decode("ascii")


@settings(max_examples=300, deadline=None)
@given(data=JSON_DATA)
def test_write_json_is_json_dump_text(tmp_path_factory, data):
    assert written_text(tmp_path_factory, data) == json.dumps(data, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
                      elements=st.floats() | SPECIAL_FLOATS))
def test_write_json_writes_arrays_as_their_lists(tmp_path_factory, arr):
    data = {"A": arr, "n": 1}
    assert written_text(tmp_path_factory, data) == json.dumps(
        {"A": arr.tolist(), "n": 1}, indent=2) + "\n"

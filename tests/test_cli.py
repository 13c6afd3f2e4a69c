import decimal
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from avekit import analysis as an
from avekit import cli
from avekit import problems as pr


def run(*argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


# A value of each generate option that every class reading it accepts.
SAMPLE_OPTIONS = {"n": "5", "seed": "3", "rhs": "from-random-z", "eps": "0.1", "a": "0.5",
                  "nu": "1.5"}


def class_argv(cls):
    """generate's arguments for cls with a sample value of each option it reads."""
    _build, reads = cli.GENERATE_CLASSES[cls]
    return ["--class", cls, *(arg for o in reads for arg in (f"--{o}", SAMPLE_OPTIONS[o]))]


def cli_process(*argv, env=(), **kwargs):
    """Run the avekit entry point on argv in a new interpreter, with the
    variables env added to the environment."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, **dict(env), PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", "from avekit.cli import entrypoint; entrypoint()", *argv],
        capture_output=True, timeout=60, env=env, **kwargs)


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

    # sha256 of json.dumps(json.load(file), indent=2) + "\n" for the
    # generate output at n = 40, seed 5, pinned from the json.dump output
    # of the scalar-loop generator: an equal digest means the same doubles.
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
        text = json.dumps(read_json(str(path)), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # sha256 of the built-in instances at their default options, whose
    # metadata lists the options in the order the class table gives them.
    @pytest.mark.parametrize("cls, digest", [
        ("sge-trap", "de1c61ad5b1a5f3c5b848e2befde3d4091896fe3a9b6ddafdbb56c7f3e04294d"),
        ("newton-cycle", "41a293754944575177b7aaa28ec4159d74a26c2bcd9c3fbed80c9683a90a09e8"),
        ("inflated-identity", "e9d696520a1d36a8fa11d5675436e5d047d427df56655b9b23a03428d44ce384"),
    ])
    def test_pinned_bytes_per_built_in_class(self, tmp_path, cls, digest):
        path = tmp_path / "p.json"
        assert run("generate", "--class", cls, "--out", str(path)) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_trap_instance_payload(self, trap_file):
        data = read_json(trap_file)
        assert data["n"] == 2
        assert data["A"] == [[0.005, 0.505], [0.0, 0.5]]
        assert data["b"] == [-0.500025, 0.5]
        assert data["known_solution"] == [0.005, 1.0]

    @pytest.mark.parametrize("option, value", [
        ("--seed", str(2 ** 64)),
        ("--seed", str(-(2 ** 63) - 1)),
        ("--seed", "1180591620717411303424"),
        ("--eps", "nan"),
        ("--eps", "inf"),
        ("--a", "-inf"),
        ("--nu", "nan"),
    ])
    def test_invalid_numeric_option_is_one_error_line(self, tmp_path, capsys, option, value):
        # A seed past 64 bits once was reduced mod 2^64 (and could not be
        # written as a JSON integer), and --nu nan wrote "nu": NaN.  Each
        # option goes to a class that reads it.
        cls = {"--seed": ("unconstrained", "--nu", "1.5"), "--nu": ("unconstrained",),
               "--eps": ("sge-trap",), "--a": ("newton-cycle",)}[option]
        path = tmp_path / "x.json"
        assert run("generate", "--class", *cls, f"{option}={value}", "--out", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not path.exists()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert option in captured.err

    @pytest.mark.parametrize("cls, option", [
        (cls, option) for cls, (_build, reads) in cli.GENERATE_CLASSES.items()
        for option in cli.GENERATE_DEFAULTS if option not in reads])
    def test_option_the_class_does_not_read_is_refused(self, tmp_path, capsys, cls, option):
        # sge-trap once took --n 7 --seed 5 and wrote the 2 x 2 trap.
        path = tmp_path / "x.json"
        assert run("generate", *class_argv(cls), f"--{option}", SAMPLE_OPTIONS[option],
                   "--out", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not path.exists()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert f"--{option}" in captured.err and repr(cls) in captured.err

    def test_every_unread_option_is_named_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        assert run("generate", "--class", "sge-trap", "--n", "7", "--seed", "5", "--rhs",
                   "explicit", "--nu", "3", "--a", "2", "--out", str(path)) == 1
        err = capsys.readouterr().err
        assert err == "error: class 'sge-trap' does not read --n, --seed, --rhs, --a, --nu\n"
        assert not path.exists()

    def test_every_generator_class_is_reachable(self, tmp_path):
        # Each seeded class of problems is what some class of generate writes.
        refs = {g: pr.gen_class(g, 5, 3, nu=1.5) for g in pr.GENERATOR_CLASSES}
        reached = set()
        for cls in cli.GENERATE_CLASSES:
            path = tmp_path / f"{cls}.json"
            assert run("generate", *class_argv(cls), "--out", str(path)) == 0
            problem, _known, _meta = cli.load_problem(str(path))
            reached |= {g for g, a in refs.items() if np.array_equal(problem.a, a)}
        assert reached == set(pr.GENERATOR_CLASSES)

    @pytest.mark.parametrize("seed", [2 ** 64 - 1, -(2 ** 63)])
    def test_seed_range_ends_are_written(self, tmp_path, seed):
        path = tmp_path / "p.json"
        assert run("generate", "--class", "norm-lt-half", "--seed", str(seed),
                   "--out", str(path)) == 0
        assert read_json(str(path))["metadata"]["seed"] == seed

    @pytest.mark.parametrize("text, err", [
        ("Unable to allocate 74.5 GiB", "error: out of memory: Unable to allocate 74.5 GiB\n"),
        ("", "error: out of memory\n"),
    ])
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch, text, err):
        def allocate(eps, n):
            raise MemoryError(text)

        monkeypatch.setattr(pr, "inflated_identity", allocate)
        path = tmp_path / "x.json"
        assert run("generate", "--class", "inflated-identity", "--n", "100000",
                   "--out", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err
        assert not path.exists()

    def test_generation_failed_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        draw, _admissible = pr._CLASSES["norm_lt_half"]
        monkeypatch.setitem(pr._CLASSES, "norm_lt_half", (draw, lambda a: False))
        path = tmp_path / "x.json"
        assert run("generate", "--class", "norm-lt-half", "--n", "3", "--out", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no admissible 'norm_lt_half' matrix after 1000 attempts\n"
        assert not path.exists()

    def test_invalid_class_lists_valid_ones(self, tmp_path, capsys):
        assert run("generate", "--class", "bogus", "--out", str(tmp_path / "x.json")) == 1
        err = capsys.readouterr().err
        assert "sge-trap" in err and "norm-lt-half" in err

    def test_inflated_identity_payload(self, tmp_path):
        # The benchmark's degenerate instance: A = 1.1 I, b = -1.
        path = tmp_path / "inflated.json"
        assert run("generate", "--class", "inflated-identity", "--eps", "0.1", "--n", "3",
                   "--out", str(path)) == 0
        data = read_json(str(path))
        assert data["A"] == (1.1 * np.eye(3)).tolist()
        assert data["b"] == [-1.0, -1.0, -1.0]
        assert "known_solution" not in data

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
        data = {"n": 1, "A": [[0.0]], "b": [1.0], field: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data, indent=2))
        assert run("solve", str(path)) == 1
        assert f"'{field}'" in capsys.readouterr().err

    def test_bad_start_signature(self, trap_file, capsys):
        assert run("solve", trap_file, "--method", "newton", "--start", "+-+") == 1
        assert "length" in capsys.readouterr().err

    @pytest.mark.parametrize("start", ["plus", "minus"])
    def test_newton_constant_starts(self, trap_file, tmp_path, start):
        # Newton solves the trap from every starting signature.
        out = tmp_path / "report.json"
        assert run("solve", trap_file, "--method", "newton", "--start", start,
                   "--out", str(out)) == 0
        report = read_json(str(out))
        assert report["status"] == "converged"
        assert report["z"] == pytest.approx([0.005, 1.0], abs=1e-12)

    @pytest.mark.parametrize("option", [("--start", "plus"), ("--max-iter", "5")])
    @pytest.mark.parametrize("method", ["sge", "oracle"])
    def test_option_newton_alone_reads_is_refused(self, trap_file, tmp_path, capsys,
                                                   method, option):
        out = tmp_path / "report.json"
        assert run("solve", trap_file, "--method", method, *option, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: method '{method}' does not read {option[0]}\n"

    def test_unread_options_are_refused_before_loading(self, tmp_path, capsys):
        # The refusal comes before the input is read: the file does not exist.
        assert run("solve", str(tmp_path / "missing.json"), "--start", "+-+-",
                   "--max-iter", "1") == 1
        assert capsys.readouterr().err == "error: method 'sge' does not read --start, --max-iter\n"

    def test_newton_defaults(self, circulant_file, tmp_path):
        reports = []
        for options in ((), ("--start", "b", "--max-iter", str(cli.NEWTON_MAX_ITER))):
            out = tmp_path / "report.json"
            assert run("solve", circulant_file, "--method", "newton", *options,
                       "--out", str(out)) == 0
            reports.append({k: v for k, v in read_json(str(out)).items() if k != "timings_ms"})
        assert reports[0] == reports[1]

    def test_invalid_start_word(self, trap_file, capsys):
        assert run("solve", trap_file, "--method", "newton", "--start", "both") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "'both'" in captured.err


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

    @pytest.mark.parametrize("scale", [1e308])
    @pytest.mark.parametrize("rho", ["enum", "bisect", "both"])
    def test_overflowing_radii_are_an_error(self, tmp_path, capsys, scale, rho):
        # At 1e308 the row sums of |A| overflow, and the loader rejects A;
        # it once printed an invalid JSON Infinity with exit 0.
        a = scale * np.sign(np.random.default_rng(12).uniform(-1.0, 1.0, (12, 12)))
        path = write_problem(tmp_path / "p.json", pr.AveProblem(a, np.ones(12)))
        assert run("analyze", path, "--rho", rho) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "overflows" in errors[0]

    @pytest.mark.parametrize("a, radius", [
        ([[1e299]], 1e299),
        ([[1e300, 0.0], [0.0, 1.0]], 1e300),
        ([[9e307]], None),
        ([[9e307, 0.0], [0.0, 1.0]], None),
        ([[np.finfo(float).max]], None),
        (1e30 * np.random.default_rng(12).uniform(-1.0, 1.0, (12, 12)), None),
    ])
    @pytest.mark.parametrize("rho", ["enum", "bisect"])
    def test_top_of_the_float_range_ends_cleanly(self, tmp_path, a, radius, rho):
        # These once printed a traceback (enum: an inf step count), ran
        # until killed (bisect: the bracket [||A||_inf, inf]) or, where
        # 2||A||_inf or a char poly or minor of A overflows, gave an error.
        # Both radii run on 2^-e A, so each is finite and at most
        # ||A||_inf; radius is the known value where one is given.
        a = np.array(a)
        path = write_problem(tmp_path / "p.json", pr.AveProblem(a, np.ones(len(a))))
        done = cli_process("analyze", path, "--rho", rho, text=True)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        data = json.loads(done.stdout, parse_constant=lambda name: pytest.fail(name))
        got = data[f"rho_sr_{rho}"]
        assert math.isfinite(got) and got <= np.abs(a).sum(axis=1).max()
        if radius is not None:
            assert got == pytest.approx(radius, rel=1e-12)

    def test_overflowing_norm_is_one_error_line(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json",
                             pr.AveProblem(np.array([[1e308, 1e308], [0.0, 0.0]]), np.ones(2)))
        assert run("analyze", path, "--rho", "both") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("scale, n, seed", [(1e9, 6, 600), (1e30, 12, 12)])
    def test_scaled_file_gives_scaled_radii(self, tmp_path, scale, n, seed):
        # Both radii of scale B agree, are the scale times those of B, and
        # come from one pass of principal minors: rho_sr_bisect and
        # det_positive_all_signatures read those of the same 2^-e A.
        b = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
        radii = {}
        for name, a in (("unscaled", b), ("scaled", scale * b)):
            path = write_problem(tmp_path / f"{name}.json", pr.AveProblem(a, np.ones(n)))
            out = tmp_path / f"{name}-report.json"
            an._minors_of.cache_clear()
            assert run("analyze", path, "--rho", "both", "--out", str(out)) == 0
            assert an._minors_of.cache_info().misses == 1
            data = read_json(str(out))
            radii[name] = data["rho_sr_enum"], data["rho_sr_bisect"]
        enum, bisect = radii["scaled"]
        assert enum == pytest.approx(bisect, rel=1e-12)
        for got, unscaled in zip(radii["scaled"], radii["unscaled"]):
            assert got == pytest.approx(scale * unscaled, rel=1e-11)

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

    def test_stdout_is_the_json_report(self, capsys):
        assert run("compare", "--suite", "demo") == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["summary"]["sge_only"] == data["summary"]["newton_only"] == 1
        assert captured.err.splitlines()[0].split() == ["instance", "sge", "newton", "oracle"]
        assert "trap-eps-0.01" in captured.err and "summary: " in captured.err

    def test_random_suite(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert run("compare", "--suite", "random", "--out", str(out)) == 0
        data = read_json(str(out))
        assert len(data["instances"]) == 20
        assert data["summary"]["both"] == 20

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

    def test_match_is_relative_to_the_solution(self, tmp_path, trap_file):
        # SGE's wrong trap answer stays wrong at every scale of b: at
        # b 2^-20, z = (4.7e-9, 9.5e-7) once passed an absolute floor of
        # 1e-8.  Both answers on a guaranteed instance stay right.
        d = tmp_path / "instances"
        d.mkdir()
        trap, _known, _meta = cli.load_problem(trap_file)
        guaranteed = tmp_path / "g.json"
        run("generate", "--class", "norm-lt-half", "--n", "4", "--seed", "0",
            "--out", str(guaranteed))
        good, _known, _meta = cli.load_problem(str(guaranteed))
        for j in (0, 20, 40):
            write_problem(d / f"trap-{j}.json", pr.AveProblem(trap.a, np.ldexp(trap.b, -j)))
        write_problem(d / "good-40.json", pr.AveProblem(good.a, np.ldexp(good.b, -40)))
        out = tmp_path / "cmp.json"
        assert run("compare", "--dir", str(d), "--out", str(out)) == 0
        rows = {row["instance"]: row for row in read_json(str(out))["instances"]}
        for j in (0, 20, 40):
            assert not rows[f"trap-{j}.json"]["sge_ok"] and rows[f"trap-{j}.json"]["newton_ok"]
        assert rows["good-40.json"]["sge_ok"] and rows["good-40.json"]["newton_ok"]

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

    def test_newton_budget_is_bounded_above_the_enumeration_cap(self, tmp_path):
        # 2^n + 1 steps, which bound the walk up to the cap, were no bound
        # at n = 20; there Newton gets solve's default budget.
        d = tmp_path / "instances"
        d.mkdir()
        for n in (4, 20):
            assert run("generate", "--class", "norm-lt-half", "--n", str(n), "--seed", "1",
                       "--out", str(d / f"n{n:02d}.json")) == 0
        out = tmp_path / "cmp.json"
        assert run("compare", "--dir", str(d), "--out", str(out)) == 0
        small, large = read_json(str(out))["instances"]
        assert small["newton_budget"] == 2 ** 4 + 1
        assert large["newton_budget"] == cli.NEWTON_MAX_ITER == 100
        assert large["newton_status"] == "converged"

    def test_ascii_stdout_keeps_the_report(self, tmp_path):
        # The report is UTF-8 bytes whatever stdout's encoding; an ASCII
        # stdout once lost it to a UnicodeEncodeError on the file name.
        d = tmp_path / "instances"
        d.mkdir()
        assert run("generate", "--class", "norm-lt-half", "--n", "3",
                   "--out", str(d / "tré.json")) == 0
        done = cli_process("compare", "--dir", str(d), env={"PYTHONIOENCODING": "ascii"})
        assert done.returncode == 0, done.stderr
        report = orjson.loads(done.stdout)
        assert [row["instance"] for row in report["instances"]] == ["tré.json"]
        assert report["summary"]["both"] == 1


class TestOverflowingRowSums:
    """An A whose row sums of |A| overflow is rejected on loading: every
    command would otherwise print ||A||_inf as Infinity, which is not
    JSON, and exit 0, with a RuntimeWarning from numpy."""

    @staticmethod
    def assert_one_error_naming_a(capsys, path):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert path in captured.err and "field 'A'" in captured.err

    @pytest.mark.parametrize("method", ["sge", "newton", "oracle"])
    def test_solve(self, tmp_path, capsys, method):
        a = np.array([[1e308, 1e308], [0.0, 0.1]])
        path = write_problem(tmp_path / "p.json", pr.AveProblem(a, np.ones(2)))
        assert run("solve", path, "--method", method) == 1
        self.assert_one_error_naming_a(capsys, path)

    def test_analyze_above_the_enumeration_cap(self, tmp_path, capsys):
        signs = np.sign(np.random.default_rng(13).uniform(-1.0, 1.0, (13, 13)))
        path = write_problem(tmp_path / "p.json", pr.AveProblem(1e308 * signs, np.ones(13)))
        assert run("analyze", path) == 1
        self.assert_one_error_naming_a(capsys, path)

    def test_compare_skips_the_file(self, tmp_path):
        d = tmp_path / "instances"
        d.mkdir()
        write_problem(d / "huge.json", pr.AveProblem(np.array([[1e308, 1e308], [0.0, 0.1]]),
                                                     np.ones(2)))
        run("generate", "--class", "norm-lt-half", "--n", "3", "--seed", "0",
            "--out", str(d / "good.json"))
        out = tmp_path / "cmp.json"
        assert run("compare", "--dir", str(d), "--out", str(out)) == 0
        data = read_json(str(out))
        assert [r["instance"] for r in data["instances"]] == ["good.json"]
        (skipped,) = data["skipped"]
        assert skipped.startswith("huge.json: ") and "field 'A'" in skipped

    def test_largest_finite_row_sums_still_load(self, tmp_path):
        a = np.array([[1e308, -7e307], [0.0, 0.1]])
        path = write_problem(tmp_path / "p.json", pr.AveProblem(a, np.ones(2)))
        problem, _known, _meta = cli.load_problem(path)
        assert problem.a.tobytes() == a.tobytes()


class TestOverflowingDeterminants:
    """The oracle's determinants of I - AS overflow at ||A||_inf near
    1e150; the commands run without a warning on stderr, which holds
    nothing for ``solve`` and the table alone for ``compare``."""

    @pytest.fixture
    def huge(self, tmp_path):
        g = np.random.default_rng(3)
        problem = pr.AveProblem(1e150 * g.uniform(-1.0, 1.0, (6, 6)), g.uniform(-1.0, 1.0, 6))
        d = tmp_path / "instances"
        d.mkdir()
        return write_problem(d / "huge.json", problem)

    def test_solve_oracle(self, huge, capsys):
        assert run("solve", huge, "--method", "oracle") == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["status"] == "not_unique" and report["solution_count"] == 0

    def test_compare(self, huge, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        assert run("compare", "--dir", str(tmp_path / "instances"), "--out", str(out)) == 0
        table = capsys.readouterr().err.splitlines()
        assert [line.split()[0] for line in table] == ["instance", "-" * 61, "huge.json",
                                                         "summary:"]
        (row,) = read_json(str(out))["instances"]
        assert row["instance"] == "huge.json" and row["oracle"].startswith("found 0 solutions")


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
    # json.dump writes NaN, Infinity and integers past 64 bits, which the
    # writer does not.
    data = {"n": 2, "A": [[0.0, 0.0], [0.0, 0.0]], "b": [1.0, 1.0], field: value}
    path = tmp_path_factory.mktemp("fuzz") / "p.json"
    path.write_text(json.dumps(data, indent=2))
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
        with np.errstate(over="ignore"):
            if name == "A" and not np.isfinite(np.abs(value).sum(axis=1)).all():
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
@given(text=problem_texts(), chunk=st.sampled_from([1, 2, 5, cli._CHUNK]))
def test_loader_matches_json_load(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("load") / "p.json"
    path.write_text(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CHUNK", chunk)
        assert_loads_as_reference(str(path))


EDGE_TEXTS = [
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
    # Rows orjson rejects, which send the file to json.load: alone they
    # fail, and under a later "A" the file is valid.
    '{"n": 2, "A": [[0.5, NaN], [0, 0]], "b": [1, 2]}',
    '{"n": 2, "A": [[0.5, -Infinity], [Infinity, 0]], "b": [1, 2]}',
    '{"n": 2, "A": [[0.5, 1e400], [0, 0]], "b": [1, 2]}',
    '{"n": 1, "A": [[1.7976931348623159e308]], "b": [1]}',
    '{"n": 1, "A": [[' + "9" * 400 + ']], "b": [1]}',
    '{"n": 1, "A": [["]"]], "b": [1]}',
    '{"n": 2, "A": [[[1], 2], [0, 0]], "b": [1, 2]}',
    '{"n": 1, "A": [["\\ud800"]], "b": [1]}',
    '{"n": 1, "A": [[NaN]], "b": [1], "A": [[0.25]]}',
    '{"n": 1, "A": [[1e400]], "b": [1], "A": [[0.25]]}',
    '{"n": 1, "A": [[' + "9" * 400 + ']], "b": [1], "A": [[0.25]]}',
    '{"n": 1, "A": [["]", 1]], "b": [1], "A": [[0.25]]}',
    '{"n": 1, "A": [[[1], 2]], "b": [1], "A": [[0.25]]}',
    '{"n": 1, "A": [["\\ud800"]], "b": [1], "A": [[0.25]]}',
    # Rows orjson accepts but whose entries do not convert.
    '{"n": 1, "A": [[{"x": 1.0}]], "b": [1]}',
    '{"n": 1, "A": [[{"x": 1.0}]], "b": [1], "A": [[0.25]]}',
    # Rows orjson reads, with the doubles json.load and np.asarray give.
    '{"n": 2, "A": [[18446744073709551616, -18446744073709551617], '
    '[9223372036854775808, 123456789012345678901234567890]], "b": [1, 2]}',
    '{"n": 1, "A": [[' + str(int(sys.float_info.max)) + ']], "b": [1]}',
    '{"n": 1, "A": [[' + str(int(sys.float_info.max) + 2 ** 969) + ']], "b": [1]}',
    '{"n": 2, "A": [["1.5", 0], [0, " -2e-3 "]], "b": [1, 2]}',
    '{"n": 2, "A": [[-0, -0.0], [2.4703282292062328e-324, 2.4703282292062327e-324]], '
    '"b": [1, 2]}',
    '{"n": 2, "A": [[1.7976931348623158e308, 0], [-4.9406564584124654e-324, 1e-400]], '
    '"b": [1, 2]}',
    # Rows orjson reads whose values are null, bools and an integer past
    # 64 bits.
    '{"n": 1, "A": [[null]], "b": [1]}',
    '{"n": 2, "A": [[true, false], [false, true]], "b": [1, 2]}',
    '{"n": 2, "A": [[1, 18446744073709551616], [0, 1]], "b": [1, 2]}',
]


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_loader_matches_json_load_on_edge_texts(tmp_path, text):
    path = tmp_path / "p.json"
    path.write_text(text, encoding="utf-8")
    assert_loads_as_reference(str(path))


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_loader_reads_edge_texts_in_any_pieces(tmp_path, monkeypatch, chunk):
    # Every value, row and run of whitespace falls across reads somewhere.
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    for i, text in enumerate(EDGE_TEXTS):
        path = tmp_path / f"p{i}.json"
        path.write_text(text, encoding="utf-8")
        assert_loads_as_reference(str(path))


@pytest.mark.parametrize("chunk", [1, 64, 1000])
def test_loader_reads_a_written_problem_in_pieces(tmp_path, monkeypatch, chunk):
    problem, z = pr.random_instance("norm_lt_half", 40, 3)
    path = tmp_path / "p.json"
    cli._write_json(cli.problem_to_dict(problem, z, {"class": "norm-lt-half"}), str(path))
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    assert_loads_as_reference(str(path))


def test_loader_error_names_the_position_in_the_file(tmp_path, monkeypatch):
    # The missing comma lies many reads into the file.
    monkeypatch.setattr(cli, "_CHUNK", 16)
    rows = ", ".join(["[0.5, 0.25]"] * 200)
    text = f'{{"n": 2, "b": [1, 2], "A": [{rows} [0.5, 0.25]]}}'
    path = tmp_path / "p.json"
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    with pytest.raises(cli.CliError, match=re.escape(str(want.value))):
        cli.load_problem(str(path))


def hard_decimals(rng, count):
    """Decimal texts that need every digit to round right: random-bit
    doubles below 2^977 (subnormals included) as their repr, and the exact
    halfway point between each and the next double, bare and nudged by
    one unit in its last place each way."""
    exponents = rng.integers(0, 2000, count, dtype=np.uint64)
    exponents[::8] = 0  # subnormals and signed zeros
    bits = (rng.integers(0, 2, count, dtype=np.uint64) << np.uint64(63)
            | exponents << np.uint64(52) | rng.integers(0, 2 ** 52, count, dtype=np.uint64))
    texts = []
    with decimal.localcontext(decimal.Context(prec=1200)):
        for x in bits.view(np.float64).tolist():
            half = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
            ulp = decimal.Decimal((0, (1,), half.as_tuple().exponent))
            texts += [repr(x), str(half), str(half - ulp), str(half + ulp)]
    return texts


def test_loader_is_bitwise_on_rows_of_hard_decimals(tmp_path):
    n = 45
    texts = hard_decimals(np.random.default_rng(28), 507)[:n * n]
    rows = ", ".join("[" + ", ".join(texts[i:i + n]) + "]" for i in range(0, n * n, n))
    path = tmp_path / "p.json"
    path.write_text(f'{{"n": {n}, "A": [{rows}], "b": [{", ".join(["1"] * n)}]}}')
    a = reference_load(str(path))[0]
    assert np.count_nonzero(a) > n * n // 2 and np.count_nonzero(np.abs(a) < 2.3e-308) > n
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


def reaches_json_load(path):
    """Whether ``cli.load_problem(path)``, which must load as
    ``reference_load`` does, reads the file with ``json.load``."""
    assert_loads_as_reference(path)
    calls = []
    real_load = json.load
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli.json, "load", lambda handle: calls.append(1) or real_load(handle))
        try:
            cli.load_problem(path)
        except cli.CliError:
            pass
    return bool(calls)


@pytest.mark.parametrize("cls, n", [
    (cls, n) for cls in ("norm-lt-half", "irreducible-half", "sdd-two-thirds", "tridiag")
    for n in (40, 150)] + [("sdd-two-thirds", 1000)])
def test_generated_files_never_reach_json_load(tmp_path, cls, n):
    # json.load would build the nested list of A that the row reader avoids.
    path = tmp_path / "p.json"
    assert run("generate", "--class", cls, "--n", str(n), "--seed", "21", "--out", str(path)) == 0
    assert not reaches_json_load(str(path))


@pytest.mark.parametrize("text", [
    '{"n": 2, "A": [["1.5", 0], [0, 1]], "b": [1, 2]}',
    '{"n": 2, "A": [null, [0, 1]], "b": [1, 2]}',
    '[{"n": 1, "A": [[0.5]], "b": [1]}]',
    '{"n": 1, "A": [[0.5]] "b": [1]}',
])
def test_other_texts_reach_json_load(tmp_path, text):
    path = tmp_path / "p.json"
    path.write_text(text)
    assert reaches_json_load(str(path))


def feed_pipe(path, text):
    """Make a named pipe at ``path`` and a started thread that writes
    ``text`` into it."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,))
    writer.start()
    return writer


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_loader_reads_a_pipe_as_json_load(tmp_path):
    problem, z = pr.random_instance("irreducible_half", 40, 3)
    file = tmp_path / "p.json"
    cli._write_json(cli.problem_to_dict(problem, z, {"class": "irreducible-half"}), str(file))
    a, b, known, metadata = reference_load(str(file))
    writer = feed_pipe(tmp_path / "pipe", file.read_text())
    got, got_known, got_metadata = cli.load_problem(str(tmp_path / "pipe"))
    writer.join(timeout=10)
    assert not writer.is_alive()
    for got_value, want in ((got.a, a), (got.b, b), (got_known, known)):
        assert got_value.dtype == want.dtype and got_value.tobytes() == want.tobytes()
    assert got_metadata == metadata


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_pipe_error_names_the_position_in_the_text(tmp_path, monkeypatch):
    # The missing comma lies many window reads into the text.
    monkeypatch.setattr(cli, "_CHUNK", 16)
    rows = ", ".join(["[0.5, 0.25]"] * 200)
    text = f'{{"n": 2, "b": [1, 2], "A": [{rows} [0.5, 0.25]]}}'
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    writer = feed_pipe(tmp_path / "pipe", text)
    with pytest.raises(cli.CliError, match=re.escape(str(want.value))):
        cli.load_problem(str(tmp_path / "pipe"))
    writer.join(timeout=10)
    assert not writer.is_alive()


SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1e-6, 1e-5, 1e16, 1e300])
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | SPECIAL_FLOATS
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-(2 ** 63), 2 ** 64 - 1) | FINITE_FLOATS
               | st.text(max_size=6))
JSON_DATA = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=5)
    | st.lists(FINITE_FLOATS, max_size=6)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=30,
)


def written_text(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("write") / "out.json"
    cli._write_json(data, str(path))
    return path.read_bytes().decode("utf-8")


def redumped(text):
    """``json.dumps(..., indent=2)`` of the value ``text`` holds, which is
    ``json.dumps``'s text of the written value exactly when every float
    read back bitwise, -0.0 included."""
    return json.dumps(json.loads(text), indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(data=JSON_DATA)
def test_write_json_is_json_dump_text(tmp_path_factory, data):
    # Read back, the text is the value written: str keys, 64-bit integers,
    # any text and every finite double.
    got = written_text(tmp_path_factory, data)
    assert json.loads(got) == data
    assert redumped(got) == json.dumps(data, indent=2) + "\n"


def as_read_back(arr):
    """``arr.tolist()`` with each non-finite value as None."""
    return np.where(np.isfinite(arr), arr, None).tolist()


@settings(max_examples=100, deadline=None)
@given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
                      elements=st.floats() | SPECIAL_FLOATS | NON_FINITE))
def test_write_json_writes_arrays_as_their_lists(tmp_path_factory, arr):
    got = written_text(tmp_path_factory, {"A": arr, "n": 1})
    assert redumped(got) == json.dumps({"A": as_read_back(arr), "n": 1}, indent=2) + "\n"


def test_write_json_is_json_dump_text_on_reports(tmp_path_factory):
    # An n = 1000 SGE report holds its trace as n flat dicts, and a
    # compare report its rows as flat dicts.
    g = np.random.default_rng(17)
    problem = pr.AveProblem(np.diag(g.uniform(-0.4, 0.4, 1000)), g.uniform(-1.0, 1.0, 1000))
    report = cli._report_dict(cli.sge.sge_solve(problem), 1.5)
    assert len(report["trace"]) == 999
    rows = [cli._compare_one(*case) for case in cli._demo_suite() + cli._random_suite()[:4]]
    for data in (report, {"instances": rows, "summary": {"both": 1}, "skipped": []}):
        assert redumped(written_text(tmp_path_factory, data)) == json.dumps(data, indent=2) + "\n"


def test_non_finite_floats_are_written_as_null(tmp_path_factory):
    got = written_text(tmp_path_factory, {"residual": math.inf, "z": [math.nan, -math.inf]})
    assert orjson.loads(got) == {"residual": None, "z": [None, None]}


@pytest.mark.parametrize("argv", [
    *[("generate", *class_argv(cls)) for cls in cli.GENERATE_CLASSES],
    *[("solve", "{problem}", "--method", method) for method in ("sge", "newton", "oracle")],
    ("analyze", "{problem}"),
    ("compare", "--suite", "demo"),
])
def test_every_output_is_strict_json(tmp_path, capsys, argv):
    # orjson.loads accepts no NaN, Infinity or other extension of JSON.
    problem = tmp_path / "p.json"
    assert run("generate", "--class", "sge-trap", "--out", str(problem)) == 0
    argv = [arg.format(problem=problem) for arg in argv]
    assert run(*argv) == 0
    stdout = capsys.readouterr().out
    orjson.loads(stdout)
    out = tmp_path / "out.json"
    assert run(*argv, "--out", str(out)) == 0
    orjson.loads(out.read_bytes())
    if argv[0] == "generate":
        assert out.read_bytes() == stdout.encode()


def float_sweep():
    """200 K finite doubles of random sign and mantissa over every binary
    exponent, then each place where orjson's layout of a double changes
    or ends, as its own case: +-3 ulps around 1e-5, 1e-4, 1e16 and 2^53,
    the largest doubles, the smallest subnormals and +-0.0."""
    g = np.random.default_rng(11)
    count = 200_000
    exponent = np.arange(count, dtype=np.uint64) % np.uint64(2047)
    bits = ((g.integers(0, 2, count, dtype=np.uint64) << np.uint64(63))
            | (exponent << np.uint64(52))
            | g.integers(0, 1 << 52, count, dtype=np.uint64))
    cases = [bits.view(np.float64)]
    for center in (1e-5, 1e-4, 1e16, 2.0 ** 53):
        near = (np.array([center]).view(np.int64) + np.arange(-3, 4)).view(np.float64)
        cases.append(np.concatenate([near, -near]))
    for ends in (np.arange(1, 5), np.array([np.finfo(float).max]).view(np.int64) - np.arange(4)):
        near = ends.view(np.float64)
        cases.append(np.concatenate([near, -near]))
    cases.append(np.array([0.0, -0.0]))
    return cases


SWEEP_FORMS = {
    "list": lambda values: values.tolist(),
    "array": lambda values: values,
    "c_matrix": lambda values: {"A": values.reshape(2, -1)},
}


@functools.lru_cache(maxsize=2)
def sweep_want(matrix: bool) -> list[str]:
    """``json.dumps(..., indent=2)`` of each case of ``float_sweep``, as a
    flat list or as a two-row matrix under "A"."""
    return [json.dumps({"A": values.reshape(2, -1).tolist()} if matrix else values.tolist(),
                       indent=2) + "\n"
            for values in float_sweep()]


def first_difference(got: str, want: str):
    """None when the texts are equal, else their first differing lines:
    a failure message pytest can print without diffing megabytes."""
    if got == want:
        return None
    got, want = got.splitlines(), want.splitlines()
    i = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
             min(len(got), len(want)))
    return i, got[i:i + 1], want[i:i + 1]


@pytest.mark.parametrize("form", SWEEP_FORMS)
def test_float_text_is_json_dump_text_on_a_sweep_of_doubles(tmp_path_factory, form):
    # Every double reads back bitwise through json.loads; the rows of the
    # matrix do too through the row reader load_problem uses on a regular
    # file (load_problem itself rejects a 2-row A and the rows whose
    # absolute sums overflow).
    for values, want in zip(float_sweep(), sweep_want(form == "c_matrix")):
        assert np.isfinite(values).all()
        got = written_text(tmp_path_factory, SWEEP_FORMS[form](values))
        assert first_difference(redumped(got), want) is None
        if form == "c_matrix":
            rows = cli._parse_problem(cli._Window(io.StringIO(got).read))["A"]
            assert np.array(rows).tobytes() == values.tobytes()

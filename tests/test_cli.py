"""File format, CLI subcommands, report schemas, exit codes."""

import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hgspec import (CertificateError, Hypergraph, ParseError, SolverConfig,
                    complete_uniform, emit_hypergraph, hypertree_ball,
                    lambda2_estimate, parse_hypergraph, random_regular_linear,
                    shifted_form, threshold)
from hgspec import cli
from hgspec.cli import run_command
from hgspec.reports import SWEEP_COLUMNS, dumps_json, emit_sweep_csv

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(argv):
    out = io.StringIO()
    code = run_command(argv, out=out)
    return code, out.getvalue()


class TestEdgeListFormat:
    def test_single_edge(self):
        h = parse_hypergraph("3 3 1\n0 1 2\n")
        assert (h.t, h.n, h.m) == (3, 3, 1)
        assert h.edges == ((0, 1, 2),)

    def test_comments_and_blanks(self):
        text = "# a comment\n\n2 4 2\n0 1\n# interior comment\n2 3\n"
        h = parse_hypergraph(text)
        assert h.m == 2

    def test_header_body_mismatch(self):
        with pytest.raises(ParseError):
            parse_hypergraph("3 3 2\n0 1 2\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_hypergraph("2 4 2\n0 1\n0 9\n")
        assert err.value.line == 3

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_hypergraph("2 3 2\n0 1\n1 0\n")

    def test_round_trip_canonicalizes(self):
        text = "# scrambled\n3 5 2\n4 2 0\n3 1 2\n"
        h = parse_hypergraph(text)
        emitted = emit_hypergraph(h)
        assert emitted == "3 5 2\n0 2 4\n1 2 3\n"
        assert emit_hypergraph(parse_hypergraph(emitted)) == emitted

    def test_isolated_vertices_preserved(self):
        h = parse_hypergraph("2 6 1\n0 1\n")
        assert h.n == 6


def reference_emit(h):
    """The earlier emitter, verbatim: one join per edge line."""
    lines = [f"{h.t} {h.n} {h.m}"]
    lines.extend(" ".join(map(str, edge)) for edge in h.edge_array.tolist())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("h", [
    *(random_regular_linear(t, 3, 20 * t, t) for t in range(2, 7)),
    Hypergraph(5, 3, []), complete_uniform(7, 3), hypertree_ball(3, 3, 5),
    hypertree_ball(6, 2, 3)])
def test_emit_matches_join_reference(h):
    assert emit_hypergraph(h) == reference_emit(h)


def load_bench_refgen():
    """``bench/refgen.py``, the benchmark's own restatement of the sampler."""
    path = Path(__file__).resolve().parents[1] / "bench" / "refgen.py"
    spec = importlib.util.spec_from_file_location("refgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("t,k,n,seed", [
    (2, 3, 3000, 0), (2, 4, 1000, 6), (3, 3, 3000, 1), (3, 2, 999, 4),
    (3, 3, 300, 9), (4, 3, 2000, 2), (4, 4, 1000, 11)])
def test_gen_matches_bench_oracle(t, k, n, seed):
    # the benchmark rejects any gen output that differs from this text
    code, text = run(["gen", "random-regular", "--t", str(t), "--k", str(k),
                      "--n", str(n), "--seed", str(seed)])
    assert code == 0
    assert text == load_bench_refgen().random_regular_text(t, k, n, seed)


class TestJsonAndCsvEmission:
    def test_floats_17g(self):
        text = dumps_json({"x": 2.381101577952299, "n": 3, "flag": True,
                           "none": None})
        assert '"x": 2.381101577952299' in text
        assert '"n": 3' in text
        assert '"flag": true' in text

    def test_empty_sweep_is_header_only(self):
        assert emit_sweep_csv([]) == ",".join(SWEEP_COLUMNS) + "\n"

    def test_one_row_two_lines(self):
        rows = [{"family": "hypertree", "t": 3, "k": 3, "param": 1, "n": 7,
                 "m": 3, "rho": 1.5, "threshold": 2.0, "gap": 0.5,
                 "lambda2_cert": None, "seconds": 0}]
        text = emit_sweep_csv(rows)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1] == "hypertree,3,3,1,7,3,1.5,2,0.5,,0"


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "h.txt"
    code, _ = run(["gen", "random-regular", "--t", "3", "--k", "3",
                   "--n", "30", "--seed", "7", "-o", str(path)])
    assert code == 0
    return str(path)


class TestCommands:
    def test_radius_report_schema(self, instance_file):
        code, text = run(["radius", instance_file])
        assert code == 0
        report = json.loads(text)
        assert set(report) == {"input", "t", "n", "m", "regular_k", "rho",
                               "lambda2_estimate", "threshold",
                               "certificates", "solver",
                               "wall_time_seconds"}
        assert report["rho"] == pytest.approx(3.0, abs=1e-9)
        assert report["regular_k"] == 3
        assert report["threshold"] == pytest.approx(threshold(3, 3))
        assert report["wall_time_seconds"] is None
        assert report["solver"]["seed"] == 0

    def test_lambda2_report(self, instance_file):
        code, text = run(["lambda2", instance_file, "--restarts", "8"])
        assert code == 0
        report = json.loads(text)
        assert report["lambda2_estimate"] > 0
        assert report["solver"]["restarts"] == 8

    def test_bounds_command(self):
        code, text = run(["bounds", "--t", "3", "--k", "3"])
        assert code == 0
        payload = json.loads(text)
        assert payload["threshold"] == pytest.approx(payload["friedman_alternate"])
        assert payload["g_monotone"]["ok"] is True

    def test_verify_radial_pass(self, instance_file):
        code, text = run(["verify", instance_file, "--check", "radial"])
        assert code == 0
        assert json.loads(text)["passed"] is True

    def test_verify_g_monotone(self, instance_file):
        code, text = run(["verify", instance_file, "--check", "g-monotone"])
        assert code == 0

    def test_verify_acyclic_bound(self, tmp_path):
        path = tmp_path / "ball.txt"
        path.write_text(emit_hypergraph(hypertree_ball(3, 3, 3)))
        code, text = run(["verify", str(path), "--check", "acyclic-bound"])
        assert code == 0
        payload = json.loads(text)
        assert payload["gap"] >= -1e-8

    def test_verify_acyclic_bound_rejects_cyclic(self, instance_file):
        code, text = run(["verify", instance_file, "--check", "acyclic-bound"])
        assert code == 1

    def test_verify_alon_boppana_on_cycle(self, tmp_path):
        path = tmp_path / "c24.txt"
        h = Hypergraph(24, 2, [(i, (i + 1) % 24) for i in range(24)])
        path.write_text(emit_hypergraph(h))
        code, text = run(["verify", str(path), "--check", "alon-boppana"])
        assert code == 0
        payload = json.loads(text)
        assert payload["certificate"]["quotient"] <= payload["lambda2_estimate"]

    def test_verify_mu_on_ball(self, tmp_path):
        path = tmp_path / "ball4.txt"
        path.write_text(emit_hypergraph(hypertree_ball(3, 3, 4)))
        code, text = run(["verify", str(path), "--check", "mu", "--j", "1",
                          "--k", "3"])
        assert code == 0
        payload = json.loads(text)
        assert payload["certificate"]["quotient"] <= payload["rho"] + 1e-8

    def test_gen_hypertree_to_stdout(self):
        code, text = run(["gen", "hypertree", "--t", "3", "--k", "3",
                          "--radius", "1"])
        assert code == 0
        assert text.startswith("3 7 3\n")

    def test_gen_complete(self, tmp_path):
        path = tmp_path / "k4.txt"
        code, text = run(["gen", "complete", "--t", "2", "--n", "4",
                          "-o", str(path)])
        assert code == 0
        assert json.loads(text)["m"] == 6

    def test_radius_on_complete_3_uniform(self, tmp_path):
        # 3-regular, so the largest eigenvalue is 3
        path = tmp_path / "k4_3.txt"
        run(["gen", "complete", "--t", "3", "--n", "4", "-o", str(path)])
        code, text = run(["radius", str(path), "--tol", "1e-10"])
        assert code == 0
        assert json.loads(text)["rho"] == pytest.approx(3.0, abs=1e-9)

    def test_sweep_hypertree_schema_and_gap(self):
        code, text = run(["sweep", "hypertree", "--t", "3", "--k", "3",
                          "--radii", "1:3"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 4
        for line in lines[1:]:
            fields = dict(zip(SWEEP_COLUMNS, line.split(",")))
            assert float(fields["gap"]) >= -1e-8
            assert fields["seconds"] == "0"

    def test_exit_2_on_parse_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 3 2\n0 1 2\n")
        code, _ = run(["radius", str(bad)])
        assert code == 2

    def test_exit_2_on_usage_error(self):
        code, _ = run(["nonsense"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "F", "--check", "radial", "--timings"],
        ["gen", "hypertree", "--t", "3", "--k", "3", "--radius", "2",
         "--seed", "1"],
        ["gen", "complete", "--t", "3", "--n", "5", "--seed", "1"]],
        ids=["verify-timings", "hypertree-seed", "complete-seed"])
    def test_exit_2_on_a_flag_the_command_never_reads(self, argv, capsys):
        # no check emits a time, and neither generator draws
        code, text = run(argv)
        assert (code, text) == (2, "")
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_exit_1_on_construction_failure(self, tmp_path):
        path = tmp_path / "k43.txt"
        path.write_text(emit_hypergraph(Hypergraph(4, 3, [(0, 1, 2),
                                                          (0, 1, 3),
                                                          (0, 2, 3),
                                                          (1, 2, 3)])))
        code, _ = run(["verify", str(path), "--check", "alon-boppana"])
        assert code == 1

    def test_huge_t_gives_a_finite_estimate(self, tmp_path):
        # one edge of t = 400 vertices: n^t = 400^400 is beyond the
        # largest double, and the J term t m (sum x / n)^t never forms it;
        # the product of a random start underflows to 0, and the run
        # starts again from its signs at equal magnitudes
        path = tmp_path / "edge400.txt"
        path.write_text("400 400 1\n" + " ".join(map(str, range(400)))
                        + "\n")
        code, text = run(["lambda2", str(path), "--restarts", "1"])
        assert code == 0
        value = json.loads(text)["lambda2_estimate"]
        assert math.isfinite(value) and value > 0
        h = parse_hypergraph(path.read_text())
        res = lambda2_estimate(h, SolverConfig(restarts=1))
        assert res.value == value == abs(shifted_form(h, res.vector))


    def test_exit_1_on_oversized_random_regular(self, capsys):
        # 10^8 vertices exceed the size cap before any stub is made
        code, text = run(["gen", "random-regular", "--t", "3", "--k", "3",
                          "--n", "100000000"])
        assert (code, text) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("hgspec: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["hypertree", "--t", "2000001", "--k", "1", "--radius", "0"],
        ["complete", "--t", "2000001", "--n", "2000001"],
        ["complete", "--t", "20000", "--n", "40000"],
        ["complete", "--t", "1000000", "--n", "2000000"]],
        ids=["hypertree-t", "complete-t-n", "complete-m", "complete-m-huge"])
    def test_exit_1_at_once_above_the_size_cap(self, argv, tmp_path, capsys):
        # t, n or C(n, t) above the cap, refused before anything is built
        path = tmp_path / "out.txt"
        start = time.perf_counter()
        code, text = run(["gen", *argv, "-o", str(path)])
        assert time.perf_counter() - start < 1
        assert (code, text) == (1, "")
        assert not path.exists()
        err = capsys.readouterr().err
        assert err.startswith("hgspec: ") and err.count("\n") == 1
        assert err.endswith(" above the size cap 2000000\n")

    def test_exit_1_at_once_on_infeasible_random_regular(self, capsys):
        # no linear 2-regular 3-uniform instance has fewer than 5 vertices
        start = time.perf_counter()
        code, text = run(["gen", "random-regular", "--t", "3", "--k", "2",
                          "--n", "3"])
        assert time.perf_counter() - start < 1
        assert (code, text) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("hgspec: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["gen", "sweep"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_exit_1_on_max_attempts_below_one(self, capsys, command, value):
        size = ["--n", "30"] if command == "gen" else ["--ns", "30:30"]
        code, text = run([command, "random-regular", "--t", "3", "--k", "3",
                          *size, "--max-attempts", value])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == \
            f"hgspec: max_attempts must be an integer >= 1, got {value}\n"

    def test_verify_alon_boppana_on_rr2000_t4(self, tmp_path):
        path = tmp_path / "rr2000_t4.txt"
        path.write_text(emit_hypergraph(random_regular_linear(4, 3, 2000, 0)))
        code, text = run(["verify", str(path), "--check", "alon-boppana"])
        payload = json.loads(text)
        assert payload["lambda2_estimate"] >= \
            payload["certificate"]["quotient"] - 1e-6
        assert code == 0


    def test_multiplicative_range(self):
        code, text = run(["sweep", "hypertree", "--t", "3", "--k", "3",
                          "--radii", "1:4:*2"])
        assert code == 0
        rows = [dict(zip(SWEEP_COLUMNS, line.split(",")))
                for line in text.splitlines()[1:]]
        assert [row["param"] for row in rows] == ["1", "2", "4"]

    def test_exit_1_on_a_certificate_fault_in_a_sweep(self, monkeypatch,
                                                      capsys):
        def faulty(h, k=None):
            raise CertificateError("quotient below its floor")

        monkeypatch.setattr(cli, "multi_center_vector", faulty)
        code, text = run(["sweep", "hypertree", "--t", "3", "--k", "3",
                          "--radii", "5:5"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == \
            "hgspec: quotient below its floor\n"

    @pytest.mark.parametrize("spec", ["1:2:*1", "0:4:*2", "-1:4:*2"])
    def test_exit_1_on_multiplicative_range_that_never_ends(self, spec):
        # a child process with its address space capped, so that a range
        # that never ends fails fast instead of filling the host's memory
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
                "from hgspec.cli import main\n"
                "sys.argv = ['hgspec'] + sys.argv[1:]\n"
                "main()\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code, "sweep", "hypertree", "--t", "3",
             "--k", "3", f"--radii={spec}"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"hgspec: bad range {spec!r}; A:B:*S needs " \
            "A >= 1 and S >= 2\n"

    @pytest.mark.parametrize("spec, reason", [
        ("1:3:0", "A:B:S needs S != 0"),
        ("a:b", "A, B and S must be integers"),
        ("1:x", "A, B and S must be integers"),
        ("1:3:s", "A, B and S must be integers"),
        ("1:8:*", "A, B and S must be integers"),
        ("1:8:*x", "A, B and S must be integers"),
    ])
    def test_exit_1_on_range_with_bad_step_or_bound(self, spec, reason,
                                                   capsys):
        code, text = run(["sweep", "hypertree", "--t", "3", "--k", "3",
                          f"--radii={spec}"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == \
            f"hgspec: bad range {spec!r}; {reason}\n"


class TestDeterminism:
    def test_env_seed_matches_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HGSPEC_SEED", "99")
        _, via_env = run(["gen", "random-regular", "--t", "3", "--k", "3",
                          "--n", "18"])
        monkeypatch.delenv("HGSPEC_SEED")
        _, via_flag = run(["gen", "random-regular", "--t", "3", "--k", "3",
                           "--n", "18", "--seed", "99"])
        assert via_env == via_flag

    @pytest.mark.parametrize("family", [
        ["hypertree", "--t", "3", "--k", "3", "--radius", "1"],
        ["complete", "--t", "3", "--n", "5"]], ids=["hypertree", "complete"])
    def test_families_that_draw_nothing_ignore_env_seed(self, monkeypatch,
                                                        family):
        monkeypatch.setenv("HGSPEC_SEED", "abc")
        with_env = run(["gen", *family])
        monkeypatch.delenv("HGSPEC_SEED")
        assert with_env == run(["gen", *family])
        assert with_env[0] == 0

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("HGSPEC_SEED", "5")
        _, a = run(["gen", "random-regular", "--t", "3", "--k", "3",
                    "--n", "18", "--seed", "7"])
        monkeypatch.delenv("HGSPEC_SEED")
        _, b = run(["gen", "random-regular", "--t", "3", "--k", "3",
                    "--n", "18", "--seed", "7"])
        assert a == b

    def test_timings_flag_breaks_nothing_but_fills_field(self, instance_file):
        code, text = run(["radius", instance_file, "--timings"])
        assert code == 0
        assert json.loads(text)["wall_time_seconds"] is not None

    def test_timings_flag_fills_the_sweep_seconds(self):
        code, text = run(["sweep", "hypertree", "--t", "3", "--k", "3",
                          "--radii", "2:2", "--timings"])
        assert code == 0
        row = dict(zip(SWEEP_COLUMNS, text.splitlines()[1].split(",")))
        assert float(row["seconds"]) > 0

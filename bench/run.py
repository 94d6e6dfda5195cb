#!/usr/bin/env python3
"""hgspec benchmark: named CLI workloads timed end to end, and a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload regular-certify --seed 3 --seconds 34 --trace 0

``--workload`` is one of the names in WORKLOADS, or ``all`` to run
every workload one after another in this process.  Each workload is a
fixed list of ``hgspec`` command lines built from ``--seed``; they run
in-process through ``hgspec.cli.run_command``, the same entry point as
the ``hgspec`` script: one warm-up pass, then passes repeated for about
``--seconds`` in all.  Every command of every pass goes through the
correctness gate.

``--trace 0`` reports the end-to-end metrics (medians over the passes
after the warm-up).
``--trace 1`` alternates untraced passes with passes in which the public
functions of each hgspec layer are wrapped from outside (bench/spans.py),
and reports per-layer metrics; their difference in wall time is the
tracing overhead.  A human-readable table goes to standard output first;
the last line is one JSON object with the keys correct, attempted,
failed and metrics.  Why each workload exists is written in
bench/NOTES.md.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Set before numpy is first imported (just below), so that no BLAS pool
# starts more threads than the one the workloads use.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import refgen  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: the metric names and units this script must report
SPEC = ROOT / "BENCHMARK.json"

#: hgspec modules whose public functions the traced run wraps
LAYERS = ["cli", "io", "hypergraph", "generators", "forms", "eigensolver",
          "constructions", "reports"]
#: per-element helpers called inside solver loops; left unwrapped so
#: their time stays with the caller
UNTRACED = {"t_norm", "t_norm_pow", "as_vector", "format_float"}
TRACED_METHODS = {"hypergraph": [("Hypergraph", "__init__")],
                  "reports": [("SpectralReport", "to_json")]}

#: repetitions of one apply / form call in the forms kernel probe
PROBE_REPEATS = 31
#: fresh interpreters started to time the import of hgspec.cli
SETUP_REPEATS = 7

T, K = 3, 3
#: the hypertree sweep's largest radius
SWEEP_RADIUS = 8
#: the solver seed of every hypertree sweep, whatever the benchmark's seed
SWEEP_SOLVER_SEED = 0


class GateFailure(Exception):
    """A command's output failed the benchmark's correctness gate."""


def threshold(t: int, k: int) -> float:
    """rho(t, k) = (t/(t-1)) ((t-1)(k-1))^(1/t), computed independently."""
    return t / (t - 1) * ((t - 1) * (k - 1)) ** (1.0 / t)


# ---------------------------------------------------------------- gates

def _json(out: str) -> dict:
    try:
        return json.loads(out)
    except ValueError as exc:
        raise GateFailure(f"stdout is not JSON: {exc}")


def _finite_positive(value, what: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value) \
            or value <= 0:
        raise GateFailure(f"{what} = {value!r} is not finite and positive")
    return float(value)


def gate_gen(path: Path, expected_sha: str) -> Callable[[str], dict]:
    def check(out: str) -> dict:
        reported = _json(out).get("sha256")
        on_disk = hashlib.sha256(path.read_bytes()).hexdigest()
        if reported != expected_sha or on_disk != expected_sha:
            raise GateFailure(f"gen sha256 {reported} (file {on_disk}) != "
                              f"reference {expected_sha}")
        return {}
    return check


def gate_radius(k: int) -> Callable[[str], dict]:
    def check(out: str) -> dict:
        rho = _finite_positive(_json(out).get("rho"), "rho")
        if abs(rho - k) > 1e-9:
            raise GateFailure(f"rho = {rho!r} of a {k}-regular input is not "
                              f"within 1e-9 of {k}")
        return {}
    return check


def gate_lambda2(out: str) -> dict:
    value = _finite_positive(_json(out).get("lambda2_estimate"),
                             "lambda2_estimate")
    return {"lambda2_est": value}


def gate_verify(out: str) -> dict:
    payload = _json(out)
    if payload.get("passed") is not True:
        raise GateFailure(f"verify --check {payload.get('check')} did not "
                          f"pass")
    if "certificate" in payload:
        # d = 0 (diameter below 8 at t = 3) passes with a zero quotient,
        # which would no longer certify anything
        _finite_positive(payload["certificate"].get("quotient"),
                         "certificate quotient")
    if "lambda2_estimate" in payload:
        return {"lambda2_est": _finite_positive(payload["lambda2_estimate"],
                                                "lambda2_estimate")}
    return {}


def gate_sweep(radii: list[int], t: int, k: int) -> Callable[[str], dict]:
    cap = threshold(t, k) + 1e-8

    def check(out: str) -> dict:
        rows = list(csv.DictReader(io.StringIO(out)))
        got = [int(row["param"]) for row in rows]
        if got != radii:
            raise GateFailure(f"sweep radii {got} != {radii}")
        rho = [float(row["rho"]) for row in rows]
        for r, lo, hi in zip(radii[1:], rho, rho[1:]):
            if hi < lo:
                raise GateFailure(f"rho decreases at radius {r}: {hi!r} < "
                                  f"{lo!r}")
        if max(rho) > cap:
            raise GateFailure(f"rho = {max(rho)!r} exceeds threshold + 1e-8")
        return {"lambda2_est": _finite_positive(
            float(rows[-1]["lambda2_cert"]), "lambda2_cert")}
    return check


# ------------------------------------------------------------ workloads

@dataclass
class Command:
    name: str                         # gen, radius, lambda2, verify, sweep
    argv: list[str]
    check: Callable[[str], dict]      # stdout -> observations, or GateFailure


@dataclass
class Workload:
    name: str
    commands: Callable[[int, Path], list[Command]]   # (seed, work dir)
    largest: Callable[[Path], object]      # (work dir) -> instance to probe


def _gen(seed: int, n: int, path: Path) -> Command:
    expected = refgen.random_regular_sha256(T, K, n, seed)
    return Command("gen", ["gen", "random-regular", "--t", str(T), "--k",
                           str(K), "--n", str(n), "--seed", str(seed), "-o",
                           str(path)], gate_gen(path, expected))


def hypertree_sweep(seed: int, work: Path) -> list[Command]:
    # The hypertree balls do not depend on the seed.  The solver seed only
    # draws the start vector, and that moves the iterations at r = 8 from
    # 631 to 918 (seeds 0-2 and 11-15), so it is fixed: runs of every
    # seed do the same work.
    return [Command("sweep", ["sweep", "hypertree", "--t", str(T), "--k",
                              str(K), "--radii", f"1:{SWEEP_RADIUS}",
                              "--seed", str(SWEEP_SOLVER_SEED)],
                    gate_sweep(list(range(1, SWEEP_RADIUS + 1)), T, K))]


def regular_certify(seed: int, work: Path) -> list[Command]:
    path = work / "certify.txt"
    return [
        _gen(seed, 3000, path),
        Command("verify", ["verify", str(path), "--check", "alon-boppana",
                           "--seed", str(seed)], gate_verify),
        Command("verify", ["verify", str(path), "--check", "radial",
                           "--origin", "0", "--seed", str(seed)],
                gate_verify),
    ]


def regular_ingest(seed: int, work: Path) -> list[Command]:
    path = work / "ingest.txt"
    return [
        _gen(seed, 30000, path),
        Command("radius", ["radius", str(path), "--seed", str(seed)],
                gate_radius(K)),
        Command("lambda2", ["lambda2", str(path), "--restarts", "8",
                            "--seed", str(seed)], gate_lambda2),
    ]


def _ball(work: Path):
    from hgspec.generators import hypertree_ball
    return hypertree_ball(T, K, SWEEP_RADIUS)


def _parsed(name: str) -> Callable[[Path], object]:
    def load(work: Path):
        from hgspec.io import parse_hypergraph
        return parse_hypergraph((work / name).read_text(encoding="utf-8"))
    return load


WORKLOADS = {w.name: w for w in [
    Workload("hypertree-sweep", hypertree_sweep, _ball),
    Workload("regular-certify", regular_certify, _parsed("certify.txt")),
    Workload("regular-ingest", regular_ingest, _parsed("ingest.txt")),
]}


# -------------------------------------------------------------- passes

@dataclass
class PassResult:
    wall: float = 0.0
    cmd_times: dict = field(default_factory=dict)
    intervals: list = field(default_factory=list)  # (start, elapsed) per command
    outputs: list = field(default_factory=list)
    failed: dict = field(default_factory=dict)    # command index -> reason
    observations: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def run_pass(cli, commands: list[Command]) -> PassResult:
    """Run each command once through hgspec.cli.run_command and gate it."""
    result = PassResult()
    for index, cmd in enumerate(commands):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.run_command(cmd.argv, out)
        except Exception:  # a traceback is a failed command, not a crash
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        result.intervals.append((start, elapsed))
        result.wall += elapsed
        result.cmd_times[cmd.name] = result.cmd_times.get(cmd.name, 0.0) \
            + elapsed
        stdout, stderr = out.getvalue(), err.getvalue()
        result.outputs.append(stdout)
        reason = None
        if code != 0:
            reason = f"exit code {code}"
        elif "Traceback" in stderr:
            reason = "traceback on stderr"
        else:
            try:
                result.observations.update(cmd.check(stdout))
            except (GateFailure, ValueError, KeyError, TypeError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            tail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
            result.failed[index] = (f"{' '.join(cmd.argv[:2])}: {reason}"
                                    + (f" [{tail[0]}]" if tail else ""))
    return result


def measure(cli, commands: list[Command], seconds: float,
            tracer: Tracer | None, sampler: HostSpeed | None
            ) -> tuple[PassResult, list[PassResult], list[PassResult]]:
    """A warm-up pass, then rounds of one untraced (and one traced) pass.

    The warm-up pass is gated but kept out of the medians: the first pass
    in a process pays first-touch page faults on the memory numpy arrays
    take (about 1 s of 10 s on hypertree-sweep), and later passes do
    not, so a median over a mix of the two would depend on how many
    passes fit.  A new round starts while it is expected to end less than
    half a round past ``seconds`` from the start of the warm-up.  The
    host-speed sampler, if given, runs from the warm-up to the last pass.
    """
    with sampler if sampler is not None else contextlib.nullcontext():
        return _rounds(cli, commands, seconds, tracer)


def _rounds(cli, commands: list[Command], seconds: float,
            tracer: Tracer | None
            ) -> tuple[PassResult, list[PassResult], list[PassResult]]:
    start = time.perf_counter()
    warmup = run_pass(cli, commands)
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    rounds_start = time.perf_counter()
    while True:
        plain.append(run_pass(cli, commands))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(cli, commands))
            finally:
                tracer.uninstall()
            traced[-1].spans = tracer.take()
        now = time.perf_counter()
        per_round = (now - rounds_start) / len(plain)
        if now - start + 0.5 * per_round >= seconds:
            return warmup, plain, traced


def gate_determinism(passes: list[PassResult]) -> None:
    """Every pass must print exactly what the first one printed."""
    first = passes[0].outputs
    for p in passes[1:]:
        for i, (a, b) in enumerate(zip(first, p.outputs)):
            if a != b:
                p.failed.setdefault(i, f"command {i + 1}: stdout differs "
                                       f"from the first pass")


# ---------------------------------------------------------- measurements

#: what each fresh interpreter of measure_setup runs: time the import of
#: hgspec.cli under the host-speed sampler (a probe right before and
#: after, so that a short import still has some), print raw and adjusted
SETUP_CHILD = """\
import sys, time
sys.path[:0] = [{bench!r}, {src!r}]
from hostspeed import HostSpeed
with HostSpeed() as sampler:
    sampler.probe()
    start = time.perf_counter()
    import hgspec.cli
    wall = time.perf_counter() - start
    sampler.probe()
print(wall, sampler.adjusted(start, wall))
"""


def measure_setup() -> tuple[float, float]:
    """Medians of the raw and the host-adjusted time to import hgspec.cli.

    Each import runs in a fresh interpreter, as every CLI call pays it.
    """
    argv = [sys.executable, "-c",
            SETUP_CHILD.format(bench=str(ROOT / "bench"), src=str(SRC))]

    def once() -> tuple[float, float]:
        out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True,
                             text=True).stdout
        wall, adjusted = map(float, out.split())
        return wall, adjusted

    once()  # bytecode caches are written by the first import
    runs = [once() for _ in range(SETUP_REPEATS)]
    return (statistics.median(r[0] for r in runs),
            statistics.median(r[1] for r in runs))


def forms_probe(h, seed: int) -> dict:
    """Median single-call time of apply_adjacency and adjacency_form on h.

    Bytes are the compulsory traffic of one apply computed from array
    sizes (edge array + x read, A x written); caches are not modelled.
    """
    from hgspec.forms import adjacency_form, apply_adjacency
    x = 0.5 + np.random.default_rng(seed).random(h.n)
    ax = apply_adjacency(h, x)
    adjacency_form(h, x)

    def median_time(fn) -> float:
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            fn(h, x)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    apply_s = median_time(apply_adjacency)
    form_s = median_time(adjacency_form)
    nbytes = h.edge_array.nbytes + x.nbytes + ax.nbytes
    return {"forms.apply_s": apply_s,
            "forms.apply_bytes_computed": float(nbytes),
            "forms.apply_gbps_computed": nbytes / apply_s / 1e9,
            "forms.form_s": form_s}


def _eigen_probe(args, kwargs, result) -> dict:
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    restarts = cfg.restarts if cfg is not None else 32  # SolverConfig()'s
    return {"n": args[0].n, "iterations": result.iterations,
            "residual": result.residual, "restarts": restarts}


def _edges_probe(args, kwargs, result) -> dict:
    return {"edges": result.m}


PROBES = {"eigensolver.spectral_radius": _eigen_probe,
          "eigensolver.lambda2_estimate": _eigen_probe,
          "io.parse_hypergraph": _edges_probe}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer numbers of one traced pass.

    Times named after a function are its self time (children that are
    themselves wrapped are excluded), except hypergraph.bfs_s,
    hypergraph.diameter_s and hypergraph.acyclic_s, which are inclusive.
    Totals are summed over the pass; rho_s_per_iter is taken from the
    spectral_radius call on the largest instance only.
    """
    own = self_times(spans)

    def total(name: str, inclusive: bool = False) -> float:
        return sum(s.duration if inclusive else own[i]
                   for i, s in enumerate(spans) if s.name == name)

    def info(name: str, key: str) -> list:
        return [s.info[key] for s in spans if s.name == name]

    bfs_runs = sum(1 for s in spans if s.name == "hypergraph.distances_from")
    bfs_s = total("hypergraph.distances_from", inclusive=True)
    rho_s = total("eigensolver.spectral_radius")
    rho_iters = sum(info("eigensolver.spectral_radius", "iterations"))
    # per-iteration cost on the largest instance, the one the forms probe uses
    rho_calls = [(s.info["n"], own[i] / s.info["iterations"])
                 for i, s in enumerate(spans)
                 if s.name == "eigensolver.spectral_radius"]
    lam_s = total("eigensolver.lambda2_estimate")
    edges = sum(info("io.parse_hypergraph", "edges"))
    parse_s = total("io.parse_hypergraph")
    return {
        "hypergraph.bfs_runs": bfs_runs,
        "hypergraph.bfs_s": bfs_s,
        "hypergraph.bfs_s_per_run": _ratio(bfs_s, bfs_runs),
        "hypergraph.diameter_s": total("hypergraph.diameter_and_path", True),
        "hypergraph.acyclic_s": total("hypergraph.is_acyclic", True),
        "hypergraph.construct_s": total("hypergraph.Hypergraph.__init__"),
        "eigensolver.rho_s": rho_s,
        "eigensolver.rho_iters": rho_iters,
        "eigensolver.rho_s_per_iter": max(rho_calls, default=(0, 0.0))[1],
        "eigensolver.lambda2_s": lam_s,
        "eigensolver.lambda2_s_per_restart": _ratio(
            lam_s, sum(info("eigensolver.lambda2_estimate", "restarts"))),
        "eigensolver.lambda2_best_iters": sum(
            info("eigensolver.lambda2_estimate", "iterations")),
        "eigensolver.lambda2_residual": max(
            info("eigensolver.lambda2_estimate", "residual"), default=0.0),
        "generators.random_regular_s":
            total("generators.random_regular_linear"),
        "generators.hypertree_ball_s": total("generators.hypertree_ball"),
        "io.parse_s": parse_s,
        "io.parse_edges_per_s": _ratio(edges, parse_s),
        "io.emit_s": total("io.emit_hypergraph"),
        "constructions.cert_s":
            total("constructions.lambda2_lower_certificate")
            + total("constructions.multi_center_vector"),
        "constructions.radial_s":
            total("constructions.verify_radial_inequality")
            + total("constructions.radial_vector"),
        "cli.self_s": sum(own[i] for i, s in enumerate(spans)
                          if s.name.startswith("cli.")),
        "reports.emit_s": sum(own[i] for i, s in enumerate(spans)
                              if s.name.startswith("reports.")),
    }


# -------------------------------------------------------------- running

def host_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


def run_workload(cli, spec: dict, workload: Workload, seed: int,
                 seconds: float, trace: bool, work: Path) -> dict:
    commands = workload.commands(seed, work)
    tracer = Tracer("hgspec", LAYERS, UNTRACED, TRACED_METHODS, PROBES) \
        if trace else None
    sampler = None if trace else HostSpeed()
    warmup, plain, traced = measure(cli, commands, seconds, tracer, sampler)
    passes = [warmup] + plain + traced
    gate_determinism(passes)
    attempted = len(commands) * len(passes)
    failures = [f for p in passes for f in p.failed.values()]
    walls = [p.wall for p in plain]
    detail = {
        "passes": len(plain),
        "wall_s_per_pass": walls,
        "warmup_wall_s": warmup.wall,
        "fail_frac": len(failures) / attempted,
        "failures": failures[:10],
    }
    for name in sorted({n for p in plain for n in p.cmd_times}):
        detail[f"cmd.{name}_s"] = statistics.median(
            p.cmd_times[name] for p in plain)
    metrics: dict = {}
    if not trace:
        adjusted = [{} for _ in plain]
        for p, adj in zip(plain, adjusted):
            for cmd, interval in zip(commands, p.intervals):
                adj[cmd.name] = adj.get(cmd.name, 0.0) \
                    + sampler.adjusted(*interval)
        for name in adjusted[0]:
            detail[f"cmd.{name}_adj_s"] = statistics.median(
                adj[name] for adj in adjusted)
        adjusted_walls = [sum(adj.values()) for adj in adjusted]
        detail["wall_s"] = statistics.median(walls)
        detail["wall_adj_s_per_pass"] = adjusted_walls
        detail["host_probes"] = len(sampler.durations)
        detail["host_slowdown"] = sampler.slowdown()
        detail["setup_raw_s"], metrics["setup_s"] = measure_setup()
        metrics["wall_adj_s"] = statistics.median(adjusted_walls)
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # absent only when its command failed the gate (correct is false)
        metrics["lambda2_est"] = plain[-1].observations.get("lambda2_est",
                                                            0.0)
    else:
        per_pass = [layer_metrics(p.spans) for p in traced]
        for key in per_pass[0]:
            metrics[key] = statistics.median(m[key] for m in per_pass)
        metrics.update(forms_probe(workload.largest(work), seed))
        metrics["eigensolver.rho_iter_over_apply"] = _ratio(
            metrics["eigensolver.rho_s_per_iter"], metrics["forms.apply_s"])
        traced_walls = [p.wall for p in traced]
        detail["traced_passes"] = len(traced)
        detail["traced_wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = detail["traced_wall_s"] \
            - statistics.median(walls)
    declared = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "detail": detail,
    }


def print_table(name: str, result: dict) -> None:
    detail = result["detail"]
    print(f"## {name}: passes={detail['passes']} (+1 warm-up) attempted="
          f"{result['attempted']} failed={result['failed']} "
          f"fail_frac={detail['fail_frac']:.6g}")
    rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    rows += [(k, v, "s") for k, v in detail.items()
             if k.startswith("cmd.") or k == "wall_s"]
    for key, value, unit in rows:
        print(f"  {key:36s} {value:>16.6g} {unit}")
    for failure in detail["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    sys.path.insert(0, str(SRC))
    try:
        import hgspec.cli as cli
    except ImportError as exc:
        print(f"bench: cannot import hgspec from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"bench: hgspec was imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    host = host_info()
    print(f"# hgspec benchmark seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} cpu={host['cpu']!r} nproc={host['nproc']} "
          f"python={host['python']} numpy={host['numpy']}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        for name in names:
            results[name] = run_workload(cli, spec, WORKLOADS[name],
                                         args.seed, args.seconds,
                                         bool(args.trace), work)
            print_table(name, results[name])
            print("# detail " + json.dumps(
                {"workload": name, "host": host, **results[name]["detail"]}))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

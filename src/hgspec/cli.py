"""Command-line surface.

Subcommands: ``radius``, ``lambda2``, ``bounds``, ``verify``, ``gen``,
``sweep``; a process builds their parser on its first command.  JSON
reports go to standard output; exit status is 0 on success, 1 when a
verification or computation fails (and when ``gen``'s instance is above
the size cap), 2 on usage or parse errors.  The default seed comes from
``--seed``, then ``$HGSPEC_SEED``, then 0; identical inputs, flags, and
seed produce byte-identical output (timing only behind ``--timings``).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import bounds as bounds_mod
from .constructions import (lambda2_lower_certificate, mu_lower_certificate,
                            multi_center_vector, verify_radial_inequality)
from .eigensolver import (_EVALS_PER_RESTART, _PRODUCTS_PER_RESTART,
                          SolverConfig, lambda2_estimate, spectral_radius)
from .errors import DiameterTooSmall, Error, ParseError
from .generators import complete_uniform, hypertree_ball, random_regular_linear
from .hypergraph import (Hypergraph, is_acyclic, min_eccentricity_vertex,
                         regular_degree)
from .io import emit_hypergraph, parse_hypergraph
from .reports import (SpectralReport, certificate_entry, dumps_json,
                      emit_sweep_csv, text_sha256)

SEED_ENV_VAR = "HGSPEC_SEED"


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise Error(f"{SEED_ENV_VAR}={env!r} is not an integer")
    return 0


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        tol=args.tol,
        max_iters=args.max_iters,
        restarts=getattr(args, "restarts", SolverConfig.restarts),
        seed=_resolve_seed(args),
        complex_search=getattr(args, "complex_search", False),
    )


def _load_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise Error(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        # the lines before exc.start, split as the line parser splits
        raise ParseError(len((exc.object[:exc.start] + b"x").splitlines()),
                         f"byte 0x{exc.object[exc.start]:02x} is not UTF-8")
    h = parse_hypergraph(text)
    descriptor = {"kind": "file", "path": path, "sha256": text_sha256(text)}
    return h, descriptor


def _base_report(h: Hypergraph, descriptor: dict) -> SpectralReport:
    k = regular_degree(h)
    return SpectralReport(
        input=descriptor,
        t=h.t,
        n=h.n,
        m=h.m,
        regular_k=k,
        # k = 0 (one edgeless vertex) has no threshold
        threshold=bounds_mod.threshold(h.t, k) if k else None,
    )


def _solver_stanza(cfg: SolverConfig, result) -> dict:
    return {
        "tol": cfg.tol,
        "max_iters": cfg.max_iters,
        "restarts": cfg.restarts,
        "seed": cfg.seed,
        "iterations": result.iterations,
        "residual": result.residual,
    }


def _solve(args, out, solver, field: str) -> int:
    """Run ``solver`` on the input file and report its value as ``field``."""
    h, descriptor = _load_file(args.file)
    cfg = _solver_config(args)
    start = time.perf_counter()
    result = solver(h, cfg)
    elapsed = time.perf_counter() - start
    report = _base_report(h, descriptor)
    setattr(report, field, result.value)
    report.solver = _solver_stanza(cfg, result)
    if args.timings:
        report.wall_time_seconds = elapsed
    out.write(report.to_json())
    return 0


def cmd_radius(args, out) -> int:
    return _solve(args, out, spectral_radius, "rho")


def cmd_lambda2(args, out) -> int:
    return _solve(args, out, lambda2_estimate, "lambda2_estimate")


def cmd_bounds(args, out) -> int:
    t, k = args.t, args.k
    thr = bounds_mod.threshold(t, k)
    alt = bounds_mod.friedman_alternate(t, k)
    rel = abs(thr - alt) / thr if thr else 0.0
    payload = {
        "t": t,
        "k": k,
        "threshold": thr,
        "friedman_alternate": alt,
        "relative_difference": rel,
    }
    if k >= 2:
        ok, first = bounds_mod.verify_g_monotone(t, k, args.n_max)
        payload["g_monotone"] = {"n_max": args.n_max, "ok": ok,
                                 "first_violation": first}
    else:
        payload["g_monotone"] = None
    out.write(dumps_json(payload))
    return 0


def _check_radial(h, args, cfg) -> dict:
    origin = args.origin if args.origin is not None else \
        min_eccentricity_vertex(h)
    if h.n == 1 and origin == 0:  # k = 0: no edges, no rho(t, 0)
        return {"check": "radial", "passed": True, "origin": 0,
                "reason": "k = 0: no edges, inequality trivial"}
    res = verify_radial_inequality(h, origin)
    return {
        "check": "radial",
        "passed": res.passed,
        "origin": origin,
        "min_slack": res.min_slack,
        "worst_vertex": res.worst_vertex,
    }


def _check_g_monotone(h, args, cfg) -> dict:
    k = regular_degree(h)
    if k is None:
        return {"check": "g-monotone", "passed": False,
                "reason": "input is not regular"}
    if k <= 1:
        return {"check": "g-monotone", "passed": True,
                "reason": f"k = {k}: g undefined, bound trivial"}
    ok, first = bounds_mod.verify_g_monotone(h.t, k, args.n_max)
    return {"check": "g-monotone", "passed": ok, "t": h.t, "k": k,
            "n_max": args.n_max, "first_violation": first}


def _check_acyclic_bound(h, args, cfg) -> dict:
    if not is_acyclic(h):
        return {"check": "acyclic-bound", "passed": False,
                "reason": "input is not acyclic"}
    max_deg = int(h.degrees.max())
    result = spectral_radius(h, cfg)
    if max_deg == 0:  # the one-vertex input; no rho(t, 0)
        return {"check": "acyclic-bound", "passed": True, "rho": result.value,
                "reason": "no edges: rho = 0, bound trivial"}
    cap = bounds_mod.threshold(h.t, max_deg)
    passed = result.value <= cap + 1e-8
    return {"check": "acyclic-bound", "passed": bool(passed),
            "rho": result.value, "max_degree": max_deg, "bound": cap,
            "gap": cap - result.value}


def _check_alon_boppana(h, args, cfg) -> dict:
    cert = lambda2_lower_certificate(h, k=args.k)
    estimate = lambda2_estimate(h, cfg)
    dominated = estimate.value >= cert.quotient - 1e-6
    # at radius d = 0 the quotient is 0, which certifies nothing
    trivial = {"trivial": True} if cert.metadata["d"] == 0 else {}
    return {
        "check": "alon-boppana",
        "passed": bool(dominated and not trivial),
        **trivial,
        "certificate": certificate_entry(cert),
        "lambda2_estimate": estimate.value,
        "threshold": cert.metadata["threshold"],
    }


def _check_mu(h, args, cfg) -> dict:
    cert = mu_lower_certificate(h, args.j, k=args.k)
    rho = spectral_radius(h, cfg)
    chain_ok = cert.quotient <= rho.value + 1e-8
    return {
        "check": "mu",
        "passed": bool(chain_ok),
        "j": args.j,
        "certificate": certificate_entry(cert),
        "rho": rho.value,
    }


def cmd_verify(args, out) -> int:
    if args.check == "mu" and args.j is None:
        print("hgspec: --check mu requires --j", file=sys.stderr)
        return 2
    h, descriptor = _load_file(args.file)
    check = {"radial": _check_radial, "g-monotone": _check_g_monotone,
             "acyclic-bound": _check_acyclic_bound,
             "alon-boppana": _check_alon_boppana, "mu": _check_mu}[args.check]
    payload = check(h, args, _solver_config(args))
    payload["input"] = descriptor
    out.write(dumps_json(payload))
    return 0 if payload["passed"] else 1


def _generate(args, size: int, seed: int | None) -> Hypergraph:
    """The ``args.family`` instance of the given radius or vertex count;
    only random-regular reads ``seed``."""
    if args.family == "hypertree":
        return hypertree_ball(args.t, args.k, size)
    if args.family == "complete":
        return complete_uniform(size, args.t)
    return random_regular_linear(args.t, args.k, size, seed,
                                 args.max_attempts)


def cmd_gen(args, out) -> int:
    # the families that draw nothing read neither --seed nor HGSPEC_SEED
    seed = _resolve_seed(args) if args.family == "random-regular" else None
    size_key = "radius" if args.family == "hypertree" else "n"
    size = getattr(args, size_key)
    h = _generate(args, size, seed)
    params = {"family": args.family, "t": args.t}
    if args.family != "complete":
        params["k"] = args.k
    params[size_key] = size
    if seed is not None:
        params["seed"] = seed
    text = emit_hypergraph(h)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise Error(f"cannot write {args.output}: {exc}")
        params.update({"n": h.n, "m": h.m, "path": args.output,
                       "sha256": text_sha256(text)})
        out.write(dumps_json(params))
    else:
        out.write(text)
    return 0


def _parse_range(spec: str) -> range | list[int]:
    """'A:B' inclusive; 'A:B:S' steps by S; 'A:B:*S' multiplies by S."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise Error(f"bad range {spec!r}; expected A:B, A:B:S, or A:B:*S")
    step = parts[2] if len(parts) == 3 else "1"
    multiply = step.startswith("*")
    try:
        lo, hi = int(parts[0]), int(parts[1])
        by = int(step[1:] if multiply else step)
    except ValueError:
        raise Error(f"bad range {spec!r}; A, B and S must be integers") \
            from None
    if not multiply:
        if by == 0:
            raise Error(f"bad range {spec!r}; A:B:S needs S != 0")
        # B is inclusive: the range ends one step past it, either way; a
        # range, not a list, so that a sweep stops at its first failing row
        return range(lo, hi + (1 if by > 0 else -1), by)
    if lo < 1 or by < 2:
        raise Error(f"bad range {spec!r}; A:B:*S needs A >= 1 and S >= 2")
    vals = []
    while lo <= hi:
        vals.append(lo)
        lo *= by
    return vals


def _sweep_row(args, size: int, cfg) -> dict:
    h = _generate(args, size, cfg.seed)
    k = regular_degree(h) if args.family == "complete" else args.k
    start = time.perf_counter()
    rho = spectral_radius(h, cfg).value
    thr = bounds_mod.threshold(args.t, k) if k is not None else None
    try:
        cert = multi_center_vector(h, k=k).quotient
    except DiameterTooSmall:
        cert = None
    elapsed = time.perf_counter() - start
    return {
        "family": args.family,
        "t": args.t,
        "k": k if k is not None else "",
        "param": size,
        "n": h.n,
        "m": h.m,
        "rho": rho,
        "threshold": thr,
        "gap": (thr - rho) if thr is not None else None,
        "lambda2_cert": cert,
        "seconds": elapsed if args.timings else 0,
    }


def cmd_sweep(args, out) -> int:
    cfg = _solver_config(args)
    sizes = _parse_range(args.radii if args.family == "hypertree" else args.ns)
    out.write(emit_sweep_csv([_sweep_row(args, size, cfg) for size in sizes]))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser; a process's first ``run_command`` builds it."""
    # one parent parser for each flag group that several commands share
    file = argparse.ArgumentParser(add_help=False)
    file.add_argument("file")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--tol", type=float, default=1e-10,
                        help="stopping tolerance: for rho the relative "
                             "width of the Collatz-Wielandt bracket, for "
                             "lambda2 the relative KKT residual "
                             "(default 1e-10)")
    solver.add_argument("--max-iters", type=int, default=100_000)
    solver.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")
    restarts = argparse.ArgumentParser(add_help=False)  # runs lambda2
    restarts.add_argument("--restarts", type=int,
                          default=SolverConfig.restarts,
                          help="lambda2 random starts, which also set its "
                               "evaluation budget: "
                               f"{_EVALS_PER_RESTART} per restart, or "
                               f"{_PRODUCTS_PER_RESTART:,} edge products "
                               "per restart on small inputs, an evaluation "
                               "counting as max(m, n t / 8) of them "
                               "(default %(default)s)")
    timings = argparse.ArgumentParser(add_help=False)  # reports a time
    timings.add_argument("--timings", action="store_true",
                         help="include wall-clock timing in the output "
                              "(breaks byte-for-byte determinism)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", default=None)
    t_flag = argparse.ArgumentParser(add_help=False)
    t_flag.add_argument("--t", type=int, required=True)
    tk_flags = argparse.ArgumentParser(add_help=False, parents=[t_flag])
    tk_flags.add_argument("--k", type=int, required=True)
    rr_flags = argparse.ArgumentParser(add_help=False, parents=[tk_flags])
    rr_flags.add_argument("--max-attempts", type=int, default=10_000)

    parser = argparse.ArgumentParser(
        prog="hgspec", description="Spectral radii, second eigenvalues, "
        "and Alon-Boppana certificates of uniform hypergraphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("radius", help="largest adjacency eigenvalue",
                   parents=[file, solver, timings]) \
        .set_defaults(func=cmd_radius)

    p_l2 = sub.add_parser("lambda2", help="shifted spectral norm estimate",
                          parents=[file, solver, restarts, timings])
    p_l2.add_argument("--complex-search", action="store_true",
                      help="ascend over complex vectors (off by default)")
    p_l2.set_defaults(func=cmd_lambda2)

    p_bounds = sub.add_parser("bounds", help="closed-form threshold values",
                              parents=[tk_flags])
    p_bounds.add_argument("--n-max", type=int, default=200)
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="check a paper inequality",
                              parents=[file, solver, restarts])
    p_verify.add_argument("--check", required=True,
                          choices=["radial", "g-monotone", "acyclic-bound",
                                   "alon-boppana", "mu"])
    p_verify.add_argument("--j", type=int, default=None,
                          help="family size for --check mu")
    p_verify.add_argument("--origin", type=int, default=None,
                          help="reference vertex (default: a center)")
    p_verify.add_argument("--k", type=int, default=None,
                          help="override the inferred degree")
    p_verify.add_argument("--n-max", type=int, default=200)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate an instance")
    p_gen.set_defaults(func=cmd_gen)
    gen = p_gen.add_subparsers(dest="family", required=True)
    p_sweep = sub.add_parser("sweep", help="CSV sweep over a family")
    p_sweep.set_defaults(func=cmd_sweep)
    sweep = p_sweep.add_subparsers(dest="family", required=True)
    for family, flags in (("hypertree", tk_flags), ("complete", t_flag),
                          ("random-regular", rr_flags)):
        ball = family == "hypertree"
        gen.add_parser(family, parents=[flags, output]).add_argument(
            "--radius" if ball else "--n", type=int, required=True)
        sweep.add_parser(family, parents=[flags, solver, timings]) \
            .add_argument("--radii" if ball else "--ns", required=True,
                          help="range A:B" if ball else "range A:B[:S|:*S]")
    # random-regular, the one family that draws
    gen.choices["random-regular"].add_argument("--seed", type=int,
                                               default=None)
    return parser


def run_command(argv, out=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except ParseError as exc:
        print(f"hgspec: parse error: {exc}", file=sys.stderr)
        return 2
    except (Error, ValueError) as exc:
        print(f"hgspec: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, MemoryError) as exc:
        what = "overflow" if isinstance(exc, OverflowError) else "out of memory"
        print(f"hgspec: {what}: {exc}".removesuffix(": "), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

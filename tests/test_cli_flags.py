"""The CLI's whole flag surface, and how often its parser is built.

``FLAGS`` and ``HELP`` were recorded from ``build_parser()`` when each
command still added its flags one by one, before the shared flag groups
became parent parsers.  Each command and family lists every option with
its option strings, default, type, whether it is required, its choices
and its action, and the function it runs; ``HELP`` lists every help
text and the options that show it.  A dropped, renamed or retyped flag,
or one that moved to another command, fails here.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from hgspec.cli import build_parser

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: the name each argparse action class has in the tables
ACTIONS = {argparse._StoreAction: "store",
           argparse._StoreTrueAction: "store_true",
           argparse._SubParsersAction: "sub_parsers"}


def surface(parser, path=(), func=None):
    """{(command, dest): (option strings, default, type name, required,
    choices, action, help)} over parser and its subparsers, plus
    {(command, "func"): name} for each command that runs."""
    func = parser.get_default("func") or func
    table = {}
    runs = True
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            runs = False
            for name, child in choices.items():
                table.update(surface(child, path + (name,), func))
            choices = list(choices)
        table[" ".join(path), action.dest] = (
            tuple(action.option_strings), action.default,
            getattr(action.type, "__name__", None), action.required,
            None if choices is None else tuple(choices),
            ACTIONS.get(type(action), type(action).__name__), action.help)
    if runs:
        table[" ".join(path), "func"] = func.__name__
    return table


def test_every_flag_of_every_command():
    table = surface(build_parser())
    assert {key: row if key[1] == "func" else row[:-1]
            for key, row in table.items()} == FLAGS
    assert {key: row[-1] for key, row in table.items()
            if key[1] != "func" and row[-1] is not None} == \
        {key: text for text, keys in HELP.items() for key in keys}


def test_parser_is_built_once_on_the_first_command():
    # a fresh interpreter, since this one has built the parser already
    script = (
        "import argparse, io, json\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "from hgspec import cli\n"
        "counts = [len(built)]\n"
        "for _ in range(2):\n"
        "    out = io.StringIO()\n"
        "    code = cli.run_command(['bounds', '--t', '3', '--k', '3'], out)\n"
        "    assert code == 0 and out.getvalue()\n"
        "    counts.append(len(built))\n"
        "print(json.dumps(counts))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_import, first, second = json.loads(proc.stdout)
    assert at_import == 0
    assert first > 0
    assert second == first


FLAGS = {
    ("", "command"):
        ((), None, None, True,
         ("radius", "lambda2", "bounds", "verify", "gen", "sweep"),
         "sub_parsers"),
    ("bounds", "func"): "cmd_bounds",
    ("bounds", "k"): (("--k",), None, "int", True, None, "store"),
    ("bounds", "n_max"): (("--n-max",), 200, "int", False, None, "store"),
    ("bounds", "t"): (("--t",), None, "int", True, None, "store"),
    ("gen", "family"):
        ((), None, None, True, ("hypertree", "complete", "random-regular"),
         "sub_parsers"),
    ("gen complete", "func"): "cmd_gen",
    ("gen complete", "n"): (("--n",), None, "int", True, None, "store"),
    ("gen complete", "output"):
        (("-o", "--output"), None, None, False, None, "store"),
    ("gen complete", "t"): (("--t",), None, "int", True, None, "store"),
    ("gen hypertree", "func"): "cmd_gen",
    ("gen hypertree", "k"): (("--k",), None, "int", True, None, "store"),
    ("gen hypertree", "output"):
        (("-o", "--output"), None, None, False, None, "store"),
    ("gen hypertree", "radius"):
        (("--radius",), None, "int", True, None, "store"),
    ("gen hypertree", "t"): (("--t",), None, "int", True, None, "store"),
    ("gen random-regular", "func"): "cmd_gen",
    ("gen random-regular", "k"): (("--k",), None, "int", True, None, "store"),
    ("gen random-regular", "max_attempts"):
        (("--max-attempts",), 10000, "int", False, None, "store"),
    ("gen random-regular", "n"): (("--n",), None, "int", True, None, "store"),
    ("gen random-regular", "output"):
        (("-o", "--output"), None, None, False, None, "store"),
    ("gen random-regular", "seed"):
        (("--seed",), None, "int", False, None, "store"),
    ("gen random-regular", "t"): (("--t",), None, "int", True, None, "store"),
    ("lambda2", "complex_search"):
        (("--complex-search",), False, None, False, None, "store_true"),
    ("lambda2", "file"): ((), None, None, True, None, "store"),
    ("lambda2", "func"): "cmd_lambda2",
    ("lambda2", "max_iters"):
        (("--max-iters",), 100000, "int", False, None, "store"),
    ("lambda2", "restarts"):
        (("--restarts",), 32, "int", False, None, "store"),
    ("lambda2", "seed"): (("--seed",), None, "int", False, None, "store"),
    ("lambda2", "timings"):
        (("--timings",), False, None, False, None, "store_true"),
    ("lambda2", "tol"): (("--tol",), 1e-10, "float", False, None, "store"),
    ("radius", "file"): ((), None, None, True, None, "store"),
    ("radius", "func"): "cmd_radius",
    ("radius", "max_iters"):
        (("--max-iters",), 100000, "int", False, None, "store"),
    ("radius", "seed"): (("--seed",), None, "int", False, None, "store"),
    ("radius", "timings"):
        (("--timings",), False, None, False, None, "store_true"),
    ("radius", "tol"): (("--tol",), 1e-10, "float", False, None, "store"),
    ("sweep", "family"):
        ((), None, None, True, ("hypertree", "complete", "random-regular"),
         "sub_parsers"),
    ("sweep complete", "func"): "cmd_sweep",
    ("sweep complete", "max_iters"):
        (("--max-iters",), 100000, "int", False, None, "store"),
    ("sweep complete", "ns"): (("--ns",), None, None, True, None, "store"),
    ("sweep complete", "seed"):
        (("--seed",), None, "int", False, None, "store"),
    ("sweep complete", "t"): (("--t",), None, "int", True, None, "store"),
    ("sweep complete", "timings"):
        (("--timings",), False, None, False, None, "store_true"),
    ("sweep complete", "tol"):
        (("--tol",), 1e-10, "float", False, None, "store"),
    ("sweep hypertree", "func"): "cmd_sweep",
    ("sweep hypertree", "k"): (("--k",), None, "int", True, None, "store"),
    ("sweep hypertree", "max_iters"):
        (("--max-iters",), 100000, "int", False, None, "store"),
    ("sweep hypertree", "radii"):
        (("--radii",), None, None, True, None, "store"),
    ("sweep hypertree", "seed"):
        (("--seed",), None, "int", False, None, "store"),
    ("sweep hypertree", "t"): (("--t",), None, "int", True, None, "store"),
    ("sweep hypertree", "timings"):
        (("--timings",), False, None, False, None, "store_true"),
    ("sweep hypertree", "tol"):
        (("--tol",), 1e-10, "float", False, None, "store"),
    ("sweep random-regular", "func"): "cmd_sweep",
    ("sweep random-regular", "k"):
        (("--k",), None, "int", True, None, "store"),
    ("sweep random-regular", "max_attempts"):
        (("--max-attempts",), 10000, "int", False, None, "store"),
    ("sweep random-regular", "max_iters"):
        (("--max-iters",), 100000, "int", False, None, "store"),
    ("sweep random-regular", "ns"):
        (("--ns",), None, None, True, None, "store"),
    ("sweep random-regular", "seed"):
        (("--seed",), None, "int", False, None, "store"),
    ("sweep random-regular", "t"):
        (("--t",), None, "int", True, None, "store"),
    ("sweep random-regular", "timings"):
        (("--timings",), False, None, False, None, "store_true"),
    ("sweep random-regular", "tol"):
        (("--tol",), 1e-10, "float", False, None, "store"),
    ("verify", "check"):
        (("--check",), None, None, True,
         ("radial", "g-monotone", "acyclic-bound", "alon-boppana", "mu"),
         "store"),
    ("verify", "file"): ((), None, None, True, None, "store"),
    ("verify", "func"): "cmd_verify",
    ("verify", "j"): (("--j",), None, "int", False, None, "store"),
    ("verify", "k"): (("--k",), None, "int", False, None, "store"),
    ("verify", "max_iters"):
        (("--max-iters",), 100000, "int", False, None, "store"),
    ("verify", "n_max"): (("--n-max",), 200, "int", False, None, "store"),
    ("verify", "origin"): (("--origin",), None, "int", False, None, "store"),
    ("verify", "restarts"): (("--restarts",), 32, "int", False, None, "store"),
    ("verify", "seed"): (("--seed",), None, "int", False, None, "store"),
    ("verify", "tol"): (("--tol",), 1e-10, "float", False, None, "store"),
}

HELP = {
    "ascend over complex vectors (off by default)":
        [("lambda2", "complex_search")],
    "lambda2 random starts, which also set its evaluation budget: 12 "
    "per restart, or 36,000 edge products per restart on small inputs, "
    "an evaluation counting as max(m, n t / 8) of them (default "
    "%(default)s)":
        [("lambda2", "restarts"), ("verify", "restarts")],
    "RNG seed (default $HGSPEC_SEED or 0)":
        [("lambda2", "seed"), ("radius", "seed"), ("sweep complete", "seed"),
         ("sweep hypertree", "seed"), ("sweep random-regular", "seed"),
         ("verify", "seed")],
    "include wall-clock timing in the output (breaks byte-for-byte "
    "determinism)":
        [("lambda2", "timings"), ("radius", "timings"),
         ("sweep complete", "timings"), ("sweep hypertree", "timings"),
         ("sweep random-regular", "timings")],
    "stopping tolerance: for rho the relative width of the Collatz-"
    "Wielandt bracket, for lambda2 the relative KKT residual (default "
    "1e-10)":
        [("lambda2", "tol"), ("radius", "tol"), ("sweep complete", "tol"),
         ("sweep hypertree", "tol"), ("sweep random-regular", "tol"),
         ("verify", "tol")],
    "range A:B[:S|:*S]":
        [("sweep complete", "ns"), ("sweep random-regular", "ns")],
    "range A:B":
        [("sweep hypertree", "radii")],
    "family size for --check mu":
        [("verify", "j")],
    "override the inferred degree":
        [("verify", "k")],
    "reference vertex (default: a center)":
        [("verify", "origin")],
}

"""The public surface: exported names, removed names, benchmark lookups.

``bench/run.py`` runs the CLI in-process and, with ``--trace 1``, wraps
public functions and methods of the package by name and reads result
fields.  A name it looks up that disappears would break the traced
benchmark run; this module makes such a removal fail the tests instead.
It also checks that every export is read somewhere, and that no module
imports a name it never uses.
"""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

import hgspec
from hgspec import DistanceMap, EigenResult, Hypergraph, SolverConfig
from hgspec import bounds, cli, constructions, eigensolver, forms, generators
from hgspec import hypergraph, io, reports

EXPORTED = [
    "Certificate", "CertificateError", "DiameterTooSmall", "DistanceMap",
    "DomainError", "EdgeError", "EigenResult", "Error", "GenerationFailed",
    "Hypergraph", "InfeasibleParams", "NoConvergence", "NotConnectedError",
    "NotRegularError", "ParseError", "RadialCheckResult", "SizeOverflow",
    "SolverConfig", "SpectralReport", "StrongOrthogonalSet", "UNREACHABLE",
    "adjacency_form", "apply_adjacency", "build_strong_orthogonal_family",
    "complete_uniform", "diameter_and_path", "distances_from", "dumps_json",
    "emit_hypergraph", "emit_sweep_csv", "friedman_alternate", "g_hat_value",
    "g_value", "hypertree_ball", "is_acyclic", "lambda2_estimate",
    "lambda2_lower_certificate", "min_eccentricity_vertex",
    "mu_lower_certificate", "multi_center_vector", "parse_hypergraph",
    "radial_vector", "random_regular_linear", "regular_degree",
    "rho_lower_certificate", "shifted_form", "spectral_radius", "t_norm",
    "t_norm_pow", "threshold", "verify_g_monotone",
    "verify_radial_inequality",
]


def test_all_is_the_documented_list():
    assert sorted(hgspec.__all__) == sorted(EXPORTED)
    assert len(hgspec.__all__) == len(set(hgspec.__all__))
    for name in EXPORTED:
        assert hasattr(hgspec, name), name


@pytest.mark.parametrize("owner,name", [
    (hgspec, "BoundParams"), (bounds, "BoundParams"),
    (hgspec, "degree_sequence"), (hypergraph, "degree_sequence"),
    (Hypergraph, "incidence"), (DistanceMap, "layer"),
    (eigensolver, "_STEP_FLOOR"), (forms, "_shifted"),
    (hypergraph, "_EdgeTable"), (hypergraph, "_quotient"),
    (Hypergraph, "_table"), (eigensolver, "_Ends"), (eigensolver, "_ended"),
    (eigensolver, "_JOIN_RADIUS"), (Hypergraph, "edges"),
    (Hypergraph, "_edges"), (hypergraph, "is_linear"), (hgspec, "is_linear"),
])
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_solver_shift_is_a_constant():
    # the power iteration and its shift are gone: no option, no constant,
    # no stanza key; SolverConfig keeps its five fields
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "tol", "max_iters", "restarts", "seed", "complex_search"]
    with pytest.raises(TypeError):
        SolverConfig(shift=1.0)
    assert not hasattr(eigensolver, "SHIFT")


@pytest.mark.parametrize("command", ["radius", "lambda2"])
def test_solver_stanza_has_no_shift(command, tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text("2 5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    assert cli.run_command([command, str(path)]) == 0
    stanza = json.loads(capsys.readouterr().out)["solver"]
    assert list(stanza) == ["tol", "max_iters", "restarts", "seed",
                            "iterations", "residual"]


@pytest.mark.parametrize("argv", [
    ["radius", "h.txt"], ["lambda2", "h.txt"],
    ["verify", "h.txt", "--check", "radial"],
    ["sweep", "hypertree", "--t", "3", "--k", "3", "--radii", "1:2"],
    ["sweep", "complete", "--t", "3", "--ns", "5:6"],
    ["sweep", "random-regular", "--t", "3", "--k", "3", "--ns", "30:30"],
])
def test_shift_flag_is_gone(argv, capsys):
    assert cli.run_command(argv + ["--shift", "1"]) == 2
    assert "unrecognized arguments: --shift 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["radius", "instance.txt"],
    ["sweep", "hypertree", "--t", "3", "--k", "3", "--radii", "1:2"],
    ["sweep", "complete", "--t", "3", "--ns", "5:6"],
    ["sweep", "random-regular", "--t", "3", "--k", "3", "--ns", "30:30"],
])
def test_restarts_flag_is_gone_where_no_lambda2_runs(argv, capsys):
    # radius and sweep run no lambda2, so they take no restart count
    assert cli.run_command(argv + ["--restarts", "4"]) == 2
    assert "unrecognized arguments: --restarts 4" in capsys.readouterr().err


#: (module, function) pairs that bench/run.py calls or wraps by name
BENCH_FUNCTIONS = [
    (cli, "run_command"), (io, "parse_hypergraph"), (io, "emit_hypergraph"),
    (generators, "hypertree_ball"), (generators, "random_regular_linear"),
    (forms, "apply_adjacency"), (forms, "adjacency_form"),
    (eigensolver, "spectral_radius"), (eigensolver, "lambda2_estimate"),
    (hypergraph, "distances_from"), (hypergraph, "diameter_and_path"),
    (hypergraph, "is_acyclic"),
    (constructions, "lambda2_lower_certificate"),
    (constructions, "multi_center_vector"),
    (constructions, "verify_radial_inequality"),
    (constructions, "radial_vector"),
]


@pytest.mark.parametrize("module,name", BENCH_FUNCTIONS)
def test_benchmark_functions_exist(module, name):
    assert callable(getattr(module, name))
    assert getattr(module, name).__module__ == module.__name__


def test_benchmark_methods_and_fields_exist():
    # methods are wrapped through the class __dict__
    assert "__init__" in Hypergraph.__dict__
    assert "to_json" in reports.SpectralReport.__dict__
    assert hasattr(Hypergraph, "edge_array")
    assert hasattr(Hypergraph, "n") and hasattr(Hypergraph, "m")
    assert {"iterations", "residual"} <= {
        f.name for f in dataclasses.fields(EigenResult)}
    assert "restarts" in {f.name for f in dataclasses.fields(SolverConfig)}


#: exports that no module of the package reads and the benchmark does not
#: call, each with why it stays
LIBRARY_ONLY = (
    "rho_lower_certificate",  # the paper's rho certificate; tests check it
    "shifted_form",  # lambda2's objective; tests check estimates with it
)

MODULES = sorted(p for p in Path(hgspec.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _names(tree):
    """The names that a module's code loads, stores or deletes."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _read_names(tree):
    """Every name a module refers to, as a name or as an attribute; the
    name of a ``def`` or ``class`` statement is neither."""
    return _names(tree) | {node.attr for node in ast.walk(tree)
                           if isinstance(node, ast.Attribute)}


def test_every_export_is_read():
    read = set().union(*(_read_names(ast.parse(p.read_text()))
                         for p in MODULES))
    bench = {name for _, name in BENCH_FUNCTIONS}
    unread = [name for name in hgspec.__all__
              if name not in read | bench | set(LIBRARY_ONLY)]
    assert unread == []
    # an entry that a module or the benchmark reads is no longer needed
    assert not set(LIBRARY_ONLY) & (read | bench)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
    assert bound - _names(tree) == set()

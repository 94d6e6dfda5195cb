"""Spectral quantities and lower-bound certificates of uniform hypergraphs.

A t-uniform hypergraph carries a symmetric order-t adjacency tensor whose
largest eigenvalue (the spectral radius) and J-shifted spectral norm (the
second eigenvalue) generalize the familiar graph quantities under the
t-norm.  This package computes both, evaluates the hypertree threshold
(t/(t-1)) * ((t-1)(k-1))^(1/t), and constructs the certificate vectors
that witness the associated lower bounds: radial decay vectors, their
truncations, multi-center root-of-unity vectors, and strongly orthogonal
families for the higher multilinear values.
"""

from .bounds import (friedman_alternate, g_hat_value, g_value, threshold,
                     verify_g_monotone)
from .constructions import (Certificate, RadialCheckResult,
                            StrongOrthogonalSet,
                            build_strong_orthogonal_family,
                            lambda2_lower_certificate, mu_lower_certificate,
                            multi_center_vector, radial_vector,
                            rho_lower_certificate, verify_radial_inequality)
from .eigensolver import (EigenResult, SolverConfig, lambda2_estimate,
                          spectral_radius)
from .errors import (CertificateError, DiameterTooSmall, DomainError,
                     EdgeError, Error, GenerationFailed, InfeasibleParams,
                     NoConvergence, NotConnectedError, NotRegularError,
                     ParseError, SizeOverflow)
from .forms import (adjacency_form, apply_adjacency, shifted_form, t_norm,
                    t_norm_pow)
from .generators import complete_uniform, hypertree_ball, random_regular_linear
from .hypergraph import (UNREACHABLE, DistanceMap, Hypergraph,
                         diameter_and_path, distances_from, is_acyclic,
                         min_eccentricity_vertex, regular_degree)
from .io import emit_hypergraph, parse_hypergraph
from .reports import SpectralReport, dumps_json, emit_sweep_csv

__version__ = "0.1.0"

__all__ = [
    "Certificate", "DiameterTooSmall", "DistanceMap", "DomainError",
    "EdgeError", "EigenResult", "Error", "GenerationFailed", "Hypergraph",
    "InfeasibleParams", "NoConvergence", "NotConnectedError",
    "NotRegularError", "ParseError", "RadialCheckResult", "SizeOverflow",
    "SolverConfig", "SpectralReport", "StrongOrthogonalSet", "UNREACHABLE",
    "CertificateError", "adjacency_form", "apply_adjacency",
    "build_strong_orthogonal_family", "complete_uniform", "diameter_and_path",
    "distances_from", "dumps_json", "emit_hypergraph", "emit_sweep_csv",
    "friedman_alternate", "g_hat_value", "g_value", "hypertree_ball",
    "is_acyclic", "lambda2_estimate", "lambda2_lower_certificate",
    "min_eccentricity_vertex", "mu_lower_certificate", "multi_center_vector",
    "parse_hypergraph", "radial_vector", "random_regular_linear",
    "regular_degree", "rho_lower_certificate", "shifted_form",
    "spectral_radius", "t_norm", "t_norm_pow", "threshold",
    "verify_g_monotone", "verify_radial_inequality",
]

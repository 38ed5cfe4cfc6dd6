"""Workbench for non-dual discrete Ring-LWE experiments.

Exact arithmetic in F_q / F_{q^2}, two ring families (prime-cyclotomic times
real quadratic, and 2-power cyclotomic), discrete Gaussian lattice sampling,
the two-bin and coset chi-square attacks, and a Fourier-analytic uniformity
estimator for reduced error distributions.
"""

from .ffield import FieldCtx, legendre, is_prime
from .rings import FamilyRing, CycloRing
from .sampling import GaussianSpec, BinomialSpec, RngHandle
from .oracle import RlweInstance, SampleSet, draw_rlwe, draw_uniform
from .attack import AttackConfig, AttackOutcome, two_bin_attack, coset_attack, critical_value
from .family import validate, search_q, extend_d
from .estimator import EstimateReport, epsilon, epsilon_deg2, theoretical_bound

__version__ = "0.1.0"

__all__ = [
    "FieldCtx", "legendre", "is_prime",
    "FamilyRing", "CycloRing",
    "GaussianSpec", "BinomialSpec", "RngHandle",
    "RlweInstance", "SampleSet", "draw_rlwe", "draw_uniform",
    "AttackConfig", "AttackOutcome", "two_bin_attack", "coset_attack", "critical_value",
    "validate", "search_q", "extend_d",
    "EstimateReport", "epsilon", "epsilon_deg2", "theoretical_bound",
]

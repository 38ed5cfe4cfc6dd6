"""Workbench for non-dual discrete Ring-LWE experiments.

Exact arithmetic in F_q / F_{q^2}, two ring families (prime-cyclotomic times
real quadratic, and 2-power cyclotomic), discrete Gaussian lattice sampling,
the two-bin and coset chi-square attacks, and a Fourier-analytic uniformity
estimator for reduced error distributions.
"""

__version__ = "0.1.0"

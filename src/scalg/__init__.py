"""Desk-scale exact computation of homotopy and Andre-Quillen homology
for finite-type simplicial commutative algebras over a field, together
with Poincare series bookkeeping and the boundedness audit built on it.

The layers, bottom up:

- ``exactfield``: exact linear algebra over F_p and the rationals with
  deterministic pivot choices.
- ``simplicial``: truncated simplicial vector spaces, the inverse Dold-Kan
  construction, normalized and unnormalized chains, homotopy.
- ``symalg``: symmetric powers and sphere algebras, sphere homotopy one
  weight at a time (decalage for one generator, Kunneth for more) with
  weight-stability certification, indecomposables, the Hurewicz
  comparison.
- ``barcof``: representing maps, the two-sided bar diagonal and its
  normalized chains on nondegenerate tuples, homotopy cofibers and the
  rational power-cofiber tables, LES feasibility.
- ``series``: truncated Poincare series, closed forms, the log_p
  transform and the growth-law table.
- ``audit``: envelope profiles, the series inequality chain, the
  boundedness contradiction, and the rational vanishing check.
- ``cli``: everything as subcommands with reproducible output.
"""

from .exactfield import (
    FieldSpec,
    FieldError,
    Mat,
    QQ,
    GF2,
    GF3,
    rank,
    kernel_basis,
    solve,
)
from .simplicial import (
    ChainComplex,
    GradedDims,
    HomotopyDims,
    SimplicialError,
    SimplicialVectorSpace,
    constant_object,
    eilenberg_maclane,
    gamma,
    zero_object,
)
from .symalg import (
    HomotopyReport,
    WeightGradedAlgebra,
    hurewicz,
    indecomposables,
    sphere_algebra,
    sphere_homotopy,
    sym_power_homology,
    symmetric_power,
)
from .barcof import (
    AlgebraMap,
    CofiberReport,
    CycleError,
    bar_diagonal,
    cofiber_homotopy,
    identity_map,
    les_feasibility,
    power_cofiber_tables,
    representing_map,
    zero_map,
)
from .series import (
    ClosedForm,
    TruncatedSeries,
    asymptotic_check,
    from_dims,
    leq,
    leq_report,
    mul,
    phi_eval,
    sphere_series_char0,
    sphere_series_charp,
    unit_series,
)
from .audit import (
    AuditVerdict,
    EnvelopeProfile,
    ProfileError,
    envelope_chain,
    rational_check,
    serre_audit,
    splitting_series,
)

__all__ = [
    "FieldSpec", "FieldError", "Mat", "QQ", "GF2", "GF3",
    "rank", "kernel_basis", "solve",
    "ChainComplex", "GradedDims", "HomotopyDims", "SimplicialError",
    "SimplicialVectorSpace", "constant_object", "eilenberg_maclane",
    "gamma", "zero_object",
    "HomotopyReport", "WeightGradedAlgebra", "hurewicz", "indecomposables",
    "sphere_algebra", "sphere_homotopy", "sym_power_homology",
    "symmetric_power",
    "AlgebraMap", "CofiberReport", "CycleError", "bar_diagonal",
    "cofiber_homotopy", "identity_map", "les_feasibility",
    "power_cofiber_tables", "representing_map", "zero_map",
    "ClosedForm", "TruncatedSeries", "asymptotic_check", "from_dims",
    "leq", "leq_report", "mul", "phi_eval", "sphere_series_char0",
    "sphere_series_charp", "unit_series",
    "AuditVerdict", "EnvelopeProfile", "ProfileError", "envelope_chain",
    "rational_check", "serre_audit", "splitting_series",
]

__version__ = "0.1.0"

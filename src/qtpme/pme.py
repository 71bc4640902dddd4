"""Stationary states, relaxation spectra, and structural symmetry checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Generator,
    ProbabilityVector,
    RateMatrix,
    SpectralInfo,
    generator_from_rates,
)
from .errors import NonUniqueStationary

#: relative tolerance for the structural flags
STRUCTURE_RTOL = 1e-12
#: singular values at most this times n times the largest one count as zero
KERNEL_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class StructureReport:
    """Symmetry-related structural flags of a rate matrix.

    ``symmetric`` implies ``doubly_stochastic`` implies a uniform stationary
    state; ``detailed_balance`` is evaluated at the computed stationary
    state and implies a purely real relaxation spectrum.
    """

    symmetric: bool
    doubly_stochastic: bool
    detailed_balance: bool
    stationary: ProbabilityVector
    null_dim: int


def kernel_dimension(g: Generator) -> int:
    """Numerical kernel dimension of the generator via singular values."""
    s = np.linalg.svd(g.m, compute_uv=False)
    if s[0] == 0.0:
        return g.n
    return int(np.sum(s <= KERNEL_RTOL * g.n * s[0]))


def stationary_distribution(g: Generator) -> ProbabilityVector:
    """Unique stationary probability vector of an ergodic generator.

    Solves the generator's null space with the normalization row appended
    (least squares on ``[m; 1'] p = [0; 1]``), then clamps sub-tolerance
    negative drift to zero.

    Raises
    ------
    NonUniqueStationary
        If the zero eigenvalue is degenerate (reducible chain); callers
        must not treat such a chain as ergodic.
    """
    null_dim = kernel_dimension(g)
    if null_dim != 1:
        raise NonUniqueStationary(null_dim)
    aug = np.vstack([g.m, np.ones(g.n)])
    rhs = np.zeros(g.n + 1)
    rhs[-1] = 1.0
    p, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    # explicit clamp of numerical drift; anything worse is a real failure
    p = np.where((p < 0.0) & (p > -1e-12), 0.0, p)
    return ProbabilityVector(p)


def spectrum(g: Generator) -> SpectralInfo:
    """All generator eigenvalues with the structural zero identified.

    Eigenvalues are sorted by descending real part, then ascending
    imaginary part.  For a 3-state generator the two nonzero roots satisfy
    the quadratic ``lam^2 + xi*lam + q = 0`` with ``xi`` the total rate sum
    and ``q`` the sum of the generator's principal 2x2 minors (see
    :func:`qtpme.monotonicity.discriminant`).
    """
    vals = np.linalg.eigvals(g.m)
    order = np.lexsort((vals.imag, -vals.real))
    vals = vals[order]
    null_dim = kernel_dimension(g)
    by_magnitude = np.argsort(np.abs(vals), kind="stable")
    zero_index = int(by_magnitude[0])
    nonzero = np.delete(vals, by_magnitude[:null_dim])
    gap = -float(nonzero.real.max()) if nonzero.size else 0.0
    return SpectralInfo(eigenvalues=vals, zero_index=zero_index, gap=gap, null_dim=null_dim)


def classify_structure(w: RateMatrix) -> StructureReport:
    """Evaluate symmetry, double stochasticity, and detailed balance.

    Flags use relative tolerance ``STRUCTURE_RTOL``; detailed balance is
    checked at the computed stationary state (flux ``p[n] w[m, n]`` against
    ``p[m] w[n, m]``).  Propagates :class:`NonUniqueStationary` from the
    stationary solve.
    """
    arr = w.w
    scale = max(1.0, float(np.abs(arr).max()))
    symmetric = bool(np.abs(arr - arr.T).max() <= STRUCTURE_RTOL * scale)
    row_sums = arr.sum(axis=1)
    col_sums = arr.sum(axis=0)
    doubly_stochastic = bool(np.abs(row_sums - col_sums).max() <= STRUCTURE_RTOL * scale)

    p = stationary_distribution(generator_from_rates(w))
    flux = arr * p.entries[np.newaxis, :]  # flux[m, n] = w[m, n] * p[n]
    flux_scale = max(1.0, float(np.abs(flux).max()))
    detailed_balance = bool(np.abs(flux - flux.T).max() <= STRUCTURE_RTOL * flux_scale)

    return StructureReport(
        symmetric=symmetric,
        doubly_stochastic=doubly_stochastic,
        detailed_balance=detailed_balance,
        stationary=p,
        null_dim=1,  # stationary_distribution has checked the kernel
    )


def structure_report_to_json(report: StructureReport) -> dict:
    return {
        "symmetric": report.symmetric,
        "doubly_stochastic": report.doubly_stochastic,
        "detailed_balance": report.detailed_balance,
        "stationary": [float(x) for x in report.stationary.entries],
        "null_dim": report.null_dim,
    }


def spectral_info_to_json(info: SpectralInfo) -> dict:
    return {
        "eigenvalues": [{"re": float(v.real), "im": float(v.imag)} for v in info.eigenvalues],
        "zero_index": info.zero_index,
        "gap": float(info.gap),
        "null_dim": info.null_dim,
    }

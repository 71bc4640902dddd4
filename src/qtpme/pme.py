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
    null_count,
    unit_scaled,
)
from .errors import NonUniqueStationary, ValidationError

#: relative tolerance for the structural flags
STRUCTURE_RTOL = 1e-12
#: largest forward error bound n*eps*s[0]/s[-2] a stationary state may carry
STATIONARY_BOUND = np.finfo(float).eps / 1e-12


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


def scaled_singular_values(g: Generator) -> tuple[np.ndarray, np.ndarray]:
    """The generator scaled exactly to unit size, and its singular values."""
    m, _ = unit_scaled(g.m)
    return m, np.linalg.svd(m, compute_uv=False)


def kernel_dimension(g: Generator) -> int:
    """Numerical kernel dimension of the generator under :func:`null_count`."""
    return null_count(scaled_singular_values(g)[1])


def stationary_distribution(g: Generator) -> ProbabilityVector:
    """Unique stationary probability vector of an ergodic generator.

    Solves the null space of the unit-scaled generator with the normalization
    row appended (least squares on ``[m*2**-e; 1'] p = [0; 1]``), then clamps
    sub-tolerance negative drift to zero.

    Raises
    ------
    NonUniqueStationary
        If the zero eigenvalue is degenerate (reducible chain) or its null
        vector is not certified; callers must not treat such a chain as ergodic.
    """
    m, s = scaled_singular_values(g)
    null_dim = null_count(s)
    if null_dim != 1:
        raise NonUniqueStationary(null_dim, f"stationary state is not unique: kernel dimension {null_dim}")
    bound = g.n * np.finfo(float).eps * s[0] / s[-2]
    if bound >= STATIONARY_BOUND:
        raise NonUniqueStationary(null_dim, f"stationary state is not certified: its forward error bound "
                                  f"n*eps*s[0]/s[-2] = {bound:.3e} exceeds {STATIONARY_BOUND:.1e}")
    aug = np.vstack([m, np.ones(g.n)])
    rhs = np.zeros(g.n + 1)
    rhs[-1] = 1.0
    p, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    # explicit clamp of numerical drift; anything worse is a real failure
    p = np.where((p < 0.0) & (p > -1e-12), 0.0, p)
    return ProbabilityVector(p)


def eigenvalues(g: Generator) -> np.ndarray:
    """Eigenvalues of the generator; an overflowed one is an input error."""
    vals = np.linalg.eigvals(g.m)
    if not np.isfinite(vals).all():
        raise ValidationError("generator eigenvalues overflow the float range")
    return vals


def spectrum(g: Generator) -> SpectralInfo:
    """All generator eigenvalues with the structural zero identified.

    Eigenvalues are sorted by descending real part, then ascending
    imaginary part.  For a 3-state generator the two nonzero roots satisfy
    the quadratic ``lam^2 + xi*lam + q = 0`` with ``xi`` the total rate sum
    and ``q`` the sum of the generator's principal 2x2 minors (see
    :func:`qtpme.monotonicity.discriminant`).
    """
    vals = eigenvalues(g)
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
    arr, _ = unit_scaled(w.w)  # sums cannot overflow at unit size
    scale = float(np.abs(arr).max())
    symmetric = bool(np.abs(arr - arr.T).max() <= STRUCTURE_RTOL * scale)
    row_sums = arr.sum(axis=1)
    col_sums = arr.sum(axis=0)
    doubly_stochastic = bool(np.abs(row_sums - col_sums).max() <= STRUCTURE_RTOL * scale)

    p = stationary_distribution(generator_from_rates(w))
    flux = arr * p.entries[np.newaxis, :]  # flux[m, n] = w[m, n] * p[n]
    flux_scale = float(np.abs(flux).max())
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

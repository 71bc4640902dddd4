"""Stationary states, relaxation spectra, and structural symmetry checks."""

from __future__ import annotations

import numpy as np

from .core import (
    Generator,
    ProbabilityVector,
    RateMatrix,
    SpectralInfo,
    _Frozen,
    generator_from_rates,
    null_count,
    unit_scaled,
)
from .errors import NonUniqueStationary, SolverError, ValidationError

#: a pair matches when it differs by at most this fraction of its larger number
STRUCTURE_RTOL = 1e-12


class StructureReport(_Frozen):
    """Symmetry-related structural flags of a rate matrix.

    ``symmetric`` implies ``doubly_stochastic`` implies a uniform stationary
    state; ``detailed_balance`` is evaluated at the computed stationary
    state and implies a purely real relaxation spectrum.  Each flag holds
    when every one of its pairs matches to ``STRUCTURE_RTOL`` of the
    pair's own size.  ``null_dim`` is 1, the number of closed classes of
    the rate graph (more raise instead).
    """

    __slots__ = ("symmetric", "doubly_stochastic", "detailed_balance", "stationary", "null_dim")

    def __init__(self, symmetric: bool, doubly_stochastic: bool, detailed_balance: bool,
                 stationary: ProbabilityVector, null_dim: int) -> None:
        self._set(symmetric=symmetric, doubly_stochastic=doubly_stochastic,
                  detailed_balance=detailed_balance, stationary=stationary, null_dim=null_dim)


def kernel_dimension(g: Generator) -> int:
    """Numerical kernel dimension of the generator under :func:`null_count`."""
    return null_count(np.linalg.svd(unit_scaled(g.m)[0], compute_uv=False))


def stationary_distribution(g: Generator) -> ProbabilityVector:
    """Unique stationary probability vector of the generator.

    Its closed class is found on the rate graph, as the states that every
    state reaches; transient states get exactly 0.  Grassmann-Taksar-Heyman
    elimination on the class subtracts nothing, so each entry is accurate
    to a few ``n*eps`` relative, whatever the conditioning of ``g``.

    Raises
    ------
    NonUniqueStationary
        If there is more than one closed class (``null_dim`` counts them).
    SolverError
        If a state's exit and inflow both underflow (rates ~300 decades apart).
    """
    eye = np.eye(g.n, dtype=bool)
    q, _ = unit_scaled(np.where(eye, 0.0, g.m.T))  # q[i, j] is the rate from i to j
    reach = (g.m.T > 0.0) | eye  # unscaled: the scaling may round a rate to 0
    for _ in range(g.n.bit_length()):
        reach = reach @ reach
    closed = np.flatnonzero(reach.all(axis=0))
    if closed.size == 0:  # count the distinct reach rows of recurrent states
        count = len(np.unique(reach[(reach.T | ~reach).all(axis=1)], axis=0))
        raise NonUniqueStationary(count, f"stationary state is not unique: {count} closed classes")
    closed = closed[np.argsort(-q[closed].sum(axis=1), kind="stable")]  # slowest folded first
    a = q[np.ix_(closed, closed)]
    exits = np.zeros(closed.size)
    for k in range(closed.size - 1, 0, -1):  # fold state k into states :k
        row = a[k, :k]
        exits[k] = row.sum()
        row /= exits[k] or 1.0  # an underflowed exit keeps its zero row
        a[:k, :k] += a[:k, k, None] * row
    pc = np.zeros(closed.size)
    pc[0] = 1.0
    for k in range(1, closed.size):  # add state k, keeping pc normalized
        inflow = pc[:k] @ a[:k, k]
        if not exits[k] + inflow:  # both underflowed, so their ratio is lost
            raise SolverError(f"stationary state underflows at state {closed[k] + 1}")
        pc[:k] *= exits[k] / (exits[k] + inflow)
        pc[k] = inflow / (exits[k] + inflow)
    p = np.zeros(g.n)
    p[closed] = pc
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

    Each flag is decided pair by pair: two numbers match when they differ
    by at most ``STRUCTURE_RTOL`` of the larger, so a pair of small rates
    is checked against its own size, not against the largest rate.  The
    pairs are ``w[m, n]`` and ``w[n, m]`` (symmetric), each state's in-sum
    and out-sum (doubly stochastic), and the fluxes ``p[n] w[m, n]`` and
    ``p[m] w[n, m]`` at the computed stationary state (detailed balance).
    Propagates the errors of :func:`stationary_distribution`.
    """
    def same(x, y):  # rates, sums and fluxes are nonnegative
        return bool((np.abs(x - y) <= STRUCTURE_RTOL * np.maximum(x, y)).all())

    arr, _ = unit_scaled(w.w)  # sums cannot overflow at unit size
    p = stationary_distribution(generator_from_rates(w))
    flux = arr * p.entries[np.newaxis, :]  # flux[m, n] = w[m, n] * p[n]
    return StructureReport(
        symmetric=same(arr, arr.T),
        doubly_stochastic=same(arr.sum(axis=1), arr.sum(axis=0)),
        detailed_balance=same(flux, flux.T),
        stationary=p,
        null_dim=1,  # stationary_distribution found one closed class
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

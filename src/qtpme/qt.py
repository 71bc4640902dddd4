"""Entropy/circulation decompositions of master-equation generators.

A generator G is rewritten as ``G = (n*P + K) @ sigma`` where P is the
centering projector, sigma is a symmetric entropy matrix in canonical
gauge, and K is antisymmetric with vanishing row and column sums.  Along
``dp/dt = (n*P + K) sigma p`` the total probability is exactly conserved
and S(p) = p' sigma p / 2 is nondecreasing, since the antisymmetric part
contributes nothing to dS/dt = n * |P sigma p|^2.

For N=2 and N=3 the decomposition is available in closed form.  For general N
the matching system becomes, on the zero-sum subspace, the linear Lyapunov
equation ``Gq Kq + Kq Gq' = n*(Gq - Gq')`` for the circulation ``Kq`` alone,
with ``Gq`` the generator restricted there.  It is solved in O(N^3), in the
eigenbasis of Gq or, when Gq is defective or nearly so, by the Newton
iteration for the matrix sign function; sigma then follows from one
well-conditioned solve.  When the stationary state is unique, Gq is Hurwitz
(its eigenvalues are the nonzero eigenvalues of G), so Kq is unique: the
decomposition exists, is unique, and its sigma, whose restriction inverts the
solution ``Y`` of ``Gq Y + Y Gq' = 2n*I``, is negative definite on the
zero-sum subspace.  :func:`decompose` picks the method by N; every answer,
closed forms included, is certified by its reconstruction residual.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import (
    K3_PATTERN,
    Generator,
    QTDecomposition,
    QuadraticEntropy,
    RateMatrix,
    generator_from_rates,
    null_count,
    unit_scaled,
)
from .errors import BadShape, DegenerateRatesWarning, NoConvergence, ValidationError


def qt_vector_field(qt: QTDecomposition, p) -> np.ndarray:
    """Evaluate dp/dt = (n*P + K) sigma p at a state p.

    The output always sums to zero: both n*P and K annihilate the all-ones
    covector, so the total probability is a conserved quantity of the
    field.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (qt.n,):
        raise BadShape(f"state has shape {p.shape}, expected ({qt.n},)")
    return qt.linear_operator() @ (qt.entropy.sigma @ p)


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of ``a``, taken at unit size so that no square overflows."""
    scaled, e = unit_scaled(a)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(scaled), e))


def reconstruction_residual(qt: QTDecomposition, g: Generator) -> float:
    """Frobenius norm of (n*P + K) sigma - m."""
    if g.n != qt.n:
        raise BadShape(f"generator dimension {g.n} does not match decomposition {qt.n}")
    return _frobenius(qt.linear_operator() @ qt.entropy.sigma - g.m)


def _certified(g: Generator, sigma, k_mat, r, tol=1e-8) -> QTDecomposition:
    """Decomposition (sigma, k_mat, r) of g, certified: ValidationError if
    |G|_F overflows, NoConvergence if the residual exceeds tol * |G|_F."""
    g_norm = _frobenius(g.m)
    if g_norm == np.inf:
        raise ValidationError("generator norm overflows the float range")
    entropy = QuadraticEntropy(sigma)
    residual = reconstruction_residual(QTDecomposition(entropy, k_mat, r, 0.0), g)
    if not residual <= tol * g_norm:
        raise NoConvergence(residual, tol * g_norm)
    return QTDecomposition(entropy, k_mat, r, residual)


def decompose_2state(w: RateMatrix) -> QTDecomposition:
    """Closed-form decomposition of a 2-state system.

    sigma = diag(-W21, -W12) and K = 0; the reconstruction is exact.
    """
    if w.n != 2:
        raise BadShape(f"expected N=2, got N={w.n}")
    sigma = np.diag([-w.w[1, 0], -w.w[0, 1]])
    return _certified(generator_from_rates(w), sigma, np.zeros((2, 2)), None)


def decompose_3state(w: RateMatrix) -> QTDecomposition:
    """Closed-form decomposition of a 3-state system.

    The circulation strength is r = omega / xi with
    omega = (a+d+e) - (b+c+f) and xi the total rate sum; the five entropy
    coefficients then follow from the linear matching system between the
    generator and (3*P + r*K3_PATTERN) sigma, solved by elimination in the
    gauge sigma[1, 2] = 0.

    An all-zero rate matrix (xi = 0) returns the zero decomposition and
    emits :class:`DegenerateRatesWarning`.
    """
    if w.n != 3:
        raise BadShape(f"expected N=3, got N={w.n}")
    g = generator_from_rates(w)
    (a, b, c, d, e, f), k = unit_scaled(w.coeffs)  # at unit size xi cannot overflow
    xi = a + b + c + d + e + f
    if xi == 0.0:
        warnings.warn(
            "all transition rates are zero; returning the trivial decomposition",
            DegenerateRatesWarning,
            stacklevel=2,
        )
        return _certified(g, np.zeros((3, 3)), np.zeros((3, 3)), 0.0)

    r = ((a + d + e) - (b + c + f)) / xi
    s, t = 1.0 - r, 1.0 + r

    # Column-wise matching of (3P + K) sigma against the generator, two
    # unknowns per column once the gauge zeroes the (2, 3) entry.
    alpha, big_b = np.linalg.solve(np.array([[2.0, -s], [-s, -t]]), np.array([c, d]))
    beta, big_c = np.linalg.solve(np.array([[2.0, -t], [-t, -s]]), np.array([e, f]))
    if abs(t) >= abs(s):
        big_a = (2.0 * alpha - s * beta - a) / t
    else:
        big_a = (2.0 * beta - t * alpha - b) / s

    sigma = np.ldexp(np.array([
        [big_a, alpha, beta],
        [alpha, big_b, 0.0],
        [beta, 0.0, big_c],
    ]), k)
    return _certified(g, sigma, r * K3_PATTERN, float(r))


def free_parameter_count(n: int) -> int:
    """Number of free parameters of the decomposition for dimension n.

    A gauge-fixed symmetric entropy matrix carries n(n+1)/2 - 1 entries and
    the admissible antisymmetric space carries (n-1)(n-2)/2, which together
    equal the n(n-1) independent rates of the master equation.
    """
    return (n * (n + 1)) // 2 - 1 + ((n - 1) * (n - 2)) // 2


def _ones_complement_basis(n: int) -> np.ndarray:
    """Deterministic orthonormal basis of the subspace orthogonal to 1."""
    seed = np.zeros((n, n))
    seed[:, 0] = 1.0
    seed[:, 1:] = np.eye(n)[:, : n - 1]
    q, _ = np.linalg.qr(seed)
    return q[:, 1:]


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _antisym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a - a.T)


def _residual(a: np.ndarray, k: np.ndarray, c: np.ndarray):
    """``r = c - (a k + k a')`` and whether it is at the rounding level,
    ``|r|_F <= 4 m eps (2 |a|_F |k|_F + |c|_F)`` (never on inf or NaN)."""
    r = c - (a @ k + k @ a.T)
    bound = 4.0 * a.shape[0] * np.finfo(float).eps * (
        2.0 * np.linalg.norm(a) * np.linalg.norm(k) + np.linalg.norm(c))
    return r, bool(np.linalg.norm(r) <= bound < np.inf)  # NaN fails both


def _sign_circulation(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Antisymmetric k with ``a @ k + k @ a.T = c`` for any Hurwitz ``a``,
    defective too, in O(m^3) by the scaled Newton iteration for the matrix
    sign function (Roberts 1980; Higham 2008, ch. 5): from ``A = a`` and
    ``Q = -c``, ``A <- (mu A + A^-1 / mu) / 2`` tends to -I and
    ``Q <- (mu Q + A^-1 Q A^-T / mu) / 2`` to ``2k``.  The steps depend on
    ``a`` alone and are replayed on the residual to refine k."""
    steps, x = [], a
    for _ in range(100):  # about ten steps; the cap ends a NaN run
        inv = np.linalg.inv(x)
        mu = np.sqrt(np.linalg.norm(inv) / np.linalg.norm(x))
        steps.append((inv, mu))
        x, prev = 0.5 * (mu * x + inv / mu), x
        if np.linalg.norm(x - prev) <= 1e-9 * np.sqrt(a.shape[0]):
            break
    steps.append((np.linalg.inv(x), 1.0))  # one unscaled step once converged
    k = np.zeros_like(c)
    for _ in range(4):  # the solve, then up to three refinements
        r, small = _residual(a, k, c)
        if small:
            break
        q = -r
        for inv, mu in steps:
            q = 0.5 * (mu * q + inv @ q @ inv.T / mu)
        k = k + 0.5 * _antisym(q)
    return k


def _circulation(a: np.ndarray, n: int) -> np.ndarray:
    """Antisymmetric k with ``a @ k + k @ a.T = n * (a - a.T)``, in O(m^3).

    With ``a = V diag(l) V^-1`` the equation splits into scalar ones,
    ``kt[i, j] = ct[i, j] / (l[i] + l[j])`` for ``ct = V^-1 c V^-T``, and
    ``k = V kt V'``, kept if at the rounding level (:func:`_residual`).  A
    defective or nearly defective ``a`` (ill-conditioned V) fails that test
    or makes the eigen step raise; :func:`_sign_circulation` answers then.
    """
    c = n * (a - a.T)
    with np.errstate(all="ignore"):
        try:
            lam, v = np.linalg.eig(a)
            ct = np.linalg.solve(v, np.linalg.solve(v, c).T).T
            kt = ct / (lam[:, None] + lam[None, :])
            np.fill_diagonal(kt, 0.0)  # ct is antisymmetric
            k = _antisym((v @ kt @ v.T).real)
            if _residual(a, k, c)[1]:
                return k
        except np.linalg.LinAlgError:
            pass
        return _sign_circulation(a, c)


def decompose_nstate(w: RateMatrix, tol: float = 1e-8) -> QTDecomposition:
    """Direct decomposition for arbitrary dimension.

    On the orthonormal zero-sum basis Q the matching system reduces to
    ``(n*I + Kq) Xq = Gq`` with ``Gq = Q' G Q``, ``Xq = Q' sigma Q``
    symmetric and ``Kq`` antisymmetric.  ``Xq = (n*I + Kq)^-1 Gq`` is
    symmetric exactly when ``Gq Kq + Kq Gq' = n*(Gq - Gq')``, a Lyapunov
    equation for the circulation alone.  On antisymmetric matrices the
    Lyapunov operator has the eigenvalues ``li + lj`` (i < j), the li being
    the eigenvalues of Gq.  When the stationary state is unique the li are
    the nonzero eigenvalues of G, all in the open left half-plane, so Kq is
    unique, and a pair sum stays clear of zero even when one eigenvalue
    nearly vanishes, as on a nearly reducible chain.  :func:`_circulation`
    solves it in O(n^3): in the eigenbasis of Gq, or by the matrix sign
    function when Gq is defective or nearly so, as on a one-way path.
    ``n*I + Kq`` is normal with eigenvalues of modulus at least n, so the
    solve for Xq is well conditioned and needs no refining.  ``Y = Xq^-1``
    solves ``Gq Y + Y Gq' = 2n*I``, so with Gq Hurwitz, Xq, and with it
    sigma on the zero-sum subspace, is negative definite.  The all-ones part
    of sigma follows from ``(n*I + Kq)^-1 Q' G 1``, and the canonical gauge
    ``sigma[n-2, n-1] = 0`` fixes the free shift.

    A reducible chain has zero-sum stationary directions, the kernel of Gq.
    Sigma vanishes on them (``Gq v = 0`` forces ``Xq v = 0``), so the
    Lyapunov equation is solved on the complement of the kernel, where the
    remaining eigenvalues of G keep it Hurwitz; with three or more closed
    classes two kernel eigenvalues would sum to zero.  The rows of Kq along
    the kernel follow from the matching system; its block within the
    kernel, free in that case, is set to zero.

    Success means the Frobenius reconstruction residual is at most ``tol``
    times the Frobenius norm of the generator, a bound that follows the
    rates through any change of time unit.

    Raises
    ------
    ValidationError, NoConvergence
        If |G|_F overflows; if the residual exceeds ``tol * |G|_F`` (inf
        when a solve fails), carrying the residual and the bound.
    """
    n = w.n
    generator = generator_from_rates(w)
    g, e = unit_scaled(generator.m)  # solve for g scaled exactly to unit size
    q = _ones_complement_basis(n)
    gq = q.T @ g @ q
    _, s, vt = np.linalg.svd(gq)
    rank = s.size - null_count(s)
    # Keep the zero-sum basis itself when the kernel is trivial.
    v = vt[:rank].T if rank < s.size else np.eye(rank)
    kernel = vt[rank:].T
    gv = v.T @ gq @ v
    try:
        kv = _circulation(gv, n)
        xv = _sym(np.linalg.solve(n * np.eye(rank) + kv, gv))
        # Kernel rows of (nI + Kq) Xq = Gq; the kernel-kernel block stays 0.
        off = kernel @ (kernel.T @ gq @ v @ np.linalg.inv(xv)) @ v.T
        kq = v @ kv @ v.T + off - off.T
        b = q @ np.linalg.solve(n * np.eye(n - 1) + kq, q.T @ g.sum(axis=1)) / n
    except np.linalg.LinAlgError:
        raise NoConvergence(float("inf"), tol * _frobenius(generator.m)) from None
    sigma = _sym(q @ v @ xv @ v.T @ q.T + b[:, None] + b[None, :])
    sigma = np.ldexp(sigma - sigma[n - 2, n - 1], e)
    k_mat = _antisym(q @ kq @ q.T)
    return _certified(generator, sigma, k_mat, float(k_mat[0, 1]) if n == 3 else None, tol)


def decompose(w: RateMatrix) -> QTDecomposition:
    """Decomposition by dimension: the closed forms for N=2 and N=3, the
    direct solve of :func:`decompose_nstate` otherwise."""
    if w.n == 2:
        return decompose_2state(w)
    if w.n == 3:
        return decompose_3state(w)
    return decompose_nstate(w)


def decomposition_to_json(qt: QTDecomposition) -> dict:
    """Serialize to the documented schema {"n", "sigma", "k", "r", "residual"}."""
    return {
        "n": qt.n,
        "sigma": [[float(x) for x in row] for row in qt.entropy.sigma],
        "k": [[float(x) for x in row] for row in qt.k_mat],
        "r": None if qt.r is None else float(qt.r),
        "residual": float(qt.residual),
    }

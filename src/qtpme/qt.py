"""Entropy/circulation decompositions of master-equation generators.

A generator G is rewritten as ``G = (n*P + K) @ sigma`` where P is the
centering projector, sigma is a symmetric entropy matrix in canonical
gauge, and K is antisymmetric with vanishing row and column sums.  Along
``dp/dt = (n*P + K) sigma p`` the total probability is exactly conserved
and S(p) = p' sigma p / 2 is nondecreasing, since the antisymmetric part
contributes nothing to dS/dt = n * |P sigma p|^2.

For N=2 and N=3 the decomposition is available in closed form.  For
general N the matching system becomes, on the zero-sum subspace, the linear
Lyapunov equation ``Gq Y + Y Gq' = 2n*I`` with ``Gq`` the generator
restricted there and ``Y`` the inverse of sigma restricted there.  When the
stationary state is unique, Gq is Hurwitz (its eigenvalues are the nonzero
eigenvalues of G), so Y exists, is unique and is negative definite: the
decomposition exists, is unique, and its sigma is negative definite on the
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


def _exponent(g: Generator) -> int:
    """Binary exponent of max|m|; scaling by its power of two is exact."""
    return int(np.frexp(np.abs(g.m).max())[1])


def _frobenius(a: np.ndarray, g: Generator) -> float:
    """Frobenius norm of ``a``, taken on ``a`` scaled by the exponent of g so
    that no entry of the order of g overflows when squared."""
    e = _exponent(g)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(np.ldexp(a, -e)), e))


def reconstruction_residual(qt: QTDecomposition, g: Generator) -> float:
    """Frobenius norm of (n*P + K) sigma - m."""
    if g.n != qt.n:
        raise BadShape(f"generator dimension {g.n} does not match decomposition {qt.n}")
    return _frobenius(qt.linear_operator() @ qt.entropy.sigma - g.m, g)


def _certified(g: Generator, sigma, k_mat, r, tol=1e-8, steps=0) -> QTDecomposition:
    """Decomposition (sigma, k_mat, r) of g, certified: ValidationError if
    |G|_F overflows, NoConvergence if the residual exceeds tol * |G|_F."""
    g_norm = _frobenius(g.m, g)
    if g_norm == np.inf:
        raise ValidationError("generator norm overflows the float range")
    entropy = QuadraticEntropy(sigma)
    residual = reconstruction_residual(QTDecomposition(entropy, k_mat, r, 0.0), g)
    if not residual <= tol * g_norm:
        raise NoConvergence(residual, steps)
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
    a, b, c, d, e, f = w.coeffs
    g = generator_from_rates(w)
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

    sigma = np.array([
        [big_a, alpha, beta],
        [alpha, big_b, 0.0],
        [beta, 0.0, big_c],
    ])
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


#: machine epsilon; eps * |c| * |x| is the rounding floor of the residual of c @ x
_EPS = np.finfo(float).eps
#: most Newton steps that polish the direct solve
_NEWTON_STEPS = 3


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _antisym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a - a.T)


def _lyapunov(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``a @ y + y @ a.T = rhs`` through its Kronecker form."""
    m = a.shape[0]
    eye = np.eye(m)
    y = np.linalg.solve(np.kron(a, eye) + np.kron(eye, a), rhs.ravel())
    return _sym(y.reshape(m, m))


def _newton_update(c: np.ndarray, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Newton update u for the matching system ``c @ x = g`` with residual r.

    Here ``c = n*I + k`` with k antisymmetric and x symmetric.  The
    symmetric part of u updates x and its antisymmetric part updates k:
    ``c @ sym(u) + antisym(u) @ x = r``, solved in Kronecker form.
    """
    m = x.shape[0]
    eye = np.eye(m)
    swap = np.arange(m * m).reshape(m, m).T.ravel()  # vec(u) -> vec(u.T)
    left, right = np.kron(c, eye), np.kron(eye, x)
    operator = 0.5 * (left + left[:, swap] + right - right[:, swap])
    return np.linalg.solve(operator, r.ravel()).reshape(m, m)


def decompose_nstate(w: RateMatrix, tol: float = 1e-8) -> QTDecomposition:
    """Direct decomposition for arbitrary dimension.

    On the orthonormal zero-sum basis Q the matching system reduces to
    ``(n*I + Kq) Xq = Gq`` with ``Gq = Q' G Q``, ``Xq = Q' sigma Q``
    symmetric and ``Kq`` antisymmetric.  With ``Y = Xq^-1`` the symmetric
    part of ``Gq Y`` must be ``n*I``: the linear Lyapunov equation
    ``Gq Y + Y Gq' = 2n*I``.  When the stationary state is unique, Gq
    carries the nonzero eigenvalues of G, all in the open left half-plane,
    so Gq is Hurwitz; Y is then unique and negative definite, and so is
    sigma on the zero-sum subspace.  The all-ones part of sigma follows from
    ``(n*I + Kq)^-1 Q' G 1`` and the canonical gauge ``sigma[n-2, n-1] = 0``
    fixes the free shift.

    A reducible chain has zero-sum stationary directions, the kernel of Gq.
    Sigma vanishes on them (``Gq v = 0`` forces ``Xq v = 0``), so the
    Lyapunov equation is solved on the complement of the kernel, where the
    remaining eigenvalues of G keep it Hurwitz.  The rows of Kq along the
    kernel follow from the matching system; its block within the kernel,
    free when the chain has three or more closed classes, is set to zero.

    Rates spanning many decades or a nearly reducible chain make the
    Lyapunov operator ill-conditioned, so up to three Newton steps on the
    matching system polish the solve until its residual reaches rounding
    level.  Success means the Frobenius reconstruction residual is at most
    ``tol`` times the Frobenius norm of the generator, a bound that follows
    the rates through any change of time unit.

    Raises
    ------
    ValidationError, NoConvergence
        If |G|_F overflows; if the residual exceeds ``tol * |G|_F`` (inf
        when a solve fails), carrying the residual and Newton steps taken.
    """
    n = w.n
    generator = generator_from_rates(w)
    e = _exponent(generator)  # solve for g scaled exactly into [-1, 1]
    g = np.ldexp(generator.m, -e)
    q = _ones_complement_basis(n)
    gq = q.T @ g @ q
    _, s, vt = np.linalg.svd(gq)
    rank = int(np.count_nonzero(s > s[0] * s.size * _EPS))
    # Keep the zero-sum basis itself when the kernel is trivial.
    v = vt[:rank].T if rank < s.size else np.eye(rank)
    kernel = vt[rank:].T
    gv = v.T @ gq @ v
    n_eye = n * np.eye(rank)
    steps = 0
    try:
        kv = _antisym(gv @ _lyapunov(gv, 2.0 * n_eye) - n_eye)
        xv = _sym(np.linalg.solve(n_eye + kv, gv))
        for _ in range(_NEWTON_STEPS):
            c = n_eye + kv
            rv = gv - c @ xv
            if np.linalg.norm(rv) <= _EPS * np.linalg.norm(c) * np.linalg.norm(xv):
                break
            u = _newton_update(c, xv, rv)
            xv, kv = xv + _sym(u), kv + _antisym(u)
            steps += 1
        # Kernel rows of (nI + Kq) Xq = Gq; the kernel-kernel block stays 0.
        off = kernel @ (kernel.T @ gq @ v @ np.linalg.inv(xv)) @ v.T
        kq = v @ kv @ v.T + off - off.T
        b = q @ np.linalg.solve(n * np.eye(n - 1) + kq, q.T @ g.sum(axis=1)) / n
    except np.linalg.LinAlgError:
        raise NoConvergence(float("inf"), steps) from None
    sigma = _sym(q @ v @ xv @ v.T @ q.T + b[:, None] + b[None, :])
    sigma = np.ldexp(sigma - sigma[n - 2, n - 1], e)
    k_mat = _antisym(q @ kq @ q.T)
    return _certified(generator, sigma, k_mat, float(k_mat[0, 1]) if n == 3 else None, tol, steps)


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

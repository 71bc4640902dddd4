"""Shared domain types, validation, and conventions.

Index convention used throughout: ``w[dest][src]`` holds the transition
rate from state ``src`` to state ``dest`` (rows are destinations), so the
master equation reads as the matrix-vector product ``dp/dt = m @ p`` with
``m`` the generator.  For three-state systems the six off-diagonal rates
carry the conventional names::

    a = w[2][1]   b = w[3][1]   c = w[1][2]
    d = w[3][2]   e = w[1][3]   f = w[2][3]     (1-based indices)

Entropy matrices are defined up to a multiple of the all-ones rank-one
form; the canonical gauge zeroes the entry ``sigma[N-2][N-1]`` (0-based),
which for N=3 is the coefficient coupling states 2 and 3.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import BadShape, NegativeRate, NonzeroDiagonal, ValidationError

#: tolerated negative drift on probability entries
TOL_P = 1e-12
#: tolerated deviation from 1 of the sum of a probability vector or trajectory state
TOL_SUM = 1e-9

_N3_COEFF_INDEX = {
    "a": (1, 0), "b": (2, 0), "c": (0, 1),
    "d": (2, 1), "e": (0, 2), "f": (1, 2),
}
#: canonical coefficient order for 3-state rate matrices
COEFF_NAMES = ("a", "b", "c", "d", "e", "f")


def _frozen_array(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class _Frozen:
    """Base of the immutable result classes.

    A subclass lists its fields in ``__slots__``, in the order of its
    ``__init__`` parameters, and sets each one with :meth:`_set`.  After
    that, assigning or deleting an attribute raises ``AttributeError``.
    ``repr`` names every field, pickling and copying rebuild the object
    through ``__init__`` (so its checks run again), and equality and hash
    are by identity.  Plain classes, not dataclasses: generating the
    dataclass methods cost about 11 ms of every command's start-up (on a
    2-vCPU machine).
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        if "__init__" in vars(cls):
            # postponed annotations leave the string 'None'; the signature shows
            # the object, as it did for the dataclasses these classes replace
            cls.__init__.__annotations__["return"] = None

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class _FrozenValue(_Frozen):
    """A :class:`_Frozen` class compared and hashed by its field values."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())


class ProbabilityVector(_Frozen):
    """Nonnegative vector summing to one (within drift tolerances)."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray) -> None:
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise BadShape(f"probability vector must be 1-D with >= 2 entries, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("probability vector has non-finite entries")
        if arr.min() < -TOL_P:
            raise ValidationError(
                f"probability entry {arr.min()!r} below -{TOL_P:g}"
            )
        total = arr.sum()
        if abs(total - 1.0) > TOL_SUM:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1 within {TOL_SUM:g}")
        self._set(entries=_frozen_array(arr))

    @property
    def n(self) -> int:
        return self.entries.size

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)


class RateMatrix(_Frozen):
    """Nonnegative transition rates with ``w[dest][src]`` orientation.

    The diagonal is identically zero; there is no self-transition rate.
    Construct through :func:`validate_rates` (or the ``from_coeffs``
    classmethod for 3-state systems); direct construction runs the same
    checks.
    """

    __slots__ = ("w",)

    def __init__(self, w: np.ndarray) -> None:
        arr = np.asarray(w, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise BadShape(f"rate matrix must be square with N >= 2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise BadShape("rate matrix has non-finite entries")
        n = arr.shape[0]
        for i in range(n):
            if arr[i, i] != 0.0:
                raise NonzeroDiagonal(i + 1, float(arr[i, i]))
        neg = (arr < 0.0)
        if neg.any():
            i, j = np.argwhere(neg)[0]
            raise NegativeRate(int(i) + 1, int(j) + 1, float(arr[i, j]))
        self._set(w=_frozen_array(arr))

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @classmethod
    def from_coeffs(cls, a, b, c, d, e, f) -> "RateMatrix":
        """Build a 3-state rate matrix from the named coefficients."""
        return cls(np.array([[0.0, c, e], [a, 0.0, f], [b, d, 0.0]]))

    def _named(self, name):
        if self.n != 3:
            raise BadShape(f"named rate '{name}' is defined for N=3 only (N={self.n})")
        i, j = _N3_COEFF_INDEX[name]
        return float(self.w[i, j])

    # Named accessors for the 3-state case.
    @property
    def a(self): return self._named("a")

    @property
    def b(self): return self._named("b")

    @property
    def c(self): return self._named("c")

    @property
    def d(self): return self._named("d")

    @property
    def e(self): return self._named("e")

    @property
    def f(self): return self._named("f")

    @property
    def coeffs(self):
        """(a, b, c, d, e, f) for a 3-state matrix."""
        return tuple(self._named(name) for name in COEFF_NAMES)


class Generator(_Frozen):
    """Master-equation operator: off-diagonal rates, columns summing to zero."""

    __slots__ = ("m",)

    def __init__(self, m: np.ndarray) -> None:
        arr = np.asarray(m, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise BadShape(f"generator must be square with N >= 2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            # finite rates can still overflow a diagonal column sum
            raise ValidationError("generator has non-finite entries")
        off = arr - np.diag(np.diag(arr))
        if off.min() < 0.0:
            raise ValidationError("generator has a negative off-diagonal entry")
        if np.diag(arr).max() > 0.0:
            raise ValidationError("generator has a positive diagonal entry")
        with np.errstate(over="ignore"):  # an overflowed sum fails the check
            off_sums = off.sum(axis=0)
        worst = np.abs(np.diag(arr) + off_sums).max()
        if not worst <= 1e-12 * np.abs(arr).max():
            raise ValidationError(f"generator columns do not sum to zero (max |sum| = {worst:.3e})")
        np.fill_diagonal(off, -off_sums)  # rebuilt: the exact kernel stays within the rank rule
        self._set(m=_frozen_array(off))

    @property
    def n(self) -> int:
        return self.m.shape[0]


class QuadraticEntropy(_Frozen):
    """Quadratic state function S(p) = p' sigma p / 2 with symmetric sigma."""

    __slots__ = ("sigma",)

    def __init__(self, sigma: np.ndarray) -> None:
        arr = np.asarray(sigma, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise BadShape(f"entropy matrix must be square with N >= 2, got shape {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise ValidationError("entropy matrix must be exactly symmetric")
        self._set(sigma=_frozen_array(arr))

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    def gradient(self, p) -> np.ndarray:
        return self.sigma @ np.asarray(p, dtype=float)

    @property
    def in_canonical_gauge(self) -> bool:
        return self.sigma[self.n - 2, self.n - 1] == 0.0

    def canonicalized(self) -> "QuadraticEntropy":
        """Shift by the all-ones form so sigma[N-2, N-1] becomes exactly zero."""
        shift = self.sigma[self.n - 2, self.n - 1]
        if shift == 0.0:
            return self
        return QuadraticEntropy(self.sigma - shift * np.ones((self.n, self.n)))


def unit_scaled(a) -> tuple[np.ndarray, int]:
    """``(a / 2**e, e)`` with max|a| / 2**e in [1, 2); exact unless an entry
    falls 2**1022 or more below the largest.  All-zero input gives e = -1."""
    e = int(np.frexp(np.abs(a).max())[1]) - 1
    return np.ldexp(a, -e), e


def null_count(s) -> int:
    """Rank rule: singular values at most ``size*eps*s[0]`` count as zero."""
    return int(np.count_nonzero(s <= s.size * np.finfo(float).eps * s[0]))


def uniform_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.linspace(lo, hi, n)`` for finite ``0 <= lo <= hi``.  Near the top
    of the float range the last point's ``(n-1) * step`` can round up to inf
    before linspace sets that point to ``hi``; the overflow is not reported."""
    with np.errstate(over="ignore"):
        return np.linspace(lo, hi, n)


def centering_projector(n: int) -> np.ndarray:
    """Orthogonal projector onto the zero-sum subspace: I - J/n."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


#: generator of the 1-parameter antisymmetric family for N=3
K3_PATTERN = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])


class QTDecomposition(_Frozen):
    """Entropy matrix plus antisymmetric circulation reproducing a generator.

    The reconstructed vector field is ``dp/dt = (n*P + k_mat) @ sigma @ p``
    with ``P`` the centering projector; the total probability is conserved
    because both ``n*P`` and ``k_mat`` annihilate the all-ones covector.
    ``r`` is the scalar circulation strength, defined for N=3 only, where
    ``k_mat = r * K3_PATTERN``.
    """

    __slots__ = ("entropy", "k_mat", "r", "residual")

    def __init__(self, entropy: QuadraticEntropy, k_mat: np.ndarray, r: float | None,
                 residual: float) -> None:
        k = np.asarray(k_mat, dtype=float)
        n = entropy.n
        if k.shape != (n, n):
            raise BadShape(f"k_mat shape {k.shape} does not match entropy dimension {n}")
        scale = max(1.0, np.abs(k).max())
        if np.abs(k + k.T).max() > 1e-12 * scale:
            raise ValidationError("k_mat must be antisymmetric")
        if max(np.abs(k.sum(axis=0)).max(), np.abs(k.sum(axis=1)).max()) > 1e-12 * scale:
            raise ValidationError("k_mat row and column sums must vanish")
        self._set(entropy=entropy, k_mat=_frozen_array(k), r=r, residual=residual)

    @property
    def n(self) -> int:
        return self.entropy.n

    def linear_operator(self) -> np.ndarray:
        """The matrix n*P + K applied to entropy gradients."""
        return self.n * centering_projector(self.n) + self.k_mat


class SpectralInfo(_Frozen):
    """Eigenvalues of a generator, sorted by descending real part then
    ascending imaginary part, with the structural zero flagged."""

    __slots__ = ("eigenvalues", "zero_index", "gap", "null_dim")

    def __init__(self, eigenvalues: np.ndarray, zero_index: int, gap: float,
                 null_dim: int) -> None:
        self._set(eigenvalues=_frozen_array(eigenvalues, dtype=complex), zero_index=zero_index,
                  gap=gap, null_dim=null_dim)


class RelaxationKind(enum.Enum):
    MONOTONIC = "M"
    OSCILLATORY = "O"
    BOUNDARY = "B"


class RelaxationClass(_FrozenValue):
    """Verdict on a 3-state relaxation spectrum plus the quantities behind it.

    ``discriminant`` is xi^2 - 4q for the nonzero eigenvalue pair of the
    generator; negative values mean a complex pair (oscillatory decay).
    """

    __slots__ = ("kind", "discriminant", "xi", "eta", "q")

    def __init__(self, kind: RelaxationKind, discriminant: float, xi: float, eta: float,
                 q: float) -> None:
        self._set(kind=kind, discriminant=discriminant, xi=xi, eta=eta, q=q)

    @property
    def code(self) -> str:
        return self.kind.value


class UVWCoordinates(_FrozenValue):
    """Difference coordinates of a 3-state rate matrix.

    k_c = e - c, l = f - a, m_c = b - d, omega = (a+d+e) - (b+c+f),
    u = l + m_c, v = l - m_c.  The identity k_c = omega + l + m_c holds by
    construction.
    """

    __slots__ = ("k_c", "l", "m_c", "omega", "u", "v")

    def __init__(self, k_c: float, l: float, m_c: float, omega: float, u: float,
                 v: float) -> None:
        self._set(k_c=k_c, l=l, m_c=m_c, omega=omega, u=u, v=v)


def validate_rates(raw) -> RateMatrix:
    """Validate a raw square array of transition rates.

    Parameters
    ----------
    raw : array_like
        Square array with ``raw[dest][src]`` orientation, zero diagonal,
        nonnegative off-diagonal entries.

    Returns
    -------
    RateMatrix

    Raises
    ------
    BadShape, NegativeRate, NonzeroDiagonal
        Offending indices are reported 1-based.
    """
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadShape(f"rates must be a square array of numbers: {exc}") from exc
    return RateMatrix(arr)


def generator_from_rates(w: RateMatrix) -> Generator:
    """Build the master-equation generator from validated rates.

    Off-diagonal entries equal the rates; each diagonal entry is minus the
    sum of its column's off-diagonal entries, so columns sum to zero and
    total probability is conserved by ``dp/dt = m @ p``.
    """
    m = np.array(w.w, dtype=float)  # the diagonal of w is zero
    with np.errstate(over="ignore"):  # an overflowed sum is rejected by Generator
        np.fill_diagonal(m, -m.sum(axis=0))
    return Generator(m)


def rate_matrix_to_json(w: RateMatrix) -> dict:
    """Serialize to the documented schema {"n": N, "rates": [[...]]}."""
    return {"n": w.n, "rates": [[float(x) for x in row] for row in w.w]}


def rate_matrix_from_json(obj) -> RateMatrix:
    """Parse the documented rate-matrix schema.

    ``rates`` is a list of rows of JSON numbers (``true``/``false`` are not
    rates), rows are destinations, the diagonal must be zero, and the
    optional ``n`` must be a JSON integer matching the array shape.  Values
    are read as IEEE doubles.
    """
    if not isinstance(obj, dict):
        raise BadShape("rate-matrix document must be a JSON object")
    if "rates" not in obj:
        raise BadShape('rate-matrix document is missing the "rates" key')
    rates = obj["rates"]
    # bool is a subclass of int, but a JSON true/false is not a number
    if not (isinstance(rates, list) and all(isinstance(row, list) for row in rates)
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for row in rates for x in row)):
        raise BadShape('"rates" must be a list of rows of numbers (not true/false)')
    w = validate_rates(rates)
    n = obj.get("n", w.n)
    if isinstance(n, bool) or not isinstance(n, int):
        raise BadShape(f'declared "n" = {n!r} is not an integer')
    if n != w.n:
        raise BadShape(f'declared "n" = {n} does not match rates shape {w.n}')
    return w

"""Monotonic-versus-oscillatory classification of 3-state relaxation.

The two nonzero generator eigenvalues solve lam^2 + xi*lam + q = 0, so the
sign of D = xi^2 - 4q decides between a real pair (monotonic decay) and a
complex pair (damped oscillation).  In the difference coordinates
(u, v, omega) the same quantity reads D = 3u^2 + v^2 + 4*omega*u + omega^2,
whose zero set is an ellipse that collapses to a point when omega = 0: with
balanced rate sums no oscillatory region exists at all.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    COEFF_NAMES,
    RateMatrix,
    RelaxationClass,
    RelaxationKind,
    UVWCoordinates,
    _Frozen,
    _frozen_array,
    check_count,
    uniform_grid,
    unit_scaled,
)
from .errors import BadAxis, BadShape, ValidationError

#: relative width of the boundary band around D = 0 (scaled by xi^2, so
#: the class does not depend on the time unit of the rates)
TOL_B = 1e-9

#: the class code of each class index 0/1/2
_LETTERS = np.array(["O", "B", "M"])

#: grid cells per block of a sweep, at least one grid row: the formula's
#: temporaries stay small and no full-grid temporary exists
_BLOCK_CELLS = 1 << 14


class RegionMap(_Frozen):
    """Grid of relaxation classes over two varied rate coefficients.

    ``classes[i][j]`` and ``discriminants[i][j]`` describe the cell at
    ``grid1[i]``, ``grid2[j]``; class codes are 'M', 'O', 'B'.
    """

    __slots__ = ("axis1", "axis2", "grid1", "grid2", "classes", "discriminants",
                 "fraction_oscillatory")

    def __init__(self, axis1: str, axis2: str, grid1: np.ndarray, grid2: np.ndarray,
                 classes: np.ndarray, discriminants: np.ndarray,
                 fraction_oscillatory: float) -> None:
        if classes.shape != (grid1.size, grid2.size):
            raise BadShape("classes shape does not match the grids")
        if not 0.0 <= fraction_oscillatory <= 1.0:
            raise ValidationError("fraction_oscillatory must lie in [0, 1]")
        self._set(axis1=axis1, axis2=axis2, grid1=_frozen_array(grid1, dtype=None),
                  grid2=_frozen_array(grid2, dtype=None),
                  classes=_frozen_array(classes, dtype=None),
                  discriminants=_frozen_array(discriminants, dtype=None),
                  fraction_oscillatory=fraction_oscillatory)


def discriminant_values(a, b, c, d, e, f):
    """Vectorized (D, xi, q) from coefficient arrays.

    q is the sum of the generator's principal 2x2 minors, evaluated
    directly so that grid sweeps need no eigensolver.  Expanded, the minors
    cancel to nine positive products, so q is formed by additions only and
    is accurate to a few eps relative however far apart the rates lie.
    """
    xi = a + b + c + d + e + f
    q = a * (d + e + f) + b * (c + d + f) + c * (e + f) + d * e
    return xi * xi - 4.0 * q, xi, q


def _unscaled(x, e, out=None):
    """``x * 2**e``, into ``out`` if given; ValidationError where the rates
    overflow it."""
    with np.errstate(over="ignore"):
        x = np.ldexp(x, e, out=out)
    if not np.isfinite(x).all():
        raise ValidationError("discriminant is not finite: the rates are too large for xi^2 - 4q")
    return x


def _class_index(disc, xi):
    """Class index 0/1/2 (O/B/M) of a discriminant against its boundary
    band ``TOL_B * (xi * xi)``, as int8; all-zero rates (xi = 0, D = 0)
    fall on the boundary."""
    band = TOL_B * (xi * xi)
    index = np.ones(np.broadcast(disc, band).shape, np.int8)
    index += disc > band
    index -= disc < -band
    return index


def classify_discriminant(disc, xi):
    """Class code 'O', 'B' or 'M' of each discriminant: the letter of its
    class index."""
    return _LETTERS[_class_index(disc, xi)]


def discriminant(w: RateMatrix) -> RelaxationClass:
    """Classify a 3-state rate matrix by the sign of D = xi^2 - 4q.

    D < 0 means the nonzero eigenvalue pair is complex (oscillatory
    relaxation), D > 0 a distinct real pair (monotonic relaxation), and
    |D| within the boundary band a repeated root, all decided at unit size.
    """
    if w.n != 3:
        raise BadShape(f"expected N=3, got N={w.n}")
    coeffs, e = unit_scaled(w.coeffs)
    disc, xi, q = discriminant_values(*coeffs)
    code = str(classify_discriminant(disc, xi))
    disc, xi, q = _unscaled([disc, xi, q], [2 * e, e, 2 * e])
    return RelaxationClass(
        kind=RelaxationKind(code), discriminant=float(disc), xi=float(xi),
        eta=w.c + w.d + w.f, q=float(q),
    )


def uvw(w: RateMatrix) -> UVWCoordinates:
    """Difference coordinates of a 3-state rate matrix."""
    if w.n != 3:
        raise BadShape(f"expected N=3, got N={w.n}")
    a, b, c, d, e, f = w.coeffs
    k_c = e - c
    l = f - a
    m_c = b - d
    omega = (a + d + e) - (b + c + f)
    return UVWCoordinates(k_c=k_c, l=l, m_c=m_c, omega=omega, u=l + m_c, v=l - m_c)


def ellipse_value(coords: UVWCoordinates) -> float:
    """3u^2 + v^2 + 4*omega*u + omega^2; identically equal to the
    discriminant of the same rate matrix."""
    u, v, omega = coords.u, coords.v, coords.omega
    return 3.0 * u * u + v * v + 4.0 * omega * u + omega * omega


def _sweep_blocks(template: RateMatrix, axis1: str, axis2: str, ranges, resolution):
    """Validate a sweep and return its two grids and a function whose every
    call evaluates the grid anew, yielding ``(rows, cols, D, index)`` per
    block of about ``_BLOCK_CELLS`` cells in row-major order: the grid's
    row and column slices, the discriminants and the int8 class indices
    (0/1/2 = O/B/M).  A block is whole grid rows, or part of one row when a
    row is wider.  Each block is classified at unit size; one whose D
    overflows once scaled back raises ValidationError.  The D and index
    arrays it yields are fresh, so a caller may keep them.
    """
    if template.n != 3:
        raise BadShape(f"expected N=3 template, got N={template.n}")
    for axis in (axis1, axis2):
        if axis not in COEFF_NAMES:
            raise BadAxis(f"unknown axis {axis!r}; expected one of {COEFF_NAMES}")
    if axis1 == axis2:
        raise BadAxis(f"axes must be distinct, got {axis1!r} twice")
    try:
        (lo1, hi1), (lo2, hi2) = ranges
    except (TypeError, ValueError):
        raise BadAxis(f"ranges must be a pair of (lo, hi) pairs, got {ranges!r}") from None
    try:
        steps1, steps2 = resolution
    except TypeError:  # one count for both axes
        steps1 = steps2 = resolution
    except ValueError:
        raise BadAxis(f"resolution must be a count or a pair of counts, "
                      f"got {resolution!r}") from None
    for axis, lo, hi, steps in ((axis1, lo1, hi1, steps1), (axis2, lo2, hi2, steps2)):
        if not 0.0 <= lo <= hi < math.inf:
            raise BadAxis(f"axis {axis!r} needs finite bounds 0 <= lo <= hi, "
                          f"got lo={lo!r}, hi={hi!r}")
        check_count(steps, f"axis {axis!r} steps (--vary)", BadAxis)
        if steps < 1:
            raise BadAxis(f"axis {axis!r} needs steps >= 1, got {steps}")

    grid1 = uniform_grid(lo1, hi1, steps1)
    grid2 = uniform_grid(lo2, hi2, steps2)
    # The fixed coefficients stay scalars and the axes broadcast, so only
    # the formula's intermediates, at unit size, take the block's shape.
    values = {**dict(zip(COEFF_NAMES, template.coeffs)), axis1: hi1, axis2: hi2}
    scaled, e = unit_scaled([values[name] for name in COEFF_NAMES])
    values = dict(zip(COEFF_NAMES, scaled))
    scaled1, scaled2 = np.ldexp(grid1, -e)[:, None], np.ldexp(grid2, -e)[None, :]
    height = max(1, _BLOCK_CELLS // grid2.size)
    width = min(grid2.size, _BLOCK_CELLS)

    def blocks():
        for row in range(0, grid1.size, height):
            rows = slice(row, row + height)
            for col in range(0, grid2.size, width):
                cols = slice(col, col + width)
                v = {**values, axis1: scaled1[rows], axis2: scaled2[:, cols]}
                disc, xi, _ = discriminant_values(*(v[name] for name in COEFF_NAMES))
                index = _class_index(disc, xi)
                yield rows, cols, _unscaled(disc, 2 * e, out=disc), index

    return grid1, grid2, blocks


def sweep(
    template: RateMatrix,
    axis1: str,
    axis2: str,
    ranges,
    resolution,
    jobs: int = 1,
) -> RegionMap:
    """Classify every cell of a 2-D grid of rate coefficients.

    Parameters
    ----------
    template : RateMatrix
        3-state matrix supplying the four coefficients that are not varied.
    axis1, axis2 : str
        Distinct names from 'a'..'f'; axis1 indexes rows of the output.
    ranges : pair of (lo, hi)
        Finite value ranges ``0 <= lo <= hi`` for the two axes.
    resolution : int or pair of int
        Number of grid points per axis (a single int applies to both).
    jobs : int
        Ignored; the grid is evaluated block by block in this thread.
        Kept so that existing callers passing ``jobs=`` keep working.
    """
    grid1, grid2, blocks = _sweep_blocks(template, axis1, axis2, ranges, resolution)
    disc = np.empty((grid1.size, grid2.size))
    classes = np.empty(disc.shape, _LETTERS.dtype)
    oscillatory = 0
    for rows, cols, block_disc, index in blocks():
        # take, unlike indexing by the int8 index, copies the letters at
        # word speed; its intp copy of the index is one block's
        disc[rows, cols], classes[rows, cols] = block_disc, _LETTERS.take(index)
        oscillatory += np.count_nonzero(index == 0)
    return RegionMap._adopt(
        axis1=axis1, axis2=axis2, grid1=grid1, grid2=grid2, classes=classes,
        discriminants=disc, fraction_oscillatory=float(oscillatory) / disc.size,
    )

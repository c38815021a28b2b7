"""B-spline bases on [0, 1] with full-multiplicity boundary knots.

Basis functions follow the Cox-de Boor recursion with half-open knot
intervals, except that x = 1 is taken to lie in the last interval so the
final basis function equals 1 there.  A spec of degree d with J interior
knots yields L = J + d + 1 basis functions forming a partition of unity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData, InvalidDegree, OutOfDomain, _choice, _integer, _reals

__all__ = ["SplineSpec", "make_spec", "basis_matrix"]


@dataclass(frozen=True)
class SplineSpec:
    """Integer degree d >= 1 (numpy's included, stored as int) and finite
    interior knots strictly increasing inside (0, 1); anything else raises
    InvalidDegree."""

    degree: int
    interior_knots: tuple[float, ...]
    # length L + degree + 1, boundary multiplicity degree + 1
    knot_vector: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        d = _integer("degree", self.degree, InvalidDegree, 1)
        interior = _reals("interior knots", self.interior_knots, InvalidDegree)
        if not np.all(np.diff([0.0, *interior, 1.0]) > 0.0):
            raise InvalidDegree(
                f"interior knots must increase strictly inside (0, 1), got {list(interior)}"
            )
        object.__setattr__(self, "degree", d)
        object.__setattr__(self, "interior_knots", interior)
        object.__setattr__(
            self, "knot_vector", np.concatenate([np.zeros(d + 1), interior, np.ones(d + 1)])
        )

    @property
    def basis_size(self) -> int:
        return len(self.interior_knots) + self.degree + 1


def make_spec(
    degree: int = 3,
    n_interior: int = 0,
    placement: str = "uniform",
    data: np.ndarray | None = None,
) -> SplineSpec:
    """Build a spec with uniform or data-quantile interior knots.

    Quantile placement puts knots at the i/(J+1) quantiles of ``data``
    (observed values only, caller's responsibility) and requires enough
    distinct points for the knots to be strictly inside (0, 1).
    """
    n_interior = _integer("interior knot count", n_interior, InvalidDegree, 0)
    _choice("placement", placement, ("uniform", "quantile"), InvalidDegree)

    if n_interior == 0:
        interior: tuple[float, ...] = ()
    elif placement == "uniform":
        interior = tuple((np.arange(1, n_interior + 1) / (n_interior + 1)).tolist())
    else:
        if data is None:
            raise InsufficientData("quantile placement requires data")
        vals = np.asarray(data, dtype=float)
        vals = vals[np.isfinite(vals)]
        if vals.size < n_interior + 2:
            raise InsufficientData(
                f"need at least {n_interior + 2} observations for {n_interior} quantile knots"
            )
        qs = np.arange(1, n_interior + 1) / (n_interior + 1)
        knots = np.quantile(vals, qs)
        if np.unique(knots).size < n_interior or knots.min() <= 0.0 or knots.max() >= 1.0:
            raise InsufficientData("quantile knots are tied or lie on the boundary")
        interior = tuple(knots.tolist())
    return SplineSpec(degree=degree, interior_knots=interior)


def basis_matrix(spec: SplineSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate all L basis functions at each point; shape (len(x), L)."""
    x = np.asarray(x, dtype=float)
    flat = np.atleast_1d(x).ravel()
    if flat.size and (np.any(~np.isfinite(flat)) or flat.min() < 0.0 or flat.max() > 1.0):
        bad = flat[~((flat >= 0.0) & (flat <= 1.0))][0]
        raise OutOfDomain(f"basis evaluation outside [0, 1]: {bad!r}")

    d = spec.degree
    t = spec.knot_vector
    L = spec.basis_size
    npts = flat.size

    # knot span containing each x; x = 1 is folded into the last span
    span = np.searchsorted(t, flat, side="right") - 1
    span = np.clip(span, d, L - 1)

    # triangular Cox-de Boor scheme, vectorized over points: one contiguous
    # row per order, so every step streams through memory
    vals = np.zeros((d + 1, npts))
    vals[0] = 1.0
    left = np.empty((d + 1, npts))
    right = np.empty((d + 1, npts))
    for r in range(1, d + 1):
        np.subtract(flat, t[span + 1 - r], out=left[r])
        np.subtract(t[span + r], flat, out=right[r])
        saved = vals[r]  # still zero; each step below leaves its carry there
        for j in range(r):
            temp = right[j + 1] + left[r - j]
            np.divide(vals[j], temp, out=temp)
            np.multiply(right[j + 1], temp, out=vals[j])
            vals[j] += saved  # IEEE addition commutes, so these are saved + right * temp
            np.multiply(left[r - j], temp, out=saved)

    # point i's order k lands at flat position i * L + span_i - d + k
    out = np.zeros((npts, L))
    at = np.arange(npts) * L + span - d
    for offset in range(d + 1):
        out.ravel()[at + offset] = vals[offset]
    return out

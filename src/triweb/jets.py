"""Truncated third-order jets of bivariate functions.

A jet stores the value of a function together with every partial
derivative through total order 3 at one point: ten coefficients c_ij
with i + j <= 3, where c_ij means d^i/dx^i d^j/dy^j f(p).  Mixed
partials are symmetric by construction since each (i, j) pair has a
single slot.

The slot layout and the Leibniz product table defined here are shared
with the compiled kernels in :mod:`triweb.kernels`, so the two never
disagree about indexing.  Jet3 itself is the friendly immutable wrapper;
hot loops work on raw length-10 arrays.
"""

from __future__ import annotations

from math import comb

import numpy as np

# slot order: (i, j) = x-order, y-order
JET_ORDERS = (
    (0, 0),
    (1, 0),
    (0, 1),
    (2, 0),
    (1, 1),
    (0, 2),
    (3, 0),
    (2, 1),
    (1, 2),
    (0, 3),
)
JET_SIZE = len(JET_ORDERS)
JET_INDEX = {ij: k for k, ij in enumerate(JET_ORDERS)}


def _build_product_table():
    """Rows (out, a, b, weight) realizing the truncated Leibniz rule
    h_ij = sum C(i,a) C(j,b) f_ab g_(i-a)(j-b) over a<=i, b<=j."""
    rows = []
    for (i, j), out in JET_INDEX.items():
        for a in range(i + 1):
            for b in range(j + 1):
                w = comb(i, a) * comb(j, b)
                rows.append((out, JET_INDEX[(a, b)], JET_INDEX[(i - a, j - b)], w))
    out = np.array([r[0] for r in rows], dtype=np.int64)
    ka = np.array([r[1] for r in rows], dtype=np.int64)
    kb = np.array([r[2] for r in rows], dtype=np.int64)
    w = np.array([r[3] for r in rows], dtype=np.float64)
    return out, ka, kb, w


PROD_OUT, PROD_A, PROD_B, PROD_W = _build_product_table()
PROD_N = PROD_OUT.shape[0]


def product_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two raw coefficient vectors (reference path)."""
    out = np.zeros(JET_SIZE)
    for t in range(PROD_N):
        out[PROD_OUT[t]] += PROD_W[t] * a[PROD_A[t]] * b[PROD_B[t]]
    return out


class Jet3:
    """Immutable value-plus-derivatives record at a point.

    Arithmetic is exact truncated-Taylor algebra: products follow the
    Leibniz rule through total order 3 and drop everything above.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (JET_SIZE,):
            raise ValueError(f"expected {JET_SIZE} coefficients, got {c.shape}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "_c", c)

    def __setattr__(self, name, value):
        raise AttributeError("Jet3 is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, v: float) -> "Jet3":
        c = np.zeros(JET_SIZE)
        c[0] = v
        return cls(c)

    @classmethod
    def variable(cls, axis: int, value: float) -> "Jet3":
        c = np.zeros(JET_SIZE)
        c[0] = value
        c[1 if axis == 0 else 2] = 1.0
        return cls(c)

    # -- accessors -----------------------------------------------------------

    def as_array(self) -> np.ndarray:
        return self._c

    @property
    def value(self) -> float:
        return float(self._c[0])

    @property
    def fx(self) -> float:
        return float(self._c[1])

    @property
    def fy(self) -> float:
        return float(self._c[2])

    @property
    def fxx(self) -> float:
        return float(self._c[3])

    @property
    def fxy(self) -> float:
        return float(self._c[4])

    @property
    def fyy(self) -> float:
        return float(self._c[5])

    @property
    def fxxx(self) -> float:
        return float(self._c[6])

    @property
    def fxxy(self) -> float:
        return float(self._c[7])

    @property
    def fxyy(self) -> float:
        return float(self._c[8])

    @property
    def fyyy(self) -> float:
        return float(self._c[9])

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "Jet3") -> "Jet3":
        return Jet3(self._c + other._c)

    def __sub__(self, other: "Jet3") -> "Jet3":
        return Jet3(self._c - other._c)

    def __neg__(self) -> "Jet3":
        return Jet3(-self._c)

    def __mul__(self, other):
        if isinstance(other, Jet3):
            return Jet3(product_coeffs(self._c, other._c))
        return Jet3(self._c * float(other))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Jet3) and bool(np.array_equal(self._c, other._c))

    def __hash__(self) -> int:
        return hash(self._c.tobytes())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"c{i}{j}={self._c[k]:.6g}" for k, (i, j) in enumerate(JET_ORDERS)
        )
        return f"Jet3({parts})"

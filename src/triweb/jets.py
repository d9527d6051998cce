"""The slots of a truncated third-order jet and the rows of its product.

A jet stores the value of a function together with every partial
derivative through total order 3 at one point: ten coefficients c_ij
with i + j <= 3, where c_ij means d^i/dx^i d^j/dy^j f(p).  Mixed
partials are symmetric by construction since each (i, j) pair has a
single slot.

The slot layout and the Leibniz rows defined here are read by the
emitter of :mod:`triweb.kernels`, and an evaluated jet is a tuple of
floats in :data:`JET_ORDERS` order.
"""

from __future__ import annotations

from math import comb

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

# per slot (i, j), the rows (a, b, weight) of the truncated Leibniz rule
# h_ij = sum C(i,p) C(j,q) f_pq g_(i-p)(j-q) over p <= i, q <= j
PRODUCT_ROWS = tuple(
    tuple(
        (JET_INDEX[(p, q)], JET_INDEX[(i - p, j - q)], float(comb(i, p) * comb(j, q)))
        for p in range(i + 1)
        for q in range(j + 1)
    )
    for i, j in JET_ORDERS
)

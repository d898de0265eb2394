"""Dot products and norms added in one fixed order.

u . v is u_0 v_0 + u_1 v_1 + ... + u_{d-1} v_{d-1}, added left to right
from the first product.  Python float arithmetic, elementwise ufuncs,
``np.add.accumulate`` and ``math.sqrt`` round every operation correctly,
so this order alone fixes the bits on every CPU, numpy and Python
version.  BLAS (``@``, ``np.dot``, ``np.vdot``, a 1-D ``np.linalg.norm``)
picks its summation kernel per CPU, and the builtin ``sum`` of floats
compensates from Python 3.12: cyclex uses neither.  The exact scaling
by powers of two that the range fallbacks share is here too.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, mul

import numpy as np


def top_exponent(values) -> int:
    """The e that brings the largest |value| into [0.5, 1) when scaled by 2^-e."""
    return math.frexp(max(map(abs, values)))[1]


def pow2(v, e):
    """v * 2^e in two in-range factors: exact outside the subnormal range, +-inf past it."""
    return v * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)


def dot(u, v) -> float:
    """u . v of two sequences of Python floats."""
    return reduce(add, map(mul, u, v))


def norm(w) -> float:
    """sqrt(w . w) of a sequence of Python floats."""
    return math.sqrt(reduce(add, map(mul, w, w)))


def dot_last(u, v):
    """u . v along the last axis of two arrays (broadcast together), with
    the bits of ``dot`` row by row; a 1-D pair gives a numpy float.

    ``add.accumulate`` adds along each row in order, but runs one inner
    loop per row.  Many short rows are summed column by column instead,
    one ufunc call per column, in the same order.
    """
    p = u * v
    if p.ndim == 1:
        return np.add.accumulate(p)[-1]
    if p.size > 16 * p.shape[-1] ** 2:  # more than 16 rows per column
        total = p[..., 0].copy()
        for j in range(1, p.shape[-1]):
            total += p[..., j]
        return total
    return np.add.accumulate(p, axis=-1)[..., -1]

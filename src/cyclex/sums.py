"""Dot products and norms added in one fixed order.

u . v is u_0 v_0 + u_1 v_1 + ... + u_{d-1} v_{d-1}, added left to right
from the first product.  Python float arithmetic, elementwise ufuncs,
``np.add.accumulate`` and ``math.sqrt`` round every operation correctly,
so this order alone fixes the bits on every CPU, numpy and Python
version.  BLAS (``@``, ``np.dot``, ``np.vdot``, a 1-D ``np.linalg.norm``)
picks its summation kernel per CPU, and the builtin ``sum`` of floats
compensates from Python 3.12: cyclex uses neither.  Every length cyclex
reports is formed here (elsewhere only by the projector kernels), one
function per representation: ``norm`` (a vector of Python floats),
``distance_kernel`` (two points as lists of Python floats), ``norms_last``
(each row of an array) and ``max_distance`` (the largest row distance of two
arrays).  Where squares overflow or underflow, each falls back on ``norm``,
the one rescue, which takes the norm again at an exact power-of-two scale.
``compiled`` makes the straight-line kernels of one dimension.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache, reduce
from operator import add, mul

import numpy as np

TINY = 2.0**-1022  # the smallest normal float
_ROOT_TINY = 2.0**-511  # its square root


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
    """sqrt(w . w) of a sequence of Python floats.  Where w is finite and nonzero but
    w . w overflows or is below 2^-1022, it is 2^e norm(2^-e w) for the e that brings
    the largest |w_i| into [0.5, 1)."""
    ww = reduce(add, map(mul, w, w))
    if TINY <= ww < math.inf or ww != ww or not (e := top_exponent(w)):  # e = 0: w is 0 or has an inf
        return math.sqrt(ww)
    return pow2(norm([math.ldexp(c, -e) for c in w]), e)


def norms_last(u, underflow=True):
    """sqrt(u . u) along the last axis, with the bits of ``norm`` row by row: a row whose norm
    overflows, or (``underflow``) is below 2^-511, is its ``norm``.  Without it the caller silences overflows."""
    if not underflow and math.isfinite(np.add.reduce(n := np.sqrt(dot_last(u, u)), axis=None)):
        return n
    with np.errstate(over="ignore"):
        n = np.array(np.sqrt(dot_last(u, u)))
        rows, flat, low = u.reshape(-1, u.shape[-1]), n.reshape(-1), _ROOT_TINY if underflow else 0.0
        for i in np.flatnonzero(~((flat >= low) & (flat < math.inf))):
            flat[i] = norm(rows[i].tolist())
    return n


def max_distance(u, v) -> float:
    """max_i ||u_i - v_i|| along the last axis of two arrays of one shape (two 1-D arrays are one
    row), with the bits of ``norm`` row by row: one sqrt of the largest ``dot_last``, or where that
    overflows or is below 2^-511 for a nonzero difference, the largest row ``norm``.  The caller silences overflows."""
    r = u - v
    s = dot_last(r, r)
    value = math.sqrt(s.max() if s.ndim else s)  # a 1-D r's s is a numpy float: its max costs 1.5 us
    if not (value == math.inf or value < _ROOT_TINY and r.any()):
        return value
    return max(map(norm, r.reshape(-1, r.shape[-1]).tolist()))


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


_SUM_TERMS = 64  # terms per statement: one expression of d terms nests d deep in the compiler


@lru_cache(maxsize=64)
def compiled(template: str, d: int) -> dict:
    """The namespace of the constant ``template``, expanded for dimension d, executed:
    ``ALL(e)`` becomes ``e_0, e_1, ..., e_{d-1},``, e_i being e (no parentheses) with
    each ``{i}`` replaced by i; a line ``s = SUM(e)`` adds e_0 + e_1 + ... left to right
    in statements of at most ``_SUM_TERMS`` terms; other lines with ``{i}`` repeat per i."""
    lines = []
    for line in template.splitlines():
        total = re.fullmatch(r"(\s*)(\w+) = SUM\((.*)\)", line)
        if total:
            indent, name, term = total.groups()
            terms = [term.replace("{i}", str(i)) for i in range(d)]
            for k in range(0, d, _SUM_TERMS):
                lines.append(f"{indent}{name} = " + " + ".join(([name] if k else []) + terms[k : k + _SUM_TERMS]))
            continue
        line = re.sub(r"ALL\(([^()]*)\)", lambda m: "".join(f"{m[1]}, ".replace("{i}", str(i)) for i in range(d)), line)
        lines.extend([line.replace("{i}", str(i)) for i in range(d)] if "{i}" in line else [line])
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace


_DISTANCE = f"from math import inf, sqrt\nfrom {__name__} import TINY, norm\n" + """\
def distance(u, v):
    ALL(u{i}) = u
    ALL(v{i}) = v
    w{i} = u{i} - v{i}
    ww = SUM(w{i} * w{i})
    if TINY <= ww < inf:
        return sqrt(ww)
    return norm([ALL(w{i})])
"""


def distance_kernel(d: int):
    """``distance(u, v)`` of two length-d lists of Python floats, compiled
    for d: the bits of ``norm`` of their difference u - v."""
    return compiled(_DISTANCE, d)["distance"]

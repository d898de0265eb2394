"""Block-formatted CSV rows, byte-identical to ``csv.writer`` on numbers.

``csv.writer`` writes an int with ``str`` and a float with ``repr``.  A
block with fewer than ``_KERNEL_CELLS`` float cells goes through one ``%``
over its rows (a float's ``str`` is its ``repr``); a larger one through
``_block_text``, numpy array operations with the same bytes:

* Range.  1e-4 <= |x| < 1e16 is where ``repr`` writes fixed notation;
  ``repr`` itself writes every other cell (0.0, nan, inf, ...) and ties.
* Scaling.  A table on the exponent E of |x|, corrected by one comparison
  with a power of ten, picks s <= 20 with X = |x| 10^s in [1e16, 1e17) up
  to an ulp.  10^s is an exact double, and Dekker's two-product (|x| split
  into its top 26 bits and the rest) gives X = hi + lo exactly, hi an
  integer.
* Interval.  The reals that round to x, scaled, lie within the exact
  h = 2^(E-54) 10^s of X, and 0.55 < h < 11.2, so the integer nearest X
  is inside.  Taken from hi less its last digit, X and the candidates
  are below 64 and multiples of 2^-47: their differences are exact.
* Digits.  ``repr`` writes the shortest digits that round to x and, of
  those, the nearest: D is the multiple of the largest 10^j within h of
  X that is nearest X.  For j >= 2 that is the one multiple of 100
  (2h < 23), for j = 1 the multiple of ten nearest X, else X rounded; a
  tie goes to ``repr``.  No candidate is an end X +- h (which rounds to x
  only for an even mantissa), and at a power of two the narrower gap
  below never matters: ``tests/test_csvio.py`` gives the argument.
* Text.  Z = D + 9 floor(|x|) 10^s (no double lies between |x| and
  D 10^-s) is D with a zero put in at place s.  Four-digit words spell
  its 20 places, and one XOR mask a cell, by s, Z's trailing zeros and
  the sign, turns the digit zeros into the point, '-', ',' and NULs; an
  int cell's mask goes by its digit count.  Dropping the NULs from the
  rows' byte matrix leaves the text.

No step calls libm; the tables below take under a millisecond to build.
"""

from __future__ import annotations

import numpy as np

# cells per block, narrow or wide: a kernel block's arrays stay below glibc's 128 KB mmap threshold
_BLOCK_CELLS = 2048
# fewest float cells for which a block takes the kernel.  Timed between the runs of
# each workload's set (caches as a run leaves them), a trajectory block costs, in us,
# % path / kernel (medians; numpy 2.4, Python 3.11, a 2-vCPU Xeon VM):
#   float cells     128       192       256       320       384       512
#   sweep         108/176   153/190   198/198   244/206   294/214   378/233
#   product       114/180   164/196   212/202   256/204   302/218   394/238
#   witness       115/167   163/182   212/188   254/198   299/202   394/224
_KERNEL_CELLS = 256

_P10 = np.array([float(10**k) for k in range(23)])
_P10_HI = np.array([x * 134217729.0 - (x * 134217729.0 - x) for x in _P10.tolist()])  # Dekker's split
# by frexp exponent E = -13..54, with 10^g <= 2^(E-1) < 10^(g+1): s = 16 - g, and
# the power 10^(g+1) from which s = 15 - g
_G = [len(str(2 ** (e - 1))) - 1 if e > 0 else -len(str(2 ** (1 - e) - 1)) for e in range(-13, 55)]
_EDGE = np.array([float(10 ** (g + 1)) if g >= -1 else 1 / 10 ** -(g + 1) for g in _G])
_TWO = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)  # "00".."99"
_DIGITS4 = np.stack(np.broadcast_arrays(_TWO[:, None], _TWO), axis=-1).view(np.uint32).ravel()  # "0000".."9999"
# by 2 (E + 13) + (|x| >= 10^(g+1)): p = 10^s, its split, h = 2^(E-54) 10^s; 9 10^s and 21 s
_s2 = np.repeat([16 - g for g in _G], 2) - np.tile([0, 1], len(_G))
_SCALE = np.stack((_P10, _P10_HI, _P10 - _P10_HI, _P10), axis=1).take(_s2, axis=0)
_SCALE[:, 3] *= [2.0 ** (j // 2 - 67) for j in range(136)]  # 2^(E-54)
_SCALE_INT = np.stack((np.array([9 * 10 ** min(k, 17) for k in range(22)], np.int64).take(_s2), 21 * _s2), axis=1)
_R1_C100 = np.array([(r % 10, (r // 10 > 4) * 100.0 - r // 10 * 10) for r in range(100)])  # by hi's last two digits
_TZ4 = sum(np.arange(10000) % 10**j == 0 for j in range(1, 5)).astype(np.uint8)  # a word's trailing zeros
# XOR masks on six words of "0"s, place q = 23 - byte: at key 21 s + t (t trailing zeros),
# NUL ("0" ^ 0x30) outside places min(t, s - 1)..max(s + 1, 17), '.' at s, ',' at 23; a
# negative cell's at ~key (the table's end, by take's negative indices) has '-' above them
_q, (_s, _t) = 23 - np.arange(24), np.divmod(np.arange(441), 21)
_top = np.maximum(_s + 1, 17)[:, None]
_x = ((_q < np.minimum(_t, _s - 1)[:, None]) | (_q > _top)) * 0x30 + (_q == _s[:, None]) * 0x1E
_x = np.concatenate((_x, (_x + (_q == _top + 1) * (0x1D - 0x30))[::-1])).astype(np.uint8)
_x[:, 0] = 0x1C
_XOR = _x.view(np.uint32)  # built byte by byte, as every table here: the same text on either byte order
_XOR_INT = ((_q > np.arange(20)[:, None]) * 0x30).astype(np.uint8).view(np.uint32)  # NUL above w digits, at w - 1
del _G, _s2, _q, _s, _t, _top, _x
_DIVS = np.array([10**k for k in range(1, 19)], np.int64)


def write_csv(out, header, n_ints: int, n_rows: int, columns) -> None:
    """Write the header line, then ``n_rows`` rows of the header's width:
    ``n_ints`` integer cells, then float cells, to ``out``: a path, or an
    open text file that is left open.

    ``columns(start, stop)`` returns the cells of rows start..stop-1 as a
    pair: a sequence of ``n_ints`` arrays of integers >= 0, one per column,
    and a (stop - start, width - n_ints) float64 array.  A write that fails
    after ``open`` raises ``OSError`` with the path as its ``filename``.
    """
    if not hasattr(out, "write"):
        try:
            with open(out, "w", newline="") as fh:
                return write_csv(fh, header, n_ints, n_rows, columns)
        except OSError as exc:
            exc.filename = out if exc.filename is None else exc.filename
            raise
    width = len(header)
    row_fmt = ",".join(["%d"] * n_ints + ["%s"] * (width - n_ints)) + "\n"
    out.write(",".join(header) + "\n")
    step = max(1, _BLOCK_CELLS // width)
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        ints, floats = columns(start, stop)
        if floats.size >= _KERNEL_CELLS:
            out.write(_block_text(ints, floats))
            continue
        cells = [None] * ((stop - start) * width)
        for j, column in enumerate([c.tolist() for c in ints] + floats.T.tolist()):
            cells[j::width] = column
        out.write((row_fmt * (stop - start)) % tuple(cells))


def _words(values, words):
    """Fill the (n, k <= 5) uint32 ``words`` with the digits of the int64 ``values`` >= 0,
    four ASCII digits a word, zeros included; return the last words' values."""
    k, last = words.shape[1], 0
    for i in range(k - 1):
        q = values // 10 ** (4 * (k - 1 - i))  # a scalar divisor takes numpy's fast integer division
        words[:, i] = _DIGITS4.take(q - last * 10000)
        last = q
    low = values - last * 10000
    words[:, -1] = _DIGITS4.take(low)
    return low


def _shortest(v):
    """For float64 cells v: the cells ``repr`` must write (bad), Z (module
    docstring) and 21 s."""
    a = np.abs(v)
    c = np.fmin(np.fmax(a, 1e-4), 9999999999999998.0)
    bad = c != a
    bits = c.view(np.int64)
    e = (bits >> 52) - 1009  # E + 13
    i = e + e
    i += c >= _EDGE.take(e)
    p, ph, pl, h = _SCALE.take(i, axis=0).T
    n9, s21 = _SCALE_INT.take(i, axis=0).T
    hi = c * p
    ah = (bits & -(1 << 27)).view(np.float64)
    al = c - ah
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    big = hi.astype(np.int64)
    r1, c100 = _R1_C100.take(big - big // 100 * 100, axis=0).T
    # offsets from big - r1, a multiple of ten: X, the multiples of 100 and of
    # ten nearest X, and X rounded; each is a candidate where at most h from X
    x = r1 + lo
    c10 = np.floor(x * 0.1 + 0.5) * 10.0
    half = x + 0.5
    c1 = np.floor(half)
    in100, off10 = np.abs(c100 - x) <= h, np.abs(c10 - x)
    d = np.where(in100, c100, np.where(off10 <= h, c10, c1))
    bad |= (off10 == 5.0) | (half == c1)  # ties
    return bad, big + (d - r1).astype(np.int64) + np.floor(c).astype(np.int64) * n9, s21


def _block_text(ints, floats: np.ndarray) -> str:
    """CSV rows of the integer columns ``ints`` (arrays of values >= 0) and
    the (rows, n) float64 cells, as ``csv.writer`` writes them."""
    (rows, nf), v = floats.shape, floats.ravel()
    bad, z, s21 = _shortest(v)
    texts = [repr(x) for x in v[bad].tolist()] if bad.any() else []
    # a row is [int cells][float cells]['\n' 0 0 0]: an int cell ',' and its
    # digits in n_iw words, a float cell ',' sign digits '.' digits in `slot`
    n_ints = len(ints)
    values = np.concatenate(ints) if n_ints else np.zeros(0, np.int64)
    width = np.searchsorted(_DIVS, values, "right")  # digit counts - 1
    n_iw = (int(width.max(initial=0)) + 5) // 4
    slot = max(6, (max(map(len, texts), default=0) + 4) // 4)
    iwords = np.empty((values.size, n_iw), np.uint32)
    _words(values, iwords)
    iwords ^= _XOR_INT[:, 6 - n_iw :].take(width, axis=0)
    words = np.empty((v.size, 6), np.uint32)
    words[:, 0] = 0x30303030
    low = _words(z, words[:, -5:])
    t = s21 + _TZ4.take(low)  # the key: 21 s + Z's trailing zeros (below 20)
    if not low.all():  # a zero low word: Z / 10^4 is below 10^14, exact as a double
        k = np.flatnonzero(low == 0)
        y = (z[k] // 10000).astype(np.float64) / _P10[1:17, None]
        t[k] += (np.floor(y) == y).sum(axis=0)
    t ^= v.view(np.int64) >> 63  # ~key where v < 0
    words ^= _XOR.take(t, axis=0)
    out = np.empty((rows, n_ints * n_iw + nf * slot + 1), np.uint32)
    out[:, : n_ints * n_iw].reshape(rows, n_ints, n_iw)[:] = iwords.reshape(n_ints, rows, n_iw).transpose(1, 0, 2)
    cells = out[:, n_ints * n_iw : -1].reshape(rows, nf, slot)
    if slot > 6:  # a repr text as long as 24 characters: the ',' on a word of its own
        cells[:, :, 0] = 44
        words.view(np.uint8)[:, 0] = 0
    cells[:, :, slot - 6 :] = words.reshape(rows, nf, 6)
    out[:, -1] = 10
    text = out.view(np.uint8)
    text[:, : 4 * n_ints * n_iw : 4 * n_iw] = 44
    if texts:
        k = np.flatnonzero(bad)
        chars = text[:, 4 * n_ints * n_iw : -4].reshape(rows, nf, 4 * slot)
        chars[k // nf, k % nf, 1:] = np.array(texts, f"S{4 * slot - 1}").view(np.uint8).reshape(-1, 4 * slot - 1)
    text[:, 0] = 0
    return text.tobytes().translate(None, b"\0").decode("ascii")

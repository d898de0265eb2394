"""Block-formatted CSV rows, byte-identical to ``csv.writer`` on numbers.

``csv.writer`` writes an int with ``str`` and a float with ``repr``.  A
block with fewer than ``_KERNEL_CELLS`` float cells goes through one ``%``
over its rows (a float's ``str`` is its ``repr``); a larger one through
``_block_text``, numpy array operations with the same bytes:

* Range.  1e-4 <= |x| < 1e16 is where ``repr`` writes fixed notation;
  ``repr`` itself writes every other cell (0.0, nan, inf, ...) and ties.
* Scaling.  A table on the ``frexp`` exponent E of |x|, corrected by one
  comparison with a power of ten, picks s <= 20 with X = |x| 10^s in
  [1e16, 1e17) up to an ulp.  10^s is an exact double, and Dekker's
  two-product gives X = hi + lo exactly, hi an integer.
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
* Text.  The digits of the integer and fraction parts of D 10^-s, from a
  table of four-digit words, with the sign, the point and NUL bytes in a
  byte matrix of the block's rows; dropping the NULs leaves the text.

No step calls libm.  The tables below are built from Python numbers, as
numpy operations would map the code pages of loops no run uses.
"""

from __future__ import annotations

import numpy as np

# cells per block, narrow or wide: a kernel block's arrays stay below glibc's 128 KB mmap threshold
_BLOCK_CELLS = 2048
# fewest float cells for which a block takes the kernel.  Timed between the runs of
# each workload's set (caches as a run leaves them), a trajectory block costs, in us,
# % path / kernel (medians; numpy 2.4, Python 3.11, a 2-vCPU Xeon VM):
#   float cells     128       256       512       768
#   sweep         126/301   234/327   421/368   623/431
#   product       137/281   233/312   427/359   614/424
#   witness       137/270   228/304   418/357   619/411
_KERNEL_CELLS = 512

_P10 = np.array([float(10**k) for k in range(23)])
_P10_HI = np.array([x * 134217729.0 - (x * 134217729.0 - x) for x in _P10.tolist()])  # Dekker's split
_P10_LO = _P10 - _P10_HI
_DIV = np.array([10 ** min(k, 18) for k in range(21)], np.int64)  # 10^s, or 10^18 > D for s > 18
# by frexp exponent E (index E + 13), with 10^g <= 2^(E-1) < 10^(g+1): s = 16 - g,
# the power 10^(g+1) from which s = 15 - g, and the half gap 2^(E-54)
_G = [len(str(2 ** (e - 1))) - 1 if e > 0 else -len(str(2 ** (1 - e) - 1)) for e in range(-13, 55)]
_S = np.array([16 - g for g in _G], np.intp)
_EDGE = np.array([float(10 ** (g + 1)) if g >= -1 else 1 / 10 ** -(g + 1) for g in _G])
_HALF_GAP = np.array([2.0 ** (e - 54) for e in range(-13, 55)])
_TWO = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)  # "00".."99"
_DIGITS4 = np.stack(np.broadcast_arrays(_TWO[:, None], _TWO), axis=-1).view(np.uint32).ravel()  # "0000".."9999"
# at 21 r + h: word r (from the right) of a digit field, 0xff on the places q < h
_BELOW = np.frombuffer(bytes(255 * (4 * r + q < h) for r in range(6) for h in range(21) for q in (3, 2, 1, 0)), "u4")
_ROWS = np.array([[21 * r] for r in range(5, -1, -1)], np.intp)


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


def _words(values, high, n_words, low=0):
    """(n_words, n) uint32 words of the digits of int64 ``values`` >= 0 on
    the places low..high-1 (from the right), right-aligned, NUL elsewhere."""
    places = np.empty((n_words, values.size), np.int64)
    for i in range(n_words):  # a scalar divisor takes numpy's fast integer division
        np.floor_divide(values, min(10 ** (4 * (n_words - 1 - i)), 2**63 - 1), out=places[i])  # int64 < 10^20
    places[1:] -= places[:-1] * 10000
    words = _DIGITS4.take(places)
    words &= _BELOW.take(np.add(_ROWS[-n_words:], high, out=places))
    words &= ~_BELOW.take(np.add(_ROWS[-n_words:], low, out=places))
    return words


def _shortest(v):
    """For float64 cells v: the cells ``repr`` must write (bad), and the integer
    and fraction parts of D 10^-s, s and D's trailing zeros j (module docstring)."""
    a = np.abs(v)
    bad = (a < 1e-4) | ~(a < 1e16)
    np.copyto(a, 1.0, where=bad)
    e = np.add(np.frexp(a)[1], 13, dtype=np.intp)
    s = _S.take(e) - (a >= _EDGE.take(e))
    p = _P10.take(s)
    hi = a * p
    c = a * 134217729.0  # Veltkamp's split of a, then Dekker's two-product
    ah = c - (c - a)
    a -= ah
    ph, pl = _P10_HI.take(s), _P10_LO.take(s)
    lo = ((ah * ph - hi) + ah * pl + a * ph) + a * pl
    h = _HALF_GAP.take(e) * p
    big = hi.astype(np.int64)
    r = (big - big // 100 * 100).astype(np.float64)
    r1 = r - np.floor(r * 0.1) * 10.0
    # offsets from big - r1, a multiple of ten: X, the multiples of 100 and of
    # ten nearest X, and X rounded; each is a candidate where at most h from X
    x = r1 + lo
    c100 = (r - r1 > 45.0) * 100.0 - (r - r1)
    c10 = np.floor(x * 0.1 + 0.5) * 10.0
    half = x + 0.5
    c1 = np.floor(half)
    in100, off10 = np.abs(c100 - x) <= h, np.abs(c10 - x)
    d = np.where(in100, c100, np.where(off10 <= h, c10, c1))
    bad |= (off10 == 5.0) | (half == c1)  # ties
    digits = big + (d - r1).astype(np.int64)
    j = (off10 <= h).astype(np.intp)
    k = np.flatnonzero(in100)
    if k.size:  # j >= 2: 2 + the trailing zeros of D / 100 (below 2^53, so exact as a double)
        y = (digits[k] // 100).astype(np.float64)
        j[k] = (np.floor(y / _P10[1:17, None]) == y / _P10[1:17, None]).sum(axis=0) + 2
    return (bad, *np.divmod(digits, _DIV.take(s)), s, j)


def _block_text(ints, floats: np.ndarray) -> str:
    """CSV rows of the integer columns ``ints`` (arrays of values >= 0) and
    the (rows, n) float64 cells, as ``csv.writer`` writes them."""
    (rows, nf), v = floats.shape, floats.ravel()
    bad, whole, frac, s, j = _shortest(v)
    # text: an int cell is [',' digits], a float cell [',' sign whole]['.' frac],
    # each part whole 4-byte words, NUL-padded; a row ends in ['\n' 0 0 0]
    texts = [repr(x) for x in v[bad].tolist()]
    n_ints = len(ints)
    lead = np.concatenate((*ints, whole))  # the int cells and the whole parts
    width = np.searchsorted(_DIV[1:19], lead, "right") + 1  # digit counts
    n_iw, n_fw = (int(width[: n_ints * rows].max(initial=0)) + 4) // 4, (int(s.max()) + 4) // 4
    n_ww = max((int(width[n_ints * rows :].max()) + 5) // 4, (max(map(len, texts), default=0) + 4) // 4 - n_fw)
    slot = n_ww + n_fw
    out = np.zeros((rows, n_ints * n_iw + nf * slot + 1), np.uint32)
    words = _words(lead, width, max(n_iw, n_ww))
    out[:, : n_ints * n_iw].reshape(rows, n_ints, n_iw).T[:] = words[-n_iw:, : n_ints * rows].reshape(n_iw, -1, rows)
    cells = out[:, n_ints * n_iw : -1].reshape(rows, nf, slot).transpose(2, 0, 1)
    cells[:n_ww] = words[-n_ww:, n_ints * rows :].reshape(n_ww, rows, nf)
    cells[n_ww:] = _words(frac, s, n_fw, np.minimum(j, s - 1)).reshape(n_fw, rows, nf)
    text = out.view(np.uint8)
    text[:, : 4 * n_ints * n_iw : 4 * n_iw] = 44
    chars = text[:, 4 * n_ints * n_iw : -4].reshape(rows, nf, 4 * slot)
    chars[:, :, [0, 4 * n_ww]] = 44, 46  # ',' '.'
    chars[:, :, 1] = (v < 0.0).reshape(rows, nf) * np.uint8(45)  # -0.0 is repr's
    if texts:
        k = np.flatnonzero(bad)
        chars[k // nf, k % nf, 1:] = np.array(texts, f"S{4 * slot - 1}").view(np.uint8).reshape(-1, 4 * slot - 1)
    text[:, 0], text[:, -4] = 0, 10
    return text.tobytes().translate(None, b"\0").decode("ascii")

"""Block-formatted CSV rows, byte-identical to ``csv.writer`` on numbers.

``csv.writer`` writes an int with ``str`` and a float with ``repr``;
``%d`` and ``%s`` format them the same way (a float's ``str`` is its
``repr``), so one ``%`` over a whole block of rows writes the same bytes
with far fewer interpreter steps.  ``%s`` also takes a float cell already
formatted as text, which lets a writer format a repeated value once.
"""

from __future__ import annotations

import numpy as np

# cells per block: bounds the Python floats and text one block holds, for
# narrow (spiral) and wide (m = 50 iteration log) rows alike.  With the
# iteration log's reused text alive as well, 8192 cells raised the traced
# peak of an m = 50 product run from 0.71 to 0.75 MB; 4096 brings it to
# 0.49 MB at the same speed.
_BLOCK_CELLS = 4096


def write_csv(out, header, n_ints: int, n_rows: int, columns) -> None:
    """Write the header line, then ``n_rows`` rows of the header's width:
    ``n_ints`` integer cells, then float cells, to ``out``: a path, or an
    open text file that is left open.

    ``columns(start, stop)`` returns the cells of rows start..stop-1 as
    column sequences, integers first: Python ints and floats (as from
    ``ndarray.tolist()``), a ``range``, or for float cells their ``repr``
    text.
    """
    if not hasattr(out, "write"):
        with open(out, "w", newline="") as fh:
            return write_csv(fh, header, n_ints, n_rows, columns)
    width = len(header)
    row_fmt = ",".join(["%d"] * n_ints + ["%s"] * (width - n_ints)) + "\n"
    out.write(",".join(header) + "\n")
    step = max(1, _BLOCK_CELLS // width)
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        cells = [None] * ((stop - start) * width)
        for j, column in enumerate(columns(start, stop)):
            cells[j::width] = column
        out.write((row_fmt * (stop - start)) % tuple(cells))


def reused_texts(values: np.ndarray) -> np.ndarray:
    """The ``repr`` text of each cell of a 2-D float array, as an object array.

    ``repr`` runs once per run of bit-equal cells down a column (so -0.0
    and 0.0 stay apart): every other cell shares the text object of the
    cell above it, gathered by index in C.
    """
    fresh = np.empty(values.shape, bool)
    fresh[:1] = True
    bits = values.view(np.uint64)
    np.not_equal(bits[1:], bits[:-1], out=fresh[1:])
    texts = np.array(list(map(repr, values[fresh].tolist())), dtype=object)
    # each fresh cell's text index, carried down its column; fresh indices
    # grow in row-major order, so a running maximum carries the latest
    which = np.zeros(values.shape, np.intp)
    which[fresh] = np.arange(len(texts))
    np.maximum.accumulate(which, axis=0, out=which)
    return texts[which]

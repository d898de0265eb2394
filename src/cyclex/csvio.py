"""Block-formatted CSV rows, byte-identical to ``csv.writer`` on numbers.

``csv.writer`` writes an int with ``str`` and a float with ``repr``;
``%d`` and ``%r`` format them the same way, so one ``%`` over a whole
block of rows writes the same bytes with far fewer interpreter steps.
"""

from __future__ import annotations

# cells per block: bounds the Python floats and text one block holds, for
# narrow (spiral) and wide (m = 50 iteration log) rows alike
_BLOCK_CELLS = 8192


def write_csv(fh, header, n_ints: int, n_rows: int, columns) -> None:
    """Write the header line, then ``n_rows`` rows of the header's width:
    ``n_ints`` integer cells, then float cells.

    ``columns(start, stop)`` returns the cells of rows start..stop-1 as
    column sequences, integers first: Python ints and floats (as from
    ``ndarray.tolist()``), or a ``range``.
    """
    width = len(header)
    row_fmt = ",".join(["%d"] * n_ints + ["%r"] * (width - n_ints)) + "\n"
    fh.write(",".join(header) + "\n")
    step = max(1, _BLOCK_CELLS // width)
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        cells = [None] * ((stop - start) * width)
        for j, column in enumerate(columns(start, stop)):
            cells[j::width] = column
        fh.write((row_fmt * (stop - start)) % tuple(cells))

"""The CSV format of every wavetank table.

A table is a header row of names, then rows of floats written with 17
significant digits, so every float64 reads back bit-exactly. NaN is written
as an empty cell. A reader walks the body once: it skips blank lines, checks
every row's cell count against the header, and parses only the leading
columns its caller asks for; ``#`` starts no comment.
"""

import sys
from contextlib import nullcontext

import numpy as np

# cells formatted by one ``%`` operation: bounds the text and the tuple of
# floats held at once, whatever the width of the table
CELLS_PER_BLOCK = 1 << 16


def write_table(path, header, columns) -> None:
    """Write the ``header`` names, then ``columns`` (1-D arrays, or 2-D arrays
    holding several columns) row by row, to ``path``, or to standard output
    when ``path`` is empty or None."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    width = sum(c.shape[1] if c.ndim == 2 else 1 for c in columns)
    row = ",".join(["%.17g"] * width) + "\n"
    step = max(1, CELLS_PER_BLOCK // width)
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), step):
            block = np.column_stack([c[start : start + step] for c in columns])
            fh.write(((row * len(block)) % tuple(block.ravel().tolist())).replace("nan", ""))


def read_table(path, what: str, names, leading: int | None = None) -> tuple[list[str], np.ndarray]:
    """Names and float rows of the parsed columns of a table whose header
    begins with ``names``: the first ``leading`` columns, or all when None.

    One pass over the body: blank lines are skipped, every other line must
    hold as many cells as the header, and the text of its parsed cells goes
    to a single ``np.loadtxt`` call, so the cells after them are counted but
    not parsed. Any fault in the file raises ``ValueError("malformed <what>
    CSV <path>: ...")``; a ragged line, or else the first line whose parsed
    cells are not all numbers, is named by its line number in the file (the
    header is line 1). A table without rows gives an empty array for the
    caller to judge.
    """
    malformed = f"malformed {what} CSV {path}: "
    with open(path) as fh:
        header = [name.strip() for name in fh.readline().split(",")]
        if header[: len(names)] != list(names):
            raise ValueError(malformed + f"expected header '{','.join(names)}'")
        width = len(header)
        keep = width if leading is None else leading
        numbers, rows = [], []
        for number, line in enumerate(fh, start=2):
            if line == "\n":
                continue
            cells = line.count(",") + 1
            if cells != width:
                raise ValueError(malformed + f"line {number}: {cells} cell(s) under a header of {width}")
            numbers.append(number)
            rows.append(line if keep == width else ",".join(line.split(",", keep)[:keep]))
    if not rows:
        return header[:keep], np.empty((0, keep))
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        message, _, where = str(exc).partition(" at row ")
        if where:  # loadtxt counts the rows it was given from 0
            message = f"line {numbers[int(where.partition(',')[0])]}: {message}"
        raise ValueError(malformed + message) from None
    return header[:keep], data

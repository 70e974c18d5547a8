"""The CSV format of every wavetank table.

A table is a header row of names, then rows of floats written with 17
significant digits, so every float64 reads back bit-exactly. NaN is written
as an empty cell. Readers skip blank lines; ``#`` starts no comment.
"""

import sys
import warnings
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


def read_table(path, what: str, names) -> tuple[list[str], np.ndarray]:
    """Header names and float rows of a table whose header begins with ``names``.

    Any fault in the file raises ``ValueError("malformed <what> CSV <path>:
    ...")``. A table without rows gives an empty array for the caller to judge.
    """
    malformed = f"malformed {what} CSV {path}: "
    with open(path) as fh:
        header = [name.strip() for name in fh.readline().split(",")]
        if header[: len(names)] != list(names):
            raise ValueError(malformed + f"expected header '{','.join(names)}'")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on an empty body
            try:
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                raise ValueError(malformed + _fault(path, len(header), str(exc))) from None
    if not data.size:
        return header, data.reshape(0, len(header))
    if data.shape[1] != len(header):
        raise ValueError(malformed + f"rows of {data.shape[1]} cells under a header of {len(header)}")
    return header, data


def _fault(path, width: int, message: str) -> str:
    """Where and why loadtxt rejected the body of ``path``: the first line
    (the header is line 1) whose cell count differs from the header's or
    whose cells are not numbers. loadtxt's own ``message`` counts body rows
    only, from 0 or from 1 depending on the fault; it stands if no line is
    found."""
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if number == 1 or not line:  # loadtxt skips empty lines
                continue
            cells = line.count(",") + 1
            if cells != width:
                return f"line {number}: {cells} cell(s) under a header of {width}"
            try:
                np.loadtxt([line], delimiter=",", comments=None)
            except ValueError as exc:
                return f"line {number}: " + str(exc).partition(" at row ")[0]
    return message.partition("; use `usecols`")[0]

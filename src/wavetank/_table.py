"""The CSV format of every wavetank table.

A table is a header row of names, then rows of floats written with 17
significant digits, so every float64 reads back bit-exactly. The text of a
cell is exactly C's ``%.17g``: fixed notation when the decimal exponent of
the value rounded to 17 digits lies in -4..16, ``d.ddde±XX`` (two exponent
digits at least) otherwise, trailing zeros and a bare point dropped; ``-0``,
``inf`` and ``-inf`` as Python prints them, and NaN as an empty cell. A
reader walks the body once: it skips blank lines, checks every row's cell
count against the header, and parses only the leading columns its caller
asks for; ``#`` starts no comment.

The writer formats the blocks of rows of :mod:`wavetank._blocks` with array
operations; their cells, about 250 bytes of temporaries each, bound its
memory whatever the width of the table. For ``1e-280 <= |x| <= 1e280`` it
scales ``|x|`` by ``10^(16-X)`` in double-double arithmetic (Dekker 1971),
so the 17-digit integer ``q`` is known to better than 2^-45. The ASCII
digits of ``q`` and of ``X`` come from a table of 4-digit chunks, and each
cell is laid out by one gather from a template chosen by its sign and ``%g``
layout, masked to its significant digits. Python's own correctly rounded
``'%.17g' % x`` decides the other cells: nonzero values outside that range,
infinities, and values whose scaled fraction lies within 2^-30 of 1/2, where
the product cannot tell the rounding.
"""

import sys
from contextlib import nullcontext
from functools import cache

import numpy as np

from ._blocks import blocks

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitting constant
_WIDTH = 25  # longest cell text with its separator: "-d.dddddddddddddddde-308,"
# byte offsets in a cell's 32-byte source: digit k of q at 3 + k, the exponent
# digits at 21..23, then constant characters and the cell's separator
_MINUS, _POINT, _ZERO, _E, _EPLUS, _EMINUS, _SEP = range(24, 31)


def _split(a):
    """Veltkamp's split of ``a`` into two halves of 26 bits each."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


@cache
def _power_of_ten(k: int) -> tuple[float, float, float, float]:
    """``10^k`` as ``hi + lo`` to 2^-106 from exact integer arithmetic, and
    the Veltkamp halves of ``hi``."""
    if k >= 0:
        hi = float(10**k)
        lo = float(10**k - int(hi))
    else:  # int / int is correctly rounded
        hi = 1 / 10**-k
        num, den = hi.as_integer_ratio()
        lo = (den - num * 10**-k) / (den * 10**-k)
    return (hi, *_split(hi), lo)


def _scaled(a, x):
    """``a·10^(16-x)`` as ``p + t``: ``p`` the rounded product, an integer
    above 2^53, and ``t`` the rest, to 2^-45 for ``a·10^(16-x) < 10^18``."""
    table = np.empty((600, 4))  # row 300 + x, filled for the x present
    for row in np.flatnonzero(np.bincount(x + 300)).tolist():
        table[row] = _power_of_ten(316 - row)
    hi, hi_high, hi_low, lo = table[x + 300].T
    a_high, a_low = _split(a)
    p = a * hi  # Dekker's TwoProduct: p + err == a·hi exactly
    err = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    return p, err + a * lo


def _round17(a):
    """Decimal exponent ``X`` and digits ``q`` (10^16 <= q < 10^17) of each
    ``a`` rounded to 17 digits, and where a near-tie leaves ``q`` undecided."""
    x = np.floor(np.log10(a)).astype(np.int64)  # off by one at most, next to a power of ten
    p, t = _scaled(a, x)
    q = p.astype(np.int64) + np.rint(t).astype(np.int64)
    fix = np.flatnonzero((p - 1e16 + t < 0) | (q >= 10**17))
    x[fix] += np.where(q[fix] >= 10**17, 1, -1)
    p[fix], t[fix] = _scaled(a[fix], x[fix])
    q[fix] = p[fix].astype(np.int64) + np.rint(t[fix]).astype(np.int64)
    carry = q == 10**17
    q[carry], x[carry] = 10**16, x[carry] + 1
    return x, q, np.abs(t - np.rint(t)) > 0.5 - 2.0**-30


def _template(layout: int) -> tuple[list[int], int]:
    """Source offsets of the text of a cell with all 17 digits, and how many
    digits come before its point: ``layout`` is ``X + 4`` in fixed notation
    (X in -4..16), and 21..24 for a negative/positive exponent of 2/3 digits."""
    digits = list(range(3, 20))
    if layout < 4:
        return [_ZERO, _POINT] + [_ZERO] * (3 - layout) + digits, 0
    if layout <= 20:
        return digits[: layout - 3] + [_POINT] + digits[layout - 3 :], layout - 3
    exponent = [_EMINUS if layout < 23 else _EPLUS] + [21, 22, 23][layout % 2 :]
    return digits[:1] + [_POINT] + digits[1:] + [_E] + exponent, 1


@cache
def _layouts():
    """The 4-digit ASCII chunks as ``uint32`` words; the templates keyed by
    ``sign·25 + layout``, the empty cell last; and their masks for ``m``
    significant digits, keyed by ``template·17 + m - 1``: a cell shows its
    first ``max(m, digits before the point)`` digits, and its point only
    when a digit follows."""
    chunks = np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    bodies, before = zip(*map(_template, range(25)))
    cells = [sign + body + [_SEP] for sign in ([], [_MINUS]) for body in bodies] + [[_SEP]]
    templates = np.array([cell + [_SEP] * (_WIDTH - len(cell)) for cell in cells], np.intp)
    offsets = templates[:, None, :]  # axes: template, m - 1, position
    before = np.array(before * 2 + (0,))[:, None, None]
    shown = np.maximum(np.arange(1, 18)[:, None], before)
    hidden_digit = (offsets >= 3) & (offsets < 20) & (offsets - 3 >= shown)
    hidden_point = (offsets == _POINT) & (shown <= before)
    lengths = np.array([len(cell) for cell in cells])[:, None, None]
    masks = (np.arange(_WIDTH) < lengths) & ~(hidden_digit | hidden_point)
    return chunks.astype(np.uint8).view(np.uint32).ravel(), templates, masks.reshape(-1, _WIDTH)


def _block_text(block) -> str:
    """The rows of the 2-D float ``block`` as CSV text."""
    chunks, templates, masks = _layouts()
    values = block.ravel()
    a, nan = np.abs(values), np.isnan(values)
    fast = (a >= 1e-280) & (a <= 1e280)
    exact = ~fast & (a != 0) & ~nan
    x, q = np.zeros(len(a), np.int64), np.zeros(len(a), np.int64)
    x[fast], q[fast], tie = _round17(a[fast])
    exact[np.flatnonzero(fast)[tie]] = True
    source = np.empty((len(a), 8), np.uint32)
    high, low = np.divmod(q, 10**8)
    lead, high = np.divmod(high, 10**8)
    for word, digits in enumerate((lead, *np.divmod(high, 10**4), *np.divmod(low, 10**4), np.abs(x))):
        source[:, word] = chunks[digits]
    source[:, 6:] = np.frombuffer(b"-.0e+-,\0", np.uint32)
    source.reshape(*block.shape, 8)[:, -1, 7] = np.frombuffer(b"+-\n\0", np.uint32)
    chars = source.view(np.uint8).reshape(len(a), 32)
    m = 17 - np.argmax(chars[:, 19:2:-1] != ord("0"), axis=1)  # digits up to the last nonzero one
    layout = np.where((x >= -4) & (x <= 16), x + 4, 21 + 2 * (x > 0) + (np.abs(x) >= 100))
    key = np.signbit(values) * 25 + layout
    key[exact | nan] = len(templates) - 1
    index = templates.take(key, axis=0)
    index += 32 * np.arange(len(a))[:, None]
    key = key * 17 + np.where(q == 0, 0, m - 1)  # zero shows one digit
    text = chars.ravel().take(index)[masks.take(key, axis=0)].tobytes().decode()
    exact = np.flatnonzero(exact)
    if not len(exact):
        return text
    pieces, start = [], 0  # each exact cell's text goes before its separator
    for end, value in zip((np.cumsum(masks.sum(axis=1)[key])[exact] - 1).tolist(), values[exact].tolist()):
        pieces += [text[start:end], "%.17g" % value]
        start = end
    return "".join(pieces) + text[start:]


def write_table(path, header, columns) -> None:
    """Write the ``header`` names, then ``columns`` (1-D arrays, or 2-D arrays
    holding several columns) row by row, to ``path``, or to standard output
    when ``path`` is empty or None."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    width = sum(c.shape[1] if c.ndim == 2 else 1 for c in columns)
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + "\n")
        for rows in blocks(len(columns[0]), width):
            fh.write(_block_text(np.column_stack([c[rows] for c in columns])))


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

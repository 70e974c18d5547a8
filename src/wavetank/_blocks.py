"""The one rule that sizes the blocked loops of the package.

Block temporaries stay below 128 KiB. glibc's malloc maps a request of
128 KiB or more afresh and unmaps it when freed, so such a temporary made per
block faults its pages in again on every block, while smaller ones are reused
from the heap. A loop over rows of ``row_entries`` entries each walks the
slices of :func:`blocks`, which hold fewer than ``BLOCK`` entries: 64 KiB of
float64 and just under 128 KiB of complex128, or of float64 rows twice as
wide. A larger array is made once per call.

The heap keeps freed blocks only while its free top stays below glibc's trim
threshold, 128 KiB at first. Freeing one mapped array of 2 MiB when this
module loads raises that to 4 MiB and the mmap threshold to 2 MiB, above the
CSV writer's block temporaries too (about 250 bytes a cell; the 1.6 MB
gather index is the largest). Blocks of twice as many cells made malloc hand
the writer's arrays back to the system and fault them in again: writing the
808k-cell record-field series took 77k page faults and twice the time.
"""

import numpy as np

BLOCK = 1 << 13  # entries of one block, exclusive

np.empty(1 << 21, np.uint8)  # mapped and freed at once: raises both thresholds


def blocks(n_rows: int, row_entries: int) -> list[slice]:
    """Consecutive slices of ``range(n_rows)``, each of at most
    max(1, (BLOCK - 1) // row_entries) rows."""
    rows = max(1, (BLOCK - 1) // row_entries)
    return [slice(lo, min(lo + rows, n_rows)) for lo in range(0, n_rows, rows)]

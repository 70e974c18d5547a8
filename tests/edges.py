"""The edge maps of the wall extension against the field they belong to, for the tests only.

Each map is compared with a one-sided second-order difference of
``neumann_field``, apart from the series they share: the top trace is the
field's y-derivative at y = 0, and at the wall x = 0 the x-derivative is
-v(y), with psi_k in the cosine form the library does not use.
"""

import math

import numpy as np

from wavetank.boundary import neumann_field, neumann_to_neumann


def _psi_sum(v, y) -> np.ndarray:
    """sum_k v_k psi_k(y), psi_k(y) = sqrt(2) cos[(2k-1)(pi/2)(y+1)]."""
    k = np.arange(1, len(v) + 1)[:, None]
    return np.asarray(v) @ (math.sqrt(2.0) * np.cos((2 * k - 1) * (np.pi / 2) * (y + 1.0)))


def edge_orders(edge: str, v) -> np.ndarray:
    """Observed orders log2(e_n / e_2n) of the ``"top"`` or ``"wall"`` difference
    error for n = 256..2048 steps across the edge (16 along it)."""
    errors = []
    for n in (256, 512, 1024, 2048):
        if edge == "top":
            grid = neumann_field(v, 16, n)
            f = grid.values[:, ::-1]  # f[:, j] at y = -j/n
            slope = (3.0 * f[:, 0] - 4.0 * f[:, 1] + f[:, 2]) * (n / 2.0)
            errors.append(np.max(np.abs(slope - neumann_to_neumann(v, grid.x))))
        else:
            grid = neumann_field(v, n, 16)
            f = grid.values
            slope = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * np.pi / n)
            errors.append(np.max(np.abs(slope + _psi_sum(v, grid.y))))
    return np.log2(np.array(errors[:-1]) / np.array(errors[1:]))

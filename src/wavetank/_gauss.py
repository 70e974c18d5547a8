"""Composite Gauss-Legendre rules, on which every profile integral is taken."""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def _reference_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def panel_rule(panels, nodes_per_panel):
    """Nodes and weights of a composite Gauss-Legendre rule.

    Parameters
    ----------
    panels : sequence of (a, b)
        Integration sub-intervals, ascending and non-overlapping.
    nodes_per_panel : int or sequence of int
        Gauss-Legendre order used on each panel (one count, or one per panel).

    Returns
    -------
    y, w : ndarray
        Quadrature nodes and weights; ``sum(w * f(y))`` approximates the
        integral of ``f`` over the union of the panels.
    """
    if np.isscalar(nodes_per_panel):
        counts = [int(nodes_per_panel)] * len(panels)
    else:
        counts = [int(n) for n in nodes_per_panel]
        if len(counts) != len(panels):
            raise ValueError("need one node count per panel")
    ys, ws = [], []
    for (a, b), n in zip(panels, counts):
        xr, wr = _reference_rule(n)
        half = 0.5 * (b - a)
        ys.append(0.5 * (a + b) + half * xr)
        ws.append(half * wr)
    return np.concatenate(ys), np.concatenate(ws)

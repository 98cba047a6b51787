"""Torus sample points for the tests; the certificate itself needs none."""

import numpy as np


def mesh(grid):
    """The grid's sample points as an array of shape (G,)*d + (d,)."""
    axes = np.meshgrid(*([grid.points_1d] * grid.d), indexing="ij")
    return np.stack(axes, axis=-1)

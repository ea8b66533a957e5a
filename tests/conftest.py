import math

import numpy as np
import pytest

from memflow.spectral import SpectralGrid, band_shape
from memflow.transport import ChunkWorkspace, identity_stack


class TransformCounts:
    """2-D transforms of ``SpectralGrid.fwd`` and ``inv`` since the last :meth:`reset`,
    one per leading index of the transformed array."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.fwd = self.inv = 0

    @property
    def total(self) -> int:
        return self.fwd + self.inv


@pytest.fixture()
def counted(monkeypatch) -> TransformCounts:
    counts = TransformCounts()

    def counting(name):
        method = getattr(SpectralGrid, name)

        def wrapper(self, f, *args, **kwargs):
            setattr(counts, name, getattr(counts, name) + math.prod(f.shape[:-2]))
            return method(self, f, *args, **kwargs)
        return wrapper

    for name in ("fwd", "inv"):
        monkeypatch.setattr(SpectralGrid, name, counting(name))
    return counts


def gradient_stack(grid: SpectralGrid, f):
    """(d1 f, d2 f) stacked on a new leading axis: ``grid.gradient`` along each axis."""
    return np.stack([grid.gradient(f, axis) for axis in (-2, -1)])


def divergence_free_rows(grid, rng, count, amplitude):
    """``count`` band-limited physical fields I + grad-perp psi_j, psi_j random: each row G_j =
    e_j + (-d2 psi_j, d1 psi_j) is divergence-free; the perturbation is scaled to sup ``amplitude``."""
    psi_hat = grid.band(rng.standard_normal((count, 2, grid.n, grid.n)))
    g = grid.field(np.stack((-grid.d2_band * psi_hat, grid.d1_band * psi_hat), axis=2))  # g[:, j, l]
    g *= amplitude / np.abs(g).max()
    return identity_stack(count, grid.n) + g


def memory_budgets(n: int, n_s: int) -> tuple[float, float]:
    """The smallest ``memory_cap_mb`` whose history of N_s rows on an n x n grid runs, its potentials (2 band
    spectra a row) beside the chunk workspace, and the smallest that holds their carry too (2 more a row)."""
    row, work = 16 * math.prod(band_shape(n)), ChunkWorkspace.nbytes_for(n)
    return (2 * n_s * row + work) / 2**20, (4 * n_s * row + work) / 2**20

import math

import numpy as np
import pytest

from memflow.spectral import SpectralGrid


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

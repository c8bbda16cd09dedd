import numpy as np
import pytest

import oracles
from blowfish import kmeans, mechanisms


def _zero_nodes(seed, indices, scales):
    return np.zeros(np.shape(scales))


def _zero_stream(seed, index, scale, n):
    return np.zeros(n)


@pytest.fixture
def no_noise(monkeypatch):
    """Every Laplace draw of the ordered, tree and k-means releases is zero,
    so they publish the exact values their noise perturbs.  The k-means
    oracle draws through its own import of ``stream_laplace``, which is
    zeroed as well."""
    monkeypatch.setattr(mechanisms, "node_laplace", _zero_nodes)
    monkeypatch.setattr(kmeans, "stream_laplace", _zero_stream)
    monkeypatch.setattr(oracles, "stream_laplace", _zero_stream)

import numpy as np
import pytest

import oracles
from blowfish import kmeans, mechanisms


def _zero_stream(seed, index, scales):
    return np.zeros(np.shape(scales))


@pytest.fixture
def no_noise(monkeypatch):
    """Every Laplace draw is zero, so every release publishes the exact
    values its noise perturbs.  k-means and its oracle draw through their
    own imports of ``stream_laplace``, which are zeroed as well."""
    monkeypatch.setattr(mechanisms, "stream_laplace", _zero_stream)
    monkeypatch.setattr(kmeans, "stream_laplace", _zero_stream)
    monkeypatch.setattr(oracles, "stream_laplace", _zero_stream)

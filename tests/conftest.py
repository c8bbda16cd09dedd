import numpy as np
import pytest

import oracles
from blowfish import mechanisms


def _noiseless(values, seed, index, scale):
    return np.array(values, dtype=float)


@pytest.fixture
def no_noise(monkeypatch):
    """Every release adds zero noise, so it publishes the exact values its
    noise perturbs.  Every release, k-means included, adds its noise through
    ``mechanisms.add_noise``; the oracles call their own import of it."""
    monkeypatch.setattr(mechanisms, "add_noise", _noiseless)
    monkeypatch.setattr(oracles, "add_noise", _noiseless)

"""Shared oracles for the test suite.

Everything here is computed independently of the library code under test:
finite differences for gradients, power iteration for spectral radii, and
direct recurrence iteration for coefficient sampling.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# property tests draw the same examples on every run and keep no example
# database; the cache of constants that hypothesis reads from the sources
# while tests are collected goes to the system's temporary directory, not
# to a .hypothesis/ directory in the working directory
settings.register_profile("lyapcert", derandomize=True, database=None, deadline=None,
                          max_examples=100)
settings.load_profile("lyapcert")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "lyapcert-hypothesis")


def fd_gradient(value, x, h=None):
    """Central finite differences of a scalar function, h = 1e-6*max(1,|x|)."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (value(x + e) - value(x - e)) / (2.0 * h)
    return g


def random_eligible_coeffs(rng, rho_max=1.0):
    """Random (a, b) with a^2 + 4b strictly <= 0 and |lambda|^2 = -b <= rho_max^2."""
    while True:
        a = rng.uniform(-1.9, 1.9)
        margin = rng.uniform(0.0, 1.0)
        b = -(a * a / 4.0 + margin)
        if -b <= rho_max * rho_max:
            return a, b


def power_radius(a, b, steps=2000, seed=0):
    """Spectral radius of [[a, b], [1, 0]] by normalized power iteration."""
    rng = np.random.default_rng(seed)
    m = np.array([[a, b], [1.0, 0.0]])
    z = rng.standard_normal(2)
    acc = 0.0
    burn = steps // 10
    for k in range(steps):
        z = m @ z
        n = np.linalg.norm(z)
        if n == 0.0:
            return 0.0
        z /= n
        if k >= burn:
            acc += np.log(n)
    return float(np.exp(acc / (steps - burn)))


def peak_bytes(fn) -> int:
    """Peak bytes that ``fn()`` holds at once beyond what was allocated
    before the call, as numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

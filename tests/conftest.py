import itertools

import numpy as np
import pytest

import oracle
from dirinfo.discrete import DiscreteMarkovModel


def oracle_law(model: DiscreteMarkovModel, n: int):
    """Dict law of the model via the independent enumerator (shares only the
    raw kernel/initial arrays with the package, not the table machinery)."""
    sizes = model.alphabet_sizes
    M = model.joint_alphabet
    code = {s: i for i, s in enumerate(itertools.product(*[range(m) for m in sizes]))}

    def row_of(window):
        row = 0
        for sym in window:
            row = row * M + code[sym]
        return row

    def kernel_fn(window, sym):
        return model.kernel[row_of(window), code[sym]]

    def initial_fn(window):
        return model.initial[row_of(window)]

    return oracle.enumerate_law(sizes, model.order, kernel_fn, initial_fn, n)


def pytest_configure(config):
    # a rate that should have converged but warns is a failure; tests that
    # expect the warning catch it with pytest.warns
    config.addinivalue_line("filterwarnings", "error::dirinfo.errors.RateNotConverged")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

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


def sticky_chain(e: float, order: int = 1) -> DiscreteMarkovModel:
    """Binary x0 leaves state 0 with probability ``e`` and state 1 with
    ``3 e``; x1 copies x0's last value with probability 0.9.  Its window
    chain mixes slowly as ``e`` falls, and at ``e = 0`` it has two closed
    classes.  At ``order`` > 1 the kernel ignores all but the last symbol."""
    kernel = np.zeros((4, 4))
    for x0, x1, y0, y1 in itertools.product(range(2), repeat=4):
        leave = e if x0 == 0 else 3 * e
        kernel[2 * x0 + x1, 2 * y0 + y1] = ((leave if y0 != x0 else 1 - leave)
                                            * (0.9 if y1 == x0 else 0.1))
    W = 4**order
    return DiscreteMarkovModel(alphabet_sizes=(2, 2), order=order,
                               kernel=np.tile(kernel, (W // 4, 1)),
                               initial=np.full(W, 1 / W), labels=("x0", "x1"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

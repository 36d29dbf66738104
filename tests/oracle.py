"""Independent brute-force oracle used to freeze expected values.

Everything here works on plain Python dicts mapping whole trajectories
(tuples of per-time tuples of node symbols) to probabilities, enumerated
with itertools.  It deliberately shares no code with the package's
array-based implementation so the two can check each other.
"""

import itertools
import math
from fractions import Fraction


def enumerate_law(alphabet_sizes, order, kernel_fn, initial_fn, n):
    """Joint law of x_V^1..n as {trajectory: prob}.

    ``initial_fn(window)`` gives the probability of the first ``order``
    joint samples; ``kernel_fn(window, sym)`` the transition probability,
    where ``window`` is a tuple of ``order`` per-time symbol tuples.
    """
    symbols = list(itertools.product(*[range(m) for m in alphabet_sizes]))
    law = {}
    for traj in itertools.product(symbols, repeat=n):
        if n <= order:
            # initial law marginalized onto the first n samples
            p = 0.0
            for tail in itertools.product(symbols, repeat=order - n):
                p += initial_fn(traj + tail)
        else:
            p = initial_fn(traj[:order])
            for t in range(order, n):
                p *= kernel_fn(traj[t - order:t], traj[t])
        if p > 0.0:
            law[traj] = p
    return law


def marg(law, cells):
    """Marginal over cells [(node, time)...]; key order = sorted cells."""
    cells = sorted(set(cells), key=lambda c: (c[1], c[0]))
    out = {}
    for traj, p in law.items():
        key = tuple(traj[t - 1][a] for a, t in cells)
        out[key] = out.get(key, 0.0) + p
    return out


def H(law, cells):
    if not cells:
        return 0.0
    return -sum(p * math.log(p) for p in marg(law, cells).values() if p > 0.0)


def cmi(law, xs, ys, zs):
    """I(X; Y | Z) for disjoint cell sets."""
    xs, ys, zs = set(xs), set(ys), set(zs)
    return (H(law, xs | zs) + H(law, ys | zs)
            - H(law, xs | ys | zs) - H(law, zs))


def cells(nodes, times):
    return {(a, t) for a in nodes for t in times}


def past(nodes, i):
    return cells(nodes, range(1, i))


def upto(nodes, i):
    return cells(nodes, range(1, i + 1))


# -- measures -----------------------------------------------------------

def mutual_information(law, A, B, n):
    return H(law, upto(A, n)) + H(law, upto(B, n)) - H(law, upto(A, n) | upto(B, n))


def side(C, i, mode):
    return upto(C, i) if mode == "contemporaneous" else past(C, i)


def directed_information(law, A, B, n, C=(), mode="strict_past"):
    return sum(cmi(law, upto(A, i), cells(B, [i]), past(B, i) | side(C, i, mode))
               for i in range(1, n + 1))


def delayed_directed_information(law, A, B, n, C=(), mode="strict_past"):
    return sum(cmi(law, past(A, i), cells(B, [i]), past(B, i) | side(C, i, mode))
               for i in range(1, n + 1))


def instantaneous_exchange(law, A, B, n, C=(), mode="strict_past"):
    return sum(cmi(law, cells(A, [i]), cells(B, [i]),
                   past(A, i) | past(B, i) | side(C, i, mode))
               for i in range(1, n + 1))


def delta_instantaneous(law, A, B, C, n):
    with_a = sum(cmi(law, cells(C, [i]), cells(B, [i]),
                     past(C, i) | past(B, i) | past(A, i)) for i in range(1, n + 1))
    without = sum(cmi(law, cells(C, [i]), cells(B, [i]),
                      past(C, i) | past(B, i)) for i in range(1, n + 1))
    return with_a - without


def _key(traj, cells):
    cells = sorted(set(cells), key=lambda c: (c[1], c[0]))
    return tuple(traj[t - 1][a] for a, t in cells)


def lautum_transfer(law, A, B, n):
    """(1/n) D( p(x_A || x_B) p(x_B) || p(x_A, x_B) ); math.inf on support
    escape.  The factorized law is evaluated on the joint support; any
    missing mass lives on zero-probability trajectories."""
    margs = {}

    def get(cells):
        key = frozenset(cells)
        if key not in margs:
            margs[key] = marg(law, key)
        return margs[key]

    b_marg = get(upto(B, n))
    support = {}
    total = 0.0
    for traj in law:
        q = b_marg[_key(traj, upto(B, n))]
        for i in range(1, n + 1):
            num_cells = upto(A, i) | upto(B, i)
            den_cells = upto(A, i - 1) | upto(B, i)
            num = get(num_cells).get(_key(traj, num_cells), 0.0)
            den = get(den_cells).get(_key(traj, den_cells), 0.0)
            q *= num / den if den > 0.0 else 0.0
        if q > 0.0:
            support[traj] = q
            total += q
    if total < 1.0 - 1e-9:
        return math.inf
    return sum(q * math.log(q / law[traj]) for traj, q in support.items()) / n


def causal_mutual_information(law, A, B, n, C=()):
    """Sum over i of H(A(i)|A,C pasts) + H(B(i)|B,C pasts) - H(joint | pasts)."""
    total = 0.0
    for i in range(1, n + 1):
        za = past(A, i) | past(C, i)
        zb = past(B, i) | past(C, i)
        zj = past(A, i) | past(B, i) | past(C, i)
        total += (H(law, cells(A, [i]) | za) - H(law, za)
                  + H(law, cells(B, [i]) | zb) - H(law, zb)
                  - H(law, cells(A, [i]) | cells(B, [i]) | zj) + H(law, zj))
    return total


# -- stationary law -----------------------------------------------------

def stationary_law(kernel, alphabet, order):
    """Stationary law of the window chain of an order-``order`` kernel over
    ``alphabet`` joint symbols, exact in rationals: rows of ``kernel`` are
    windows (tuples of ``order`` symbols, oldest first, in lexicographic
    order), each scaled to sum to exactly 1.  Gauss-Jordan elimination of
    the balance equations with the last replaced by sum(pi) = 1; ValueError
    when they have no unique solution."""
    windows = list(itertools.product(range(alphabet), repeat=order))
    index = {w: i for i, w in enumerate(windows)}
    W = len(windows)
    trans = [[Fraction(0)] * W for _ in range(W)]  # trans[i][j] = P(i -> j)
    for w, row in zip(windows, kernel):
        row = [Fraction(float(p)) for p in row]
        total = sum(row)
        for s, p in enumerate(row):
            trans[index[w]][index[w[1:] + (s,)]] = p / total
    # row j of ``system``: sum_i pi_i P(i -> j) - pi_j = 0
    system = [[trans[i][j] - (i == j) for i in range(W)] + [Fraction(0)] for j in range(W)]
    system[-1] = [Fraction(1)] * (W + 1)
    for c in range(W):
        pivot = next((r for r in range(c, W) if system[r][c] != 0), None)
        if pivot is None:
            raise ValueError("the balance equations have no unique solution")
        system[c], system[pivot] = system[pivot], system[c]
        for r in range(W):
            if r != c and system[r][c] != 0:
                f = system[r][c] / system[c][c]
                system[r] = [x - f * y for x, y in zip(system[r], system[c])]
    return [system[i][W] / system[i][i] for i in range(W)]

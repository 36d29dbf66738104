"""Reference implementations the package's fast paths are checked against.

These are the straightforward forms the package used before its VAR
statistics moved to one lagged Gram matrix per panel, its block
permutation to index arithmetic, its surrogates to chunks, its exact
laws to chain contractions and its canonical discrete models to
broadcasts of per-node laws: every regression is a separate ``lstsq`` fit on
an explicitly stacked lagged design, the permutation cuts the rotated index
vector with ``np.array_split``, surrogate statistics are computed one
permuted panel at a time, discrete likelihoods count the contexts found by
``np.unique`` and the plug-in kernel is tallied in dictionaries, the joint
law of a Markov model is the dense product of its initial law and
kernels, the canonical discrete models fill their
kernels entry by entry in nested loops, the nonlinear example's AR(1) filter is
``scipy.signal.lfilter``, and a VAR's one-step prediction risk is a
finite-window projection on its Lyapunov autocovariances rather than a
Riccati solve, its information rates are bracketed on a finite-horizon law
of block-Toeplitz entropies from the same autocovariances, a logistic likelihood is maximized by scipy's BFGS on a
stacked lagged design, and the chi-square upper tail is summed in 50-digit
decimal arithmetic.  They share nothing with the package's implementations.
"""

from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np
from scipy import linalg as sla
from scipy import optimize, signal, special

from dirinfo.discrete import DiscreteMarkovModel
from dirinfo.errors import ParamError, SingularDesign, UnstableModel


def block_permutation(T, block_len, rng):
    """Circular block permutation of 0..T-1: rotate, cut into blocks,
    shuffle the block order."""
    offset = int(rng.integers(T))
    idx = np.concatenate([np.arange(offset, T), np.arange(offset)])
    n_blocks = max(1, T // block_len)
    blocks = np.array_split(idx, n_blocks)
    order = rng.permutation(len(blocks))
    return np.concatenate([blocks[i] for i in order])


def surrogate_stats(stat_of_values, values, a_idx, block_len, n_surrogates, seed):
    """Statistic of each of ``n_surrogates`` panels whose A columns are
    circularly block-permuted, one panel at a time, and the generator
    after its draws.  ``stat_of_values`` maps a panel's values to its
    statistic."""
    rng = np.random.default_rng(seed)
    a_cols = list(a_idx)
    work = values.copy()
    stats = np.empty(n_surrogates)
    for s in range(n_surrogates):
        perm = block_permutation(values.shape[0], block_len, rng)
        work[:, a_cols] = values[np.ix_(perm, a_cols)]
        stats[s] = stat_of_values(work)
    return stats, rng


def _joint_codes(values, cols, sizes):
    code = np.zeros(values.shape[0], dtype=np.int64)
    for c in cols:
        code = code * sizes[c] + values[:, c]
    return code


def _contexts(values, cols, sizes, k):
    """Joint code of the k samples before each time k..T-1 of ``cols``."""
    code = _joint_codes(values, cols, sizes)
    base = int(np.prod([sizes[c] for c in cols]))
    T = values.shape[0]
    ctx = np.zeros(T - k, dtype=np.int64)
    for j in range(k):
        ctx = ctx * base + code[j:T - k + j]
    return ctx


def _cond_loglik(ctx, tgt, n_tgt, alpha):
    uniq, inv = np.unique(ctx, return_inverse=True)
    counts = np.bincount(inv * n_tgt + tgt, minlength=uniq.size * n_tgt)
    counts = counts.reshape(uniq.size, n_tgt).astype(float)
    row = counts.sum(axis=1, keepdims=True)
    if alpha > 0:
        probs = (counts + alpha) / (row + alpha * n_tgt)
    else:
        probs = counts / row
    mask = counts > 0
    return float(np.sum(counts[mask] * np.log(probs[mask])))


def discrete_causality_stat(values, sizes, a_idx, b_idx, c_idx, k, alpha):
    """Per-sample plug-in LLR of B's present on the past of (A, B, C)
    against the past of (B, C); ``sizes`` are the panel's alphabet sizes."""
    n_obs = values.shape[0] - k
    tgt = _joint_codes(values, b_idx, sizes)[k:]
    m_tgt = int(np.prod([sizes[c] for c in b_idx]))
    full = _contexts(values, sorted(a_idx + b_idx + c_idx), sizes, k)
    res = _contexts(values, sorted(b_idx + c_idx), sizes, k)
    return (_cond_loglik(full, tgt, m_tgt, alpha)
            - _cond_loglik(res, tgt, m_tgt, alpha)) / n_obs


def discrete_coupling_stat(values, sizes, a_idx, b_idx, c_idx, k, alpha, contemporaneous):
    """Per-sample plug-in LLR of the joint present of A and B against the
    product of their marginals, given the past (and C's present when
    ``contemporaneous``)."""
    n_obs = values.shape[0] - k
    ctx = _contexts(values, sorted(a_idx + b_idx + c_idx), sizes, k)
    if contemporaneous and c_idx:
        cols = sorted(c_idx)
        ctx = (ctx * int(np.prod([sizes[c] for c in cols]))
               + _joint_codes(values, cols, sizes)[k:])
    a_t = _joint_codes(values, a_idx, sizes)[k:]
    b_t = _joint_codes(values, b_idx, sizes)[k:]
    m_a = int(np.prod([sizes[c] for c in a_idx]))
    m_b = int(np.prod([sizes[c] for c in b_idx]))
    return (_cond_loglik(ctx, a_t * m_b + b_t, m_a * m_b, alpha)
            - _cond_loglik(ctx, a_t, m_a, alpha)
            - _cond_loglik(ctx, b_t, m_b, alpha)) / n_obs


def plugin_counts(values, sizes, k):
    """Dictionary tally of (window, next) joint-symbol pairs of an integer
    panel, and the code of its first window: symbols coded row by row with
    the first column most significant, windows oldest first."""
    M = int(np.prod(sizes))
    symbols = []
    for row in values.tolist():
        code = 0
        for v, m in zip(row, sizes):
            code = code * m + v
        symbols.append(code)
    windows = []
    for t in range(len(symbols) - k + 1):
        code = 0
        for s in symbols[t:t + k]:
            code = code * M + s
        windows.append(code)
    counts = {}
    for w, s in zip(windows, symbols[k:]):
        counts[w, s] = counts.get((w, s), 0) + 1
    return counts, windows[0]


def plugin_kernel(values, sizes, k, smoothing):
    """Plug-in kernel ``(count + a) / (row + a * M)`` and initial law of an
    integer panel, entry by entry from :func:`plugin_counts`; without
    smoothing an unvisited row is uniform."""
    M = int(np.prod(sizes))
    counts, first = plugin_counts(values, sizes, k)
    rows = {}
    for (w, _), n in counts.items():
        rows[w] = rows.get(w, 0) + n

    def entry(n, row):
        if smoothing > 0:
            return (n + smoothing) / (row + smoothing * M)
        return n / row if row else 1.0 / M

    unvisited = [entry(0.0, 0.0)] * M
    kernel = [[entry(float(counts.get((w, s), 0)), float(rows[w])) for s in range(M)]
              if w in rows else unvisited for w in range(M**k)]
    initial = np.zeros(M**k)
    initial[first] = 1.0
    return np.array(kernel), initial


def chained_table(model, n):
    """Dense ``M**n`` joint table of a Markov model: the initial window law
    times one kernel factor per later sample, one axis per cell."""
    M, k = model.joint_alphabet, model.order
    table = model.initial.reshape((M,) * k)
    if n < k:
        table = table.sum(axis=tuple(range(n, k)))
    kernel_nd = model.kernel.reshape((M,) * (k + 1))
    for t in range(k + 1, n + 1):
        lead = t - 1 - k
        table = table[..., None] * kernel_nd.reshape((1,) * lead + (M,) * (k + 1))
    return table.reshape(model.alphabet_sizes * n)


def _binary_channel(cond_b, cond_a=None, initial=None):
    """Bivariate binary order-1 kernel from per-step conditionals:
    ``cond_a(a_prev, b_prev)`` and ``cond_b(a_now, a_prev, b_prev)`` fire
    the next symbols; by default a fair source and a uniform first sample."""
    if cond_a is None:
        cond_a = lambda a, b: 0.5
    kernel = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            pa1 = cond_a(a, b)
            for a2 in range(2):
                pa = pa1 if a2 == 1 else 1.0 - pa1
                pb1 = cond_b(a2, a, b)
                for b2 in range(2):
                    pb = pb1 if b2 == 1 else 1.0 - pb1
                    kernel[a * 2 + b, a2 * 2 + b2] = pa * pb
    if initial is None:
        initial = np.full(4, 0.25)
    return DiscreteMarkovModel(alphabet_sizes=(2, 2), order=1, kernel=kernel,
                               initial=np.asarray(initial, dtype=float), labels=("x", "y"))


def delay_channel(flip):
    return _binary_channel(lambda a2, a, b: (1 - flip) if a == 1 else flip)


def copy_channel(flip):
    initial = [0.5 * ((1 - flip) if y == x else flip)
               for x in range(2) for y in range(2)]
    return _binary_channel(lambda a2, a, b: (1 - flip) if a2 == 1 else flip,
                           initial=initial)


def common_driver_model(flip, persistence):
    def emission(w):
        out = np.zeros(8)
        for a in range(2):
            for b in range(2):
                x, y = w ^ a, w ^ b
                pa = flip if a == 1 else 1 - flip
                pb = flip if b == 1 else 1 - flip
                out[x * 4 + y * 2 + w] += pa * pb
        return out

    kernel = np.zeros((8, 8))
    for past in range(8):
        w_prev = past & 1
        for w in range(2):
            pw = persistence if w != w_prev else 1 - persistence
            kernel[past] += pw * emission(w)
    initial = 0.5 * (emission(0) + emission(1))
    return DiscreteMarkovModel(alphabet_sizes=(2, 2, 2), order=1, kernel=kernel,
                               initial=initial, labels=("x", "y", "w"))


def chain_markov_model(flip):
    kernel = np.zeros((8, 8))
    for x in range(2):
        for y in range(2):
            for z in range(2):
                row = x * 4 + y * 2 + z
                for x2 in range(2):
                    for y2 in range(2):
                        for z2 in range(2):
                            py = (1 - flip) if y2 == x else flip
                            pz = (1 - flip) if z2 == y else flip
                            kernel[row, x2 * 4 + y2 * 2 + z2] = 0.5 * py * pz
    return DiscreteMarkovModel(alphabet_sizes=(2, 2, 2), order=1, kernel=kernel,
                               initial=np.full(8, 1 / 8), labels=("x", "y", "z"))


def lag2_channel(flip):
    M = 4
    kernel = np.zeros((M * M, M))
    for past1 in range(M):      # joint symbol at t-2
        x_lag2 = past1 >> 1
        for past2 in range(M):  # joint symbol at t-1
            row = past1 * M + past2
            for nxt in range(M):
                x2, y2 = nxt >> 1, nxt & 1
                py = (1 - flip) if y2 == x_lag2 else flip
                kernel[row, nxt] = 0.5 * py
    return DiscreteMarkovModel(alphabet_sizes=(2, 2), order=2, kernel=kernel,
                               initial=np.full(M * M, 1 / (M * M)), labels=("x", "y"))


def random_feedback_free_model(seed, alphabet):
    rng = np.random.default_rng(seed)
    m = alphabet
    p_a = rng.dirichlet(np.ones(m), size=m)                # p(a' | a)
    p_b = rng.dirichlet(np.ones(m), size=(m, m, m))        # p(b' | a', a, b)
    kernel = np.zeros((m * m, m * m))
    for a in range(m):
        for b in range(m):
            for a2 in range(m):
                for b2 in range(m):
                    kernel[a * m + b, a2 * m + b2] = p_a[a, a2] * p_b[a2, a, b, b2]
    initial = np.kron(rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m)))
    return DiscreteMarkovModel(alphabet_sizes=(m, m), order=1, kernel=kernel,
                               initial=initial, labels=("a", "b"))


def nonlinear_example_values(alpha, beta, T, seed, burn_in):
    """Panel values (x, y) of the nonlinear example x(n+1) = alpha x(n) +
    beta y(n)^2 + e(n+1), its AR(1) drive filtered by ``lfilter``."""
    rng = np.random.default_rng(seed)
    total = T + burn_in
    y = rng.standard_normal(total)
    eps = rng.standard_normal(total)
    drive = np.zeros(total)
    drive[1:] = beta * y[:-1] ** 2 + eps[1:]
    x = signal.lfilter([1.0], [1.0, -alpha], drive)
    return np.column_stack([x, y])[burn_in:]


def _centred(values):
    x = values.astype(float)
    return x - x.mean(axis=0)


def _lagged_design(x, k, cols):
    """Regressor block [x(t-1) .. x(t-k)] restricted to ``cols``."""
    T = x.shape[0]
    parts = [x[k - j:T - j][:, cols] for j in range(1, k + 1)]
    return np.concatenate(parts, axis=1) if parts else np.empty((T - k, 0))


def _residual_cov(y, design):
    n = y.shape[0]
    if design.shape[1] == 0:
        resid = y
    else:
        if design.shape[0] <= design.shape[1]:
            raise SingularDesign("not enough rows for the regression")
        beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < design.shape[1]:
            raise SingularDesign("rank-deficient regressor matrix")
        resid = y - design @ beta
    cov = resid.T @ resid / n
    return cov, resid


def _logdet(cov):
    sign, val = np.linalg.slogdet(np.atleast_2d(cov))
    if sign <= 0:
        raise SingularDesign("singular residual covariance")
    return val


def var_causality_stat(values, a_idx, b_idx, c_idx, k):
    """Gaussian LLR of the nested VAR fits, its dof, n_obs and the
    sandwich eigenvalue weights of the tested coefficient block."""
    x = _centred(values)
    T = x.shape[0]
    y = x[k:][:, list(b_idx)]
    full_cols = sorted(a_idx + b_idx + c_idx)
    res_cols = sorted(b_idx + c_idx)
    design_full = _lagged_design(x, k, full_cols)
    cov_full, resid_full = _residual_cov(y, design_full)
    cov_res, _ = _residual_cov(y, _lagged_design(x, k, res_cols))
    stat = 0.5 * (_logdet(cov_res) - _logdet(cov_full))
    dof = k * len(a_idx) * len(b_idx)

    tested = [j for j, col in enumerate(full_cols * k) if col in a_idx]
    kept = [j for j in range(design_full.shape[1]) if j not in tested]
    xs = design_full[:, tested]
    if kept:
        xr = design_full[:, kept]
        xs = xs - xr @ np.linalg.lstsq(xr, xs, rcond=None)[0]
    gram = xs.T @ xs
    weights = []
    for i in range(y.shape[1]):
        u2 = resid_full[:, i] ** 2
        meat = xs.T @ (xs * u2[:, None])
        lam = np.linalg.eigvals(np.linalg.solve(gram, meat)) / cov_full[i, i]
        weights.extend(np.clip(lam.real, 1e-12, None))
    return stat, dof, T - k, weights


def var_coupling_stat(values, a_idx, b_idx, c_idx, k, contemporaneous):
    x = _centred(values)
    T = x.shape[0]
    cols = sorted(a_idx + b_idx + c_idx)
    design = _lagged_design(x, k, cols)
    if contemporaneous and c_idx:
        design = np.concatenate([design, x[k:][:, sorted(c_idx)]], axis=1)
    y = x[k:][:, list(a_idx + b_idx)]
    cov, _ = _residual_cov(y, design)
    na = len(a_idx)
    stat = 0.5 * (_logdet(cov[:na, :na]) + _logdet(cov[na:, na:]) - _logdet(cov))
    return stat, na * len(b_idx), T - k


def var_generalized_llr_stat(values, k, masked_by_target):
    """Per-sample generalized LLR of the VAR with the links
    ``{target: [sources]}`` (column indices) pinned to zero."""
    x = _centred(values)
    n_obs = x.shape[0] - k
    all_cols = list(range(x.shape[1]))
    ll_full = ll_res = 0.0
    for target, masked in sorted(masked_by_target.items()):
        y = x[k:][:, [target]]
        keep_cols = [c for c in all_cols if c not in masked]
        cov_f, _ = _residual_cov(y, _lagged_design(x, k, all_cols))
        cov_r, _ = _residual_cov(y, _lagged_design(x, k, keep_cols))
        ll_full += -0.5 * n_obs * _logdet(cov_f)
        ll_res += -0.5 * n_obs * _logdet(cov_r)
    return (ll_full - ll_res) / n_obs


def _logistic_max_loglik(design, y):
    """Maximized logistic log likelihood: BFGS on the negative log
    likelihood with its analytic gradient."""
    def negative(theta):
        z = design @ theta
        return np.logaddexp(0.0, z).sum() - y @ z, design.T @ (special.expit(z) - y)

    fit = optimize.minimize(negative, np.zeros(design.shape[1]), jac=True,
                            method="BFGS", options={"gtol": 1e-10})
    return -fit.fun


def glm_generalized_llr_stat(values, k, masked_by_target):
    """Per-sample generalized LLR of the logistic point-process model with
    the links ``{target: [sources]}`` (column indices) pinned to zero; each
    design is an intercept and the stacked lags 1..k."""
    x = values.astype(float)
    n_obs = x.shape[0] - k
    all_cols = list(range(x.shape[1]))
    llr = 0.0
    for target, masked in sorted(masked_by_target.items()):
        keep_cols = [c for c in all_cols if c not in masked]
        for cols, sign in ((all_cols, 1.0), (keep_cols, -1.0)):
            design = np.concatenate([np.ones((n_obs, 1)), _lagged_design(x, k, cols)], axis=1)
            llr += sign * _logistic_max_loglik(design, x[k:, target])
    return llr / n_obs


def autocovariance(model, max_lag):
    """Gamma(h) = E[x(t) x(t-h)'] for h = 0..max_lag, shape (max_lag+1, d, d)
    of a VAR model: Gamma(0..p-1) from the companion-form Lyapunov
    equation, higher lags from the Yule-Walker recursion."""
    if not model.is_stable:
        raise UnstableModel(
            f"spectral radius {model.spectral_radius:.6f} >= 1; no stationary law")
    p, d = model.order, model.n_nodes
    F = model.companion()
    Q = np.zeros((p * d, p * d))
    Q[:d, :d] = model.noise_cov
    big = sla.solve_discrete_lyapunov(F, Q, method="bilinear")
    gammas = np.empty((max(max_lag, p - 1) + 1, d, d))
    for h in range(min(p, max_lag + 1)):
        gammas[h] = big[:d, h * d:(h + 1) * d]
    for h in range(p, max_lag + 1):
        gammas[h] = sum(model.coeffs[j - 1] @ gammas[h - j] for j in range(1, p + 1))
    return gammas[:max_lag + 1]


class GaussianSequenceLaw:
    """Law of x(1..horizon) of a stationary VAR model, read the way
    ``dirinfo.measures`` reads a law: the entropy of a cell mask (bit
    ``(t-1) * d + a`` is node a at time t) is 1/2 log det(2 pi e S), S the
    block-Toeplitz covariance of those cells built from ``autocovariance``."""

    def __init__(self, model, horizon):
        self.n_nodes, self.horizon = model.n_nodes, horizon
        self._gammas = autocovariance(model, horizon - 1)
        self._entropies = {}

    def entropy_of_cells(self, mask):
        if mask not in self._entropies:
            time, node = np.divmod(np.array([b for b in range(mask.bit_length()) if mask >> b & 1], dtype=int),
                                   self.n_nodes)
            # Cov(x_a(s), x_b(t)) is Gamma(s - t)[a, b] for s >= t, else Gamma(t - s)[b, a]
            ahead = time[:, None] >= time[None, :]
            cov = self._gammas[np.abs(time[:, None] - time[None, :]),
                               np.where(ahead, node[:, None], node[None, :]),
                               np.where(ahead, node[None, :], node[:, None])]
            logdet = np.linalg.slogdet(cov)[1] if time.size else 0.0
            self._entropies[mask] = 0.5 * (time.size * np.log(2 * np.pi * np.e) + logdet)
        return self._entropies[mask]


@dataclass(frozen=True)
class PredictionRisk:
    """One-step prediction error of a target group; ``risk`` is ``log det``
    of the error covariance."""

    target: tuple
    predictor_spec: tuple
    error_cov: np.ndarray
    risk: float


def _normalize_spec(spec):
    """predictor_spec entries are (nodes, max_lag, include_contemporaneous)."""
    cells = set()
    normalized = []
    for nodes, max_lag, contemporaneous in spec:
        nodes = tuple(int(a) for a in nodes)
        max_lag = int(max_lag)
        if max_lag < 0:
            raise ParamError("predictor max_lag must be >= 0")
        normalized.append((nodes, max_lag, bool(contemporaneous)))
        for a in nodes:
            for lag in range(1, max_lag + 1):
                cells.add((a, lag))
            if contemporaneous:
                cells.add((a, 0))
    return tuple(normalized), sorted(cells, key=lambda c: (c[1], c[0]))


def prediction_variance(model, target, predictors):
    """Error covariance of the best linear one-step predictor of the
    target nodes of a VAR model from a finite information set.

    ``predictors`` is a list of ``(node set, max lag, include_contemporaneous)``
    groups; lags count backwards from the predicted time step, so lag 0 is a
    contemporaneous regressor.  The predictor is the projection on those
    lagged values, computed from the model's autocovariances.
    """
    target = tuple(int(b) for b in target)
    if not target:
        raise ParamError("target must be nonempty")
    spec, cells = _normalize_spec(predictors)
    for b in target:
        if (b, 0) in cells:
            raise ParamError(f"target node {b} cannot be its own contemporaneous predictor")
    max_lag = max((lag for _, lag in cells), default=0)
    gammas = autocovariance(model, max_lag)

    g0_bb = gammas[0][np.ix_(target, target)]
    if not cells:
        err = g0_bb
    else:
        nodes = np.array([a for a, _ in cells])
        lags = np.array([lag for _, lag in cells])
        # block-Toeplitz: G[i, j] = Gamma(lb-la)[a, b] if lb >= la else Gamma(la-lb)[b, a]
        ahead = lags[None, :] >= lags[:, None]
        G = gammas[np.abs(lags[None, :] - lags[:, None]),
                   np.where(ahead, nodes[:, None], nodes[None, :]),
                   np.where(ahead, nodes[None, :], nodes[:, None])]
        c = gammas[lags[None, :], np.array(target)[:, None], nodes[None, :]]
        try:
            sol = sla.solve(G, c.T, assume_a="pos")
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(G, c.T, rcond=None)[0]
        err = g0_bb - c @ sol
        err = 0.5 * (err + err.T)
    sign, logdet = np.linalg.slogdet(err)
    if sign <= 0:
        raise SingularDesign("prediction error covariance is singular")
    return PredictionRisk(target=target, predictor_spec=spec,
                          error_cov=err, risk=float(logdet))


def riccati_innovation_cov(model, nodes):
    """``innovation_cov`` of a VAR model by ``scipy.linalg.solve_discrete_are``
    on the unfolded filter Riccati equation, with the cross covariance of
    state and observation noise as its ``s`` term."""
    p, d = model.order, model.n_nodes
    F = model.companion()
    C = F[nodes]
    K = np.eye(p * d, d)
    sigma = model.noise_cov
    R = sigma[np.ix_(nodes, nodes)]
    P = sla.solve_discrete_are(F.T, C.T, K @ sigma @ K.T, R, s=K @ sigma[:, nodes])
    cov = C @ P @ C.T + R
    return 0.5 * (cov + cov.T)


# B_2k / (2k (2k - 1)): Stirling's series for log Gamma, whose next term is
# below 1e-30 from 60 on
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360),
             (1, 156), (-3617, 122400))
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _log_gamma(a):
    """log Gamma(a) of a Decimal a > 0: shifted past 60, then Stirling's series."""
    shift = Decimal(0)
    while a < 60:
        shift += a.ln()
        a += 1
    series = sum(Decimal(p) / q / a ** (2 * k + 1) for k, (p, q) in enumerate(_STIRLING))
    return (a - Decimal("0.5")) * a.ln() - a + (2 * _PI).ln() / 2 + series - shift


def chi_square_sf(x, df):
    """Upper tail Q(df/2, x/2) of the chi-square law at x > 0, in 50-digit
    decimal arithmetic: 1 - P by the power series of P below x/2 = df/2 + 1,
    Legendre's continued fraction for Q (modified Lentz) above it."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, x = Decimal(df) / 2, Decimal(x) / 2
        prefactor = (a * x.ln() - x - _log_gamma(a)).exp()
        tol = Decimal(10) ** -45
        if x < a + 1:
            term = total = 1 / a
            n = a
            while term > tol * total:
                n += 1
                term *= x / n
                total += term
            return float(1 - prefactor * total)
        b = x + 1 - a
        c, d = Decimal("Infinity"), 1 / b
        h, i, delta = d, 0, 0
        while abs(delta - 1) > tol:
            i, b = i + 1, b + 2
            d = 1 / (b - i * (i - a) * d)
            c = b - i * (i - a) / c
            delta = d * c
            h *= delta
        return float(prefactor * h)

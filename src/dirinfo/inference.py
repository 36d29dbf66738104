"""Statistical decision layer: likelihood-ratio tests for Granger causality
and instantaneous coupling, generalized LLR for parametric families and
mixed causality-graph construction.

All test statistics are per-sample scaled log likelihood ratios between a
full and a nested restricted conditional model, so under the alternative
they estimate the corresponding information rate.  Their null laws are in
``calibration``, the Stein error-exponent diagnostic in ``stein``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import (  # the public names are re-exported
    DEFAULT_SURROGATES,
    MIN_SURROGATES,
    TestResult,
    _calibration_count,
    _check_level,
    _chi_square_result,
    _surrogate_result,
    bonferroni_count,
    chi_square_threshold,
    min_surrogates,
    surrogate_count,
)
from .core import DEFAULT_STATE_BUDGET, TimeSeriesPanel, _integer, _node_groups, _node_index
from .discrete import _Symbols, window_codes
from .errors import DirinfoError, FitError, InvalidModel, ParamError, SingularDesign
from .gaussian import _LaggedGram
from .measures import ConditioningMode, _as_mode
from .stein import SteinReport, stein_exponent_check  # re-exported

# Newton iterations a logistic fit may take before it raises FitError, the
# likelihood-gain bound at which it stops and the ridge on its Hessian
GLM_MAX_ITER = 500
GLM_TOL = 1e-9
GLM_RIDGE = 1e-8


# ---------------------------------------------------------------------------
# model families
# each family builds its own statistics on the panel data its ``_prepare``
# returns: ``_causality`` and ``_coupling`` give (stat_of, dof, n_obs,
# weights) to ``_edge_test``, ``_loglik`` one target's log likelihood to
# ``generalized_llr``; weights are None (the Wilks law) but for VAR causality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteMarkovFamily:
    """Finite-alphabet conditional models of order ``order``, each fitted
    with pseudo-count 1/2 per (context, target) cell."""

    order: int = 1

    name = "discrete_markov"

    def __post_init__(self):
        _integer(self.order, ParamError, "order", 1)

    def _prepare(self, panel):
        return _Symbols.of(panel.values, panel.labels)

    def _causality(self, data, a_idx, b_idx, c_idx):
        return _discrete_causality(data, a_idx, b_idx, c_idx, self.order)

    def _coupling(self, data, a_idx, b_idx, c_idx, mode):
        return _discrete_coupling(data, a_idx, b_idx, c_idx, self.order, mode)


@dataclass(frozen=True)
class VarFamily:
    """Linear Gaussian autoregressions of order ``order``."""

    order: int = 1

    name = "var"

    def __post_init__(self):
        _integer(self.order, ParamError, "order", 1)

    def _prepare(self, panel):
        x = np.asarray(panel.values, dtype=float)
        return _LaggedGram(x - x.mean(axis=0), self.order)

    def _causality(self, data, a_idx, b_idx, c_idx):
        return _var_causality(data, a_idx, b_idx, c_idx)

    def _coupling(self, data, a_idx, b_idx, c_idx, mode):
        return _var_coupling(data, a_idx, b_idx, c_idx, mode)

    def _loglik(self, data, target, cols):
        """Gaussian log likelihood of ``target`` on lags 1..k of ``cols``."""
        return -0.5 * data.n * _logdet(data.fit(data.lags(cols), data.present([target]))[0])


@dataclass(frozen=True)
class GlmSpikingFamily:
    """Logistic point-process models on binary panels with ``memory`` lags."""

    memory: int = 1

    name = "glm_spiking"

    def __post_init__(self):
        _integer(self.memory, ParamError, "memory", 1)

    def _prepare(self, panel):
        symbols = _Symbols.of(panel.values, panel.labels)
        if max(symbols.sizes) > 2:
            raise InvalidModel("GLM spiking family needs a binary panel")
        return _LaggedGram(symbols.values.astype(float), self.memory)

    def _loglik(self, data, target, cols):
        """Maximized logistic log likelihood of ``target`` on an intercept
        and lags 1..memory of ``cols``."""
        design = np.concatenate([np.ones((data.n, 1)), data.rows(data.lags(cols))], axis=1)
        return _fit_glm(design, data.values[data.k:, target])


def _family_method(family, name, caller):
    """``family``'s method ``name``; without it the family is unsupported
    by ``caller``."""
    method = getattr(family, name, None)
    if method is None:
        raise ParamError(f"unsupported family {family!r} for {caller}")
    return method


def family_from_spec(name: str, order: int = 1):
    if name in ("discrete", "discrete_markov"):
        return DiscreteMarkovFamily(order=order)
    if name == "var":
        return VarFamily(order=order)
    if name in ("glm", "glm_spiking"):
        return GlmSpikingFamily(memory=order)
    raise ParamError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# statistic machinery
# ---------------------------------------------------------------------------

def _count_cells(cells, n_ctx, n_tgt):
    """(rows, n_ctx, n_tgt) table counting each row of ``cells`` (S, n) in
    one ``bincount``, after adding each row's offset to it in place."""
    n_rows = cells.shape[0]
    cells += np.arange(0, n_rows * n_ctx * n_tgt, n_ctx * n_tgt)[:, None]
    counts = np.bincount(cells.ravel(), minlength=n_rows * n_ctx * n_tgt)
    return counts.reshape(n_rows, n_ctx, n_tgt)


def _read_cells(read, cells, n_ctx, n_tgt):
    """``read`` of the count table of each row of ``cells`` (S, n), cell =
    context * n_tgt + target: one (S, n_ctx, n_tgt) table within the state
    budget, else one per row over the contexts it holds.  Consumes ``cells``."""
    if cells.shape[0] * n_ctx * n_tgt <= DEFAULT_STATE_BUDGET:
        return read(_count_cells(cells, n_ctx, n_tgt))
    rows = []
    for row in cells:
        ctx, tgt = np.divmod(row, n_tgt)
        uniq, inv = np.unique(ctx, return_inverse=True)
        rows.append(read(_count_cells((inv * n_tgt + tgt)[None], uniq.size, n_tgt)))
    return np.concatenate(rows)


def _moved_cells(fixed, scaled, perms):
    """Cells of each row order (S, T) of A (None: the panel's own): ``fixed``
    plus A's code pre-scaled for each window position j at order index t + j."""
    n = fixed.size
    order = np.arange(scaled.shape[1])[None] if perms is None else perms
    cells = scaled[0][order[:, :n]]
    for j in range(1, len(scaled)):
        cells += scaled[j][order[:, j:j + n]]
    cells += fixed
    return cells


def _loglik(counts):
    """Log likelihood of each row of a (rows, contexts, targets) count
    table under the conditional fit with pseudo-count 1/2 per cell:
    sum n ln(n + 1/2) - sum n_ctx ln(n_ctx + m/2) for m targets.  Each
    term is looked up by its count, which takes a log per distinct count
    instead of per cell; ``einsum`` sums the short target axis several
    times faster than ``ndarray.sum``."""
    n_rows, _, m = counts.shape
    ctx_tot = np.einsum("sct->sc", counts)
    n = np.arange(ctx_tot.max() + 1)
    return ((n * np.log(n + 0.5))[counts].reshape(n_rows, -1).sum(axis=1)
            - (n * np.log(n + 0.5 * m))[ctx_tot].sum(axis=1))


def _table_rows(data, k, past, present):
    """The T - k rows of a table whose (context, target) cells are
    ``k``-sample windows of the columns ``past`` times the symbols of the
    columns ``present``; T must exceed k, and int64 cell codes must index
    the cells."""
    T = data.values.shape[0]
    if T <= k:
        raise SingularDesign(f"T={T} too short for order {k}")
    cells = (math.prod(data.sizes[a] for a in past) ** k
             * math.prod(data.sizes[a] for a in present))
    if cells > np.iinfo(np.int64).max:
        raise ParamError(f"order {k} needs {cells} (context, target) cells, "
                         f"past the int64 range of cell codes")
    return T - k


def _discrete_causality(data, a_idx, b_idx, c_idx, k):
    """Statistic function, dof, n_obs and weights of the discrete causality test.

    The context of B's present is the pair (past window of B and C, past
    window of A), so a row order of A's columns moves only the second part.
    The restricted fit (B on the past of B and C) does not involve A, so it
    is counted once here.  The returned function takes a stack of row
    orders of A's columns (None: the observed panel) and counts the full
    model of each.
    """
    n_obs = _table_rows(data, k, a_idx + b_idx + c_idx, b_idx)
    res_codes, m_res = data.codes(sorted(b_idx + c_idx))
    a_codes, m_a = data.codes(a_idx)
    tgt_codes, m_tgt = data.codes(b_idx)
    res_ctx = window_codes(res_codes[:-1], k, m_res)
    ll_res = _read_cells(_loglik, (res_ctx * m_tgt + tgt_codes[k:])[None], m_res**k, m_tgt)
    fixed = res_ctx * m_a**k * m_tgt + tgt_codes[k:]
    # A's window code, oldest most significant, counts m_tgt per context
    scaled = a_codes * (m_a ** np.arange(k - 1, -1, -1) * m_tgt)[:, None]

    def stat_of(perms):
        cells = _moved_cells(fixed, scaled, perms)
        return (_read_cells(_loglik, cells, (m_res * m_a)**k, m_tgt) - ll_res) / n_obs

    dof = (m_a**k - 1) * (m_res**k) * (m_tgt - 1)
    return stat_of, dof, n_obs, None


def _discrete_coupling(data, a_idx, b_idx, c_idx, k, mode):
    """Statistic function, dof, n_obs and weights of the discrete coupling
    test.  A's past and present enter every term, so each row order counts
    the joint present of A and B in context (past of B and C, C's present
    under contemporaneous conditioning, past of A) and reads the fits of A
    and of B from the table's two marginal sums."""
    present = a_idx + b_idx + (c_idx if mode is ConditioningMode.CONTEMPORANEOUS else ())
    n_obs = _table_rows(data, k, a_idx + b_idx + c_idx, present)
    fixed_codes, m_fixed = data.codes(sorted(b_idx + c_idx))
    fixed_ctx = window_codes(fixed_codes[:-1], k, m_fixed)
    n_fixed = m_fixed**k
    if mode is ConditioningMode.CONTEMPORANEOUS and c_idx:
        c_codes, m_c = data.codes(sorted(c_idx))
        fixed_ctx = fixed_ctx * m_c + c_codes[k:]
        n_fixed *= m_c
    a_codes, m_a = data.codes(a_idx)
    b_codes, m_b = data.codes(b_idx)
    n_tgt = m_a * m_b
    fixed = fixed_ctx * m_a**k * n_tgt + b_codes[k:]
    # A's past window in the context, then A's present in the target
    scaled = a_codes * np.append(m_a ** np.arange(k - 1, -1, -1) * n_tgt, m_b)[:, None]

    def read(counts):
        joint = counts.reshape(counts.shape[:2] + (m_a, m_b))
        return (_loglik(counts) - _loglik(np.einsum("scab->sca", joint))
                - _loglik(np.einsum("scab->scb", joint)))

    def stat_of(perms):
        cells = _moved_cells(fixed, scaled, perms)
        return _read_cells(read, cells, n_fixed * m_a**k, n_tgt) / n_obs

    dof = n_fixed * m_a**k * (m_a - 1) * (m_b - 1)
    return stat_of, dof, n_obs, None


def _logdet(cov):
    """log det of a covariance matrix, or of each in a stack."""
    sign, val = np.linalg.slogdet(np.atleast_2d(cov))
    if np.any(sign <= 0):
        raise SingularDesign("singular residual covariance")
    return val


def _var_causality(g, a_idx, b_idx, c_idx):
    """Statistic function, dof, n_obs and weights (a ``_sandwich_weights``
    thunk) of the VAR causality test: the Gaussian LLR of B on the past of
    (A, B, C) against B on the past of (B, C).  The restricted log-det does
    not involve A and is computed once on ``g``; the returned function takes
    a stack of row orders of A's columns (None: the observed panel) and fits
    only the full model of each."""
    y = g.present(b_idx)
    full = g.lags(sorted(a_idx + b_idx + c_idx))
    logdet_res = _logdet(g.fit(g.lags(sorted(b_idx + c_idx)), y)[0])
    covs = g.covs(full, y, a_idx)

    def stat_of(perms):
        return 0.5 * (logdet_res - _logdet(covs(perms)))

    return (stat_of, g.k * len(a_idx) * len(b_idx), g.n,
            lambda: _sandwich_weights(g, a_idx, b_idx, c_idx))


def _sandwich_weights(g, a_idx, b_idx, c_idx):
    """Sandwich eigenvalue weights of the tested coefficient block (A's lags).

    Under correct specification the weights are all 1 and ``2 T stat`` is
    the classical chi-square variate; under conditionally heteroskedastic
    innovations (e.g. a quadratic hidden coupling) the asymptotic law is
    the weighted chi-square sum instead.  The tested regressors are
    projected off the kept ones (B's and C's lags), x = z P with P the
    identity on the tested lags and -gamma on the kept ones; the bread is
    that projection's Schur complement, the meat P' W_i P, where W_i is the
    full design's Gram weighted by the full fit's squared row residuals
    (``_LaggedGram.meats``, shared by every edge into B).
    """
    y = g.present(b_idx)
    tested, kept = g.lags(sorted(a_idx)), g.lags(sorted(b_idx + c_idx))
    full = g.lags(sorted(a_idx + b_idx + c_idx))
    cov_full = g.fit(full, y)[0]
    proj_cov, gamma = g.fit(kept, tested)
    proj = np.zeros((len(full), len(tested)))
    proj[[full.index(col) for col in tested], range(len(tested))] = 1.0
    proj[[full.index(col) for col in kept]] = -gamma
    bread = g.n * proj_cov
    weights = []
    for i, meat in enumerate(g.meats(full, y)):
        lam = np.linalg.eigvals(np.linalg.solve(bread, proj.T @ meat @ proj)) / cov_full[i, i]
        weights.extend(np.clip(lam.real, 1e-12, None))
    return weights


def _var_coupling(g, a_idx, b_idx, c_idx, mode):
    """Statistic function, dof, n_obs and weights of the VAR coupling test:
    the mutual information of the present of A and B given the history (and
    C's present under the contemporaneous mode), from one joint fit."""
    design = g.lags(sorted(a_idx + b_idx + c_idx))
    if mode is ConditioningMode.CONTEMPORANEOUS and c_idx:
        design += g.present(sorted(c_idx))
    y = g.present(a_idx + b_idx)
    na = len(a_idx)
    covs = g.covs(design, y, a_idx)

    def stat_of(perms):
        cov = covs(perms)
        return 0.5 * (_logdet(cov[:, :na, :na]) + _logdet(cov[:, na:, na:]) - _logdet(cov))

    return stat_of, na * len(b_idx), g.n, None


def _edge_test(family, build, data, args, alpha, calibration, surrogates,
               seed) -> TestResult:
    """One causality or coupling test on the panel data ``family._prepare``
    returned: ``build(data, *args)`` is the family's statistic builder, and
    its weights thunk (None: the Wilks law) runs only under chi-square
    calibration."""
    stat_of, dof, n_obs, weights = build(data, *args)
    stat = stat_of(None)[0]
    if calibration == "surrogate":
        return _surrogate_result(stat_of, data.values.shape[0], 5 * family.order,
                                 surrogates, alpha, seed, n_obs, stat)
    return _chi_square_result(stat, dof, n_obs, alpha,
                              weights=None if weights is None else weights())


def _llr(panel, family, builder, caller, groups, alpha, calibration, surrogates, seed,
         extra=()) -> TestResult:
    """``caller``'s test of the groups A, B, C (then ``extra``) by the family's
    builder named ``builder``, once the groups, the family, ``alpha``, the
    calibration and its surrogate count, and the panel pass their checks."""
    groups = _node_groups(panel.labels, *groups)
    build = _family_method(family, builder, caller)
    _check_level(alpha)
    surrogates = _calibration_count(calibration, surrogates, alpha)
    data = family._prepare(panel)
    return _edge_test(family, build, data, groups + extra, alpha, calibration, surrogates, seed)


# ---------------------------------------------------------------------------
# public tests
# ---------------------------------------------------------------------------

def llr_causality(panel: TimeSeriesPanel, a_labels, b_labels, c_labels=(),
                  family=DiscreteMarkovFamily(), alpha: float = 0.05,
                  calibration: str = "chi_square",
                  surrogates: int | None = None, seed=None) -> TestResult:
    """Granger-causality test of A -> B given the side set C.

    Per-sample LLR between the conditional model of x_B(t) on the past of
    (A, B, C) and the nested model on the past of (B, C) only; under the
    alternative it converges to the causally conditioned transfer entropy
    rate of the family.

    Chi-square calibration uses the classical Wilks law for the discrete
    family (the model class contains the truth) and a sandwich-weighted
    chi-square for the linear family, which stays level-correct when the
    innovations are conditionally heteroskedastic (a nonlinear coupling
    seen through linear glasses) and reduces to Wilks otherwise.
    Surrogate calibration draws ``surrogates`` resamplings, by default
    ``max(DEFAULT_SURROGATES, min_surrogates(alpha))``.
    """
    return _llr(panel, family, "_causality", "llr_causality", (a_labels, b_labels, c_labels),
                alpha, calibration, surrogates, seed)


def llr_coupling(panel: TimeSeriesPanel, a_labels, b_labels, c_labels=(),
                 family=DiscreteMarkovFamily(),
                 mode=ConditioningMode.CONTEMPORANEOUS, alpha: float = 0.05,
                 calibration: str = "chi_square",
                 surrogates: int | None = None, seed=None) -> TestResult:
    """Instantaneous-coupling test between A and B given the side set C.

    Per-sample LLR between the joint contemporaneous conditional
    p(x_A(t), x_B(t) | history) and the product of its marginals; under the
    alternative it converges to the information exchange rate.  ``mode``
    decides whether C's present enters the conditioning (contemporaneous,
    the conditional-independence-graph convention) or only C's past.
    Surrogates default as in ``llr_causality``.
    """
    return _llr(panel, family, "_coupling", "llr_coupling", (a_labels, b_labels, c_labels),
                alpha, calibration, surrogates, seed, (_as_mode(mode),))


# ---------------------------------------------------------------------------
# generalized LLR over parameter restrictions
# ---------------------------------------------------------------------------

def _glm_loglik(theta, design, y):
    z = design @ theta
    return float(y @ z - np.logaddexp(0.0, z).sum())


def _fit_glm(design, y):
    """Logistic maximum likelihood by damped Newton iterations.

    A tiny ridge keeps the Hessian invertible when classes separate; the
    returned value is the maximized log likelihood.
    """
    theta = np.zeros(design.shape[1])
    ll = _glm_loglik(theta, design, y)
    for _ in range(GLM_MAX_ITER):
        z = design @ theta
        p = 1.0 / (1.0 + np.exp(-z))
        grad = design.T @ (y - p)
        w = p * (1.0 - p)
        hess = design.T @ (design * w[:, None]) + GLM_RIDGE * np.eye(design.shape[1])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise FitError("singular Hessian in logistic fit") from None
        # Newton decrement bounds the remaining likelihood gain
        if float(grad @ step) < 2.0 * GLM_TOL:
            return ll
        scale = 1.0
        for _ in range(40):
            cand = theta + scale * step
            cand_ll = _glm_loglik(cand, design, y)
            if cand_ll >= ll - 1e-12:
                theta, ll = cand, cand_ll
                break
            scale *= 0.5
        else:
            return ll
    raise FitError(f"logistic fit did not converge in {GLM_MAX_ITER} iterations")


def generalized_llr(panel: TimeSeriesPanel, family, theta_restriction,
                    alpha: float = 0.05) -> TestResult:
    """Generalized log likelihood ratio test between the unrestricted family
    and the sub-family where the masked parameters are pinned to zero.

    ``theta_restriction`` is an iterable of (target_label, source_label)
    pairs; all lag coefficients of those links are removed under the null,
    and a pair named twice counts once.  Calibration is chi-square with one
    degree of freedom per masked scalar.
    """
    pairs = sorted({(str(t), str(s)) for t, s in theta_restriction})
    if not pairs:
        raise ParamError("theta_restriction must name at least one link")
    index = {label: _node_index(panel.labels, label) for link in pairs for label in link}
    _check_level(alpha)
    loglik = _family_method(family, "_loglik", "generalized_llr")
    data = family._prepare(panel)
    all_cols = list(range(panel.n_nodes))
    ll_full = 0.0
    ll_res = 0.0
    for target in sorted({t for t, _ in pairs}):
        masked = {index[s] for t, s in pairs if t == target}
        ll_full += loglik(data, index[target], all_cols)
        ll_res += loglik(data, index[target], [c for c in all_cols if c not in masked])
    stat = (ll_full - ll_res) / data.n
    return _chi_square_result(stat, data.k * len(pairs), data.n, alpha)


# ---------------------------------------------------------------------------
# causality graphs
# ---------------------------------------------------------------------------

def _edge_json(res: TestResult) -> dict:
    """Graph JSON of one edge test, enough to recompute its decision: the
    test's own JSON with ``statistic`` and ``p_value`` named ``stat`` and ``p``."""
    doc = res.to_json()
    return {"stat": doc.pop("statistic"), "p": doc.pop("p_value"), **doc}


@dataclass(frozen=True)
class CausalityGraph:
    """Mixed graph over the panel's nodes: directed edges from the
    causality tests, undirected edges from the coupling tests.  An edge is
    present exactly when its test rejected H0."""

    nodes: tuple[str, ...]
    directed: dict  # (a, b) -> TestResult
    undirected: dict  # frozenset({a, b}) -> TestResult
    errors: dict  # edge key -> message
    mode: ConditioningMode
    alpha: float
    config: dict = field(default_factory=dict)

    def directed_edges(self) -> set[tuple[str, str]]:
        return {pair for pair, res in self.directed.items()
                if res.decision == "reject_H0"}

    def undirected_edges(self) -> set[frozenset]:
        return {pair for pair, res in self.undirected.items()
                if res.decision == "reject_H0"}

    def to_json(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "directed": [
                {"from": a, "to": b, **_edge_json(r)}
                for (a, b), r in sorted(self.directed.items())
            ],
            "undirected": [
                {"pair": sorted(pair), **_edge_json(r)}
                for pair, r in sorted(self.undirected.items(), key=lambda kv: sorted(kv[0]))
            ],
            "errors": {" -> ".join(k) if isinstance(k, tuple) else " -- ".join(sorted(k)): v
                       for k, v in self.errors.items()},
            "mode": self.mode.value,
            "alpha": self.alpha,
            "config": dict(self.config),
        }

    def to_dot(self) -> str:
        lines = ["digraph causality {"]
        for node in self.nodes:
            lines.append(f'  "{node}";')
        for a, b in sorted(self.directed_edges()):
            lines.append(f'  "{a}" -> "{b}";')
        for pair in sorted(self.undirected_edges(), key=sorted):
            x, y = sorted(pair)
            lines.append(f'  "{x}" -- "{y}" [style=dashed];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def infer_graph(panel: TimeSeriesPanel, family, alpha: float = 0.05,
                mode=ConditioningMode.CONTEMPORANEOUS, correction: str = "bonferroni",
                calibration: str = "chi_square", surrogates: int | None = None,
                seed=None, threads: int = 1) -> CausalityGraph:
    """Pairwise causality-graph inference relative to the full node set.

    Each ordered pair (a, b) is tested for a -> b with all remaining nodes
    as side information; each unordered pair for instantaneous coupling
    under ``mode``.  ``correction='bonferroni'`` divides the level by the
    total test count; per-edge RNG streams derive from ``seed`` so serial
    and threaded runs are identical.  The per-panel data (the VAR family's
    lagged Gram matrix) is built once and shared by every edge, so an edge
    equals the corresponding single ``llr_causality``/``llr_coupling``
    call exactly.  Surrogate calibration draws ``surrogates`` resamplings
    per test, by default ``max(DEFAULT_SURROGATES, min_surrogates(level))``
    at the corrected level; a count too few for that level raises
    ``CalibrationError`` before any edge runs.
    """
    mode = _as_mode(mode)
    _check_level(alpha)
    labels = panel.labels
    if correction == "bonferroni":
        level = alpha / bonferroni_count(len(labels))
    elif correction == "none":
        level = alpha
    else:
        raise ParamError(f"unknown correction {correction!r}")
    surrogates = _calibration_count(calibration, surrogates, level)
    causality = _family_method(family, "_causality", "infer_graph")
    coupling = _family_method(family, "_coupling", "infer_graph")
    data = family._prepare(panel)

    nodes = range(len(labels))
    tasks = [("directed", (a, b)) for a in nodes for b in nodes if a != b]
    tasks += [("undirected", (a, b)) for a in nodes for b in nodes[a + 1:]]
    seeds = np.random.SeedSequence(seed).spawn(len(tasks))

    def run(task, child_seed):
        kind, (a, b) = task
        groups = (a,), (b,), tuple(x for x in nodes if x not in (a, b))
        build, args = ((causality, groups) if kind == "directed"
                       else (coupling, groups + (mode,)))
        try:
            return _edge_test(family, build, data, args, level, calibration, surrogates,
                              child_seed)
        except DirinfoError as exc:
            return exc

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported only where it runs
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run, tasks, seeds))
    else:
        outcomes = list(map(run, tasks, seeds))

    directed, undirected, errors = {}, {}, {}
    for (kind, (a, b)), out in zip(tasks, outcomes):
        pair = labels[a], labels[b]
        key = pair if kind == "directed" else frozenset(pair)
        if isinstance(out, DirinfoError):
            errors[key] = f"{type(out).__name__}: {out}"
        elif kind == "directed":
            directed[key] = out
        else:
            undirected[key] = out

    config = {
        "family": family.name,
        "order": family.order,
        "alpha": alpha, "correction": correction, "calibration": calibration,
        "mode": mode.value, "surrogates": surrogates,
        "seed": seed,
    }
    return CausalityGraph(nodes=labels, directed=directed, undirected=undirected,
                          errors=errors, mode=mode, alpha=alpha, config=config)

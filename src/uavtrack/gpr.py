"""Gaussian-process regression over beam-magnitude measurements.

A squared-exponential kernel with per-axis length scales models the
received magnitude as a function of the two direction cosines. Hyper-
parameters are fitted by gradient ascent on the log marginal likelihood
in log-parameter space with backtracking, and the fitted model supports
cheap point appends through a rank-one extension of its Cholesky factor.
All gradients are analytic; finite differences appear only in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri, dtrtrs

__all__ = [
    "Hyperparams",
    "FitResult",
    "GprModel",
    "kernel",
    "log_marginal_likelihood",
    "likelihood_gradient",
    "default_init",
    "fit_hyperparams",
    "make_model",
    "posterior",
    "posterior_mean_gradient",
]

JITTER_BASE = 1e-10
JITTER_MAX = 1e-6
LOG2PI = math.log(2.0 * math.pi)
STEP0 = 0.5  # initial log-space step scale per fit iteration
MAX_HALVINGS = 20  # backtracking halvings per fit iteration
GRAD_TOL = 1e-4  # the fit stops on a smaller log-space gradient norm
BOUND_LO, BOUND_HI = 1e-8, 1e8  # clamp on every fitted parameter, natural units


@dataclass(frozen=True)
class Hyperparams:
    """Signal std sigma_s, per-axis length scales, noise std sigma_n."""

    sigma_s: float
    lengthscales: tuple[float, float]
    sigma_n: float

    def __post_init__(self):
        if self.sigma_s <= 0.0 or min(self.lengthscales) <= 0.0:
            raise ValueError("sigma_s and length scales must be positive")
        if self.sigma_n < 0.0:
            raise ValueError("sigma_n must be nonnegative")

    def as_vector(self, with_noise: bool = True) -> np.ndarray:
        v = [self.sigma_s, *self.lengthscales]
        if with_noise:
            v.append(self.sigma_n)
        return np.array(v)


@dataclass(frozen=True)
class FitResult:
    hyperparams: Hyperparams
    log_marginal: float
    iterations: int
    warning: str | None = None
    trace: tuple[float, ...] = field(default=())


def kernel(xa: np.ndarray, xb: np.ndarray, hp: Hyperparams) -> np.ndarray:
    """Squared-exponential covariance matrix between two point sets.

    k(x, x') = sigma_s^2 * exp(-0.5 * sum_d ((x_d - x'_d) / ell_d)^2)
    """
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    d = xa[:, None, :] - xb[None, :, :]
    d /= hp.lengthscales
    d *= d
    q = d.sum(axis=-1)
    q *= -0.5
    np.exp(q, out=q)
    q *= hp.sigma_s**2
    return q


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b for a lower Cholesky factor L."""
    x, info = dpotrs(chol, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b for a lower triangular L."""
    x, info = dtrtrs(chol, b, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular triangular factor at diagonal {info - 1}")
    return x


def _check_finite(x: np.ndarray, y: np.ndarray, first_row: int = 0) -> None:
    """Reject NaN or infinite training data, naming the first bad row;
    dpotrf factorizes a NaN Gram matrix without complaint."""
    if math.isfinite(x.sum() + y.sum()):  # else a non-finite entry, or overflow
        return
    bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(y))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"non-finite training point at row {first_row + i}: x={x[i].tolist()}, y={y[i]!r}"
        )


class _Objective:
    """Marginal likelihood and gradient over one training set.

    Caches the per-axis squared differences so repeated evaluations during
    hyperparameter search cost one matrix exponential and one Cholesky.
    Parameters travel as plain (sigma_s, (ell_u, ell_v), sigma_n) floats;
    the search builds a Hyperparams only for the iterate it returns.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        self.y = np.asarray(y, dtype=float)
        _check_finite(self.x, self.y)
        self.n = len(self.y)
        self.d2 = [
            (self.x[:, None, d] - self.x[None, :, d]) ** 2 for d in range(self.x.shape[1])
        ]
        self.neg_half_y = -0.5 * self.y
        self.lml_const = 0.5 * self.n * LOG2PI
        self.scratch = np.empty((self.n, self.n))

    def gram(self, sigma_s: float, lengthscales) -> np.ndarray:
        k = np.divide(self.d2[0], lengthscales[0] ** 2)
        for d2, ell in zip(self.d2[1:], lengthscales[1:]):
            k += np.divide(d2, ell**2, out=self.scratch)
        k *= -0.5
        np.exp(k, out=k)
        k *= sigma_s**2
        return k

    def chol(self, sigma_s: float, lengthscales, sigma_n: float):
        """Lower Cholesky of K + (sigma_n^2 + jitter) I, escalating jitter.

        Starts at JITTER_BASE * sigma_s^2 and multiplies by 10 up to
        JITTER_MAX * sigma_s^2 before giving up. Returns (K, L, jitter).
        """
        k = self.gram(sigma_s, lengthscales)
        jitter = JITTER_BASE * sigma_s**2
        limit = JITTER_MAX * sigma_s**2
        noise = sigma_n**2
        while True:
            kn = k.copy()
            kn.ravel()[:: self.n + 1] += noise + jitter
            # kn is symmetric, so its transpose is the same matrix in the
            # Fortran order dpotrf factorizes in place
            chol, info = dpotrf(kn.T, lower=1, overwrite_a=1)
            if info == 0:
                return k, chol, jitter
            if jitter >= limit:
                raise np.linalg.LinAlgError(
                    f"Gram matrix not positive definite up to jitter {jitter:.1e}"
                )
            jitter *= 10.0

    def lml(self, chol: np.ndarray, alpha: np.ndarray) -> float:
        return float(
            self.neg_half_y @ alpha - np.log(chol.diagonal()).sum() - self.lml_const
        )

    def evaluate(self, sigma_s: float, lengthscales, sigma_n: float):
        """(K, L, alpha, log marginal likelihood) at one parameter point."""
        k, chol, _ = self.chol(sigma_s, lengthscales, sigma_n)
        alpha = _cho_solve(chol, self.y)
        return k, chol, alpha, self.lml(chol, alpha)

    def gradient(
        self,
        sigma_s: float,
        lengthscales,
        sigma_n: float,
        k: np.ndarray,
        chol: np.ndarray,
        alpha: np.ndarray,
        fit_noise: bool,
    ) -> np.ndarray:
        # 0.5 a^T dK a - 0.5 tr(Kn^-1 dK) = 0.5 sum(A * dK) with
        # A = alpha alpha^T - Kn^-1, valid because every dK is symmetric.
        # Kn^-1 = W^T W with W = L^-1 takes about 0.6 of the time of
        # solving against the identity at the sizes the tracker fits.
        w, info = dtrtri(chol, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dtrtri failed with info {info}")
        a = np.multiply.outer(alpha, alpha)
        a -= w.T @ w
        ak = a * k
        grads = [float(ak.sum()) / sigma_s]
        for d2, ell in zip(self.d2, lengthscales):
            grads.append(0.5 * float(np.multiply(ak, d2, out=self.scratch).sum()) / ell**3)
        if fit_noise:
            grads.append(sigma_n * float(a.trace()))
        return np.array(grads)


def _unpack(hp: Hyperparams):
    return hp.sigma_s, hp.lengthscales, hp.sigma_n


def log_marginal_likelihood(x: np.ndarray, y: np.ndarray, hp: Hyperparams) -> float:
    """-0.5 y^T Kn^-1 y - 0.5 log|Kn| - n/2 log(2 pi), Kn = K + sigma_n^2 I."""
    return _Objective(x, y).evaluate(*_unpack(hp))[3]


def likelihood_gradient(
    x: np.ndarray, y: np.ndarray, hp: Hyperparams, fit_noise: bool = True
) -> np.ndarray:
    """Gradient of the log marginal likelihood in natural parameters.

    For each parameter theta, 0.5 * alpha^T dK alpha - 0.5 tr(Kn^-1 dK)
    with alpha = Kn^-1 y. Order: sigma_s, ell_u, ell_v, then sigma_n when
    fit_noise is set.
    """
    obj = _Objective(x, y)
    k, chol, alpha, _ = obj.evaluate(*_unpack(hp))
    return obj.gradient(*_unpack(hp), k, chol, alpha, fit_noise)


def default_init(x: np.ndarray, y: np.ndarray) -> Hyperparams:
    """Data-driven starting point: output std, half the span per axis."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    sd = float(np.std(y))
    sigma_s = sd if sd > 0.0 else 1e-3
    spans = np.ptp(x, axis=0) / 2.0
    ells = tuple(float(s) if s > 0.0 else 1e-2 for s in spans)
    return Hyperparams(sigma_s=sigma_s, lengthscales=ells, sigma_n=0.1 * sigma_s + 1e-12)


def fit_hyperparams(
    x: np.ndarray,
    y: np.ndarray,
    init: Hyperparams | None = None,
    max_iter: int = 60,
    fit_noise: bool = True,
) -> FitResult:
    """Maximize the log marginal likelihood by log-space gradient ascent.

    Each iteration takes the analytic gradient, rescales it by the
    parameter values (chain rule to log space), and backtracks the step
    until the likelihood improves; the accepted-likelihood trace is
    therefore monotone. Stops on a small log-space gradient, on an
    exhausted backtracking line search, or after max_iter iterations.
    sigma_n stays at its initial value when fit_noise is False.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    hp = init if init is not None else default_init(x, y)
    lo, hi = math.log(BOUND_LO), math.log(BOUND_HI)

    if fit_noise and hp.sigma_n == 0.0:
        hp = replace(hp, sigma_n=BOUND_LO)
    frozen_sigma_n = float(hp.sigma_n)
    obj = _Objective(x, y)

    def evaluate(t: list[float]):
        # exp(t) doubles as the chain-rule factor to log space
        vals = np.exp(t)
        v = vals.tolist()
        params = (v[0], (v[1], v[2]), v[3] if fit_noise else frozen_sigma_n)
        return (vals, params) + obj.evaluate(*params)

    # theta lives in a list: the line search does a handful of scalar
    # operations per probe, which cost less on floats than on small arrays
    theta = np.clip(np.log(hp.as_vector(fit_noise)), lo, hi).tolist()
    vals, params, k, chol, alpha, lml = evaluate(theta)
    trace = [lml]
    warning = None
    it = 0
    # Step length carries over between iterations (doubled, capped at
    # STEP0) so the line search rarely needs more than one probe.
    step = STEP0
    for it in range(1, max_iter + 1):
        g_log = obj.gradient(*params, k, chol, alpha, fit_noise) * vals
        if math.sqrt(g_log.dot(g_log)) < GRAD_TOL:
            it -= 1
            break
        g_log = g_log.tolist()
        scale = max(1.0, *map(abs, g_log))
        step = min(2.0 * step, STEP0)
        accepted = False
        for _ in range(MAX_HALVINGS):
            cand_theta = [min(max(t + step * g / scale, lo), hi) for t, g in zip(theta, g_log)]
            if all(abs(c - t) <= 1e-8 + 1e-5 * abs(t) for c, t in zip(cand_theta, theta)):
                break
            try:
                cand = evaluate(cand_theta)
            except np.linalg.LinAlgError:
                step *= 0.5
                continue
            if cand[-1] > lml:
                theta = cand_theta
                vals, params, k, chol, alpha, lml = cand
                trace.append(lml)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            warning = "no ascent step found; returning best iterate"
            break
    sigma_s, lengthscales, sigma_n = params
    return FitResult(
        hyperparams=Hyperparams(sigma_s=sigma_s, lengthscales=lengthscales, sigma_n=sigma_n),
        log_marginal=lml,
        iterations=it,
        warning=warning,
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class GprModel:
    """Fitted model with cached Cholesky factor and weights alpha.

    Treated as a value: with_point returns a new model and never mutates
    the original. jitter records the diagonal inflation actually used so
    that incremental appends stay consistent with a fresh factorization.
    """

    x: np.ndarray
    y: np.ndarray
    hp: Hyperparams
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float

    @property
    def n(self) -> int:
        return len(self.y)

    def with_point(self, x_new: np.ndarray, y_new: float) -> "GprModel":
        """Append one training point by extending the Cholesky factor.

        Solves L t = k(X, x_new) and appends the row [t^T, sqrt(d)] with
        d the new diagonal minus t^T t; falls back to a fresh
        factorization if roundoff drives d nonpositive.
        """
        x_new = np.asarray(x_new, dtype=float).reshape(1, 2)
        x_all = np.concatenate((self.x, x_new))
        y_all = np.append(self.y, y_new)
        _check_finite(x_new, y_all[-1:], first_row=self.n)
        k_cross = kernel(self.x, x_new, self.hp)[:, 0]
        t = _solve_lower(self.chol, k_cross)
        d2 = self.hp.sigma_s**2 + self.hp.sigma_n**2 + self.jitter - t @ t
        if d2 <= 0.0:
            return make_model(x_all, y_all, self.hp)
        n = self.n
        chol = np.zeros((n + 1, n + 1), order="F")  # dpotrf's layout: LAPACK reads it uncopied
        chol[:n, :n] = self.chol
        chol[n, :n] = t
        chol[n, n] = math.sqrt(d2)
        alpha = _cho_solve(chol, y_all)
        return GprModel(x=x_all, y=y_all, hp=self.hp, chol=chol, alpha=alpha, jitter=self.jitter)


def make_model(x: np.ndarray, y: np.ndarray, hp: Hyperparams) -> GprModel:
    """Factorize the training set once; posterior queries reuse the cache."""
    obj = _Objective(x, y)
    _, chol, jitter = obj.chol(*_unpack(hp))
    alpha = _cho_solve(chol, obj.y)
    return GprModel(x=obj.x, y=obj.y, hp=hp, chol=chol, alpha=alpha, jitter=jitter)


def posterior(model: GprModel, xstar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and latent variance at query points.

    mean = k*^T alpha; var = sigma_s^2 - sum of squares of L^-1 k*,
    floored at zero against roundoff.
    """
    xstar = np.atleast_2d(np.asarray(xstar, dtype=float))
    k_cross = kernel(model.x, xstar, model.hp)
    mean = k_cross.T @ model.alpha
    t = _solve_lower(model.chol, k_cross)
    var = model.hp.sigma_s**2 - np.sum(t * t, axis=0)
    return mean, np.maximum(var, 0.0)


def posterior_mean_gradient(model: GprModel, xstar: np.ndarray) -> np.ndarray:
    """Analytic gradient of the predictive mean at one query point.

    d mean / d x*_d = sum_i -(x*_d - x_i_d) / ell_d^2 * k(x*, x_i) * alpha_i
    """
    xstar = np.asarray(xstar, dtype=float).reshape(1, 2)
    k_cross = kernel(model.x, xstar, model.hp)[:, 0]
    diffs = (xstar[0] - model.x) / np.asarray(model.hp.lengthscales) ** 2
    return -(diffs * k_cross[:, None]).T @ model.alpha

"""Gaussian-process regression over beam-magnitude measurements.

A squared-exponential kernel with per-axis length scales models the
received magnitude as a function of the two direction cosines. Hyper-
parameters maximize the log marginal likelihood in log-parameter space by
safeguarded Newton steps: the Hessian where it is negative definite,
Fisher scoring (Mardia & Marshall, Biometrika 1984; Rasmussen & Williams
2006, sec. 5.4) elsewhere, each step capped and backtracked. The fit stops
when a step's predicted gain falls below FIT_TOL nats. A fit starts where
it is told: the tracker's initial fit at default_init, which takes the
noise std from the link budget and puts sigma_s and the length scales at
calibrated ratios to the output std and the search box, where such fits
end; its refits at the model they refine. The fitted model
supports cheap point appends through a rank-one extension of its Cholesky
factor. All derivatives are analytic; finite differences appear only in
tests.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blas import dpotrf, dpotrs, dtrtri, dtrtrs

__all__ = [
    "Hyperparams",
    "FitResult",
    "GprModel",
    "kernel",
    "default_init",
    "fit_hyperparams",
    "make_model",
    "posterior",
    "posterior_mean_gradient",
]


JITTER_BASE = 1e-10
JITTER_MAX = 1e-6
LOG2PI = math.log(2.0 * math.pi)
MAX_HALVINGS = 20  # backtracking halvings per fit iteration
FIT_TOL = 1e-2  # the fit stops on a smaller predicted gain, in nats
RIDGE = 1e-6  # curvature floor of a fit step, relative to the largest Fisher entry
BOUND_LO, BOUND_HI = 1e-8, 1e8  # clamp on every fitted parameter, natural units
# default_init's ratios of sigma_s to the output std and of each length scale
# to the search box's half width on its axis: the medians, 1.19 and 0.78, at
# which the initial fits of criterion7.conf (40 trials, run.seed 777001) and
# estimation_sweep.conf (100 trials, run.seed 777002) ended, seeds that no
# test or benchmark runs
INIT_SIGNAL = 1.2
INIT_LENGTH = 0.8


@dataclass(frozen=True)
class Hyperparams:
    """Signal std sigma_s, per-axis length scales, noise std sigma_n; inside
    this module they travel as the list v = as_list() = [sigma_s, ell_u, ell_v, sigma_n]."""

    sigma_s: float
    lengthscales: tuple[float, float]
    sigma_n: float

    def __post_init__(self):
        names = ("sigma_s", "lengthscales[0]", "lengthscales[1]", "sigma_n")
        for name, value in zip(names, self.as_list()):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.sigma_s <= 0.0 or min(self.lengthscales) <= 0.0:
            raise ValueError("sigma_s and length scales must be positive")
        if self.sigma_n < 0.0:
            raise ValueError("sigma_n must be nonnegative")

    def as_list(self) -> list[float]:
        return [self.sigma_s, *self.lengthscales, self.sigma_n]

    @cached_property
    def lengthscales_sq(self) -> np.ndarray:
        """The squared length scales, built once per instance."""
        sq = np.array([ell**2 for ell in self.lengthscales])
        sq.flags.writeable = False
        return sq


@dataclass(frozen=True)
class FitResult:
    """The accepted iterate as a factorized model, bit for bit
    make_model(x, y, hyperparams) unless the fit took no step from a model."""

    model: GprModel
    log_marginal: float
    iterations: int
    warning: str | None = None
    trace: tuple[float, ...] = field(default=())

    @property
    def hyperparams(self) -> Hyperparams:
        return self.model.hp


def _se(sq, v: list[float], out: np.ndarray | None = None) -> np.ndarray:
    """sigma_s^2 * exp(-0.5 * sum_d sq[d] / ell_d^2), v = [sigma_s, ell_u, ell_v, sigma_n].

    sq holds the squared differences along u and v, two arrays of one
    shape; out, if given, is scratch of that shape for the v term.
    """
    k = np.divide(sq[0], v[1] ** 2)
    k += np.divide(sq[1], v[2] ** 2, out=out)
    k *= -0.5
    np.exp(k, out=k)
    k *= v[0] ** 2
    return k


def kernel(xa: np.ndarray, xb: np.ndarray, hp: Hyperparams) -> np.ndarray:
    """Squared-exponential covariance between the (n, 2) float array xa and xb.

    k(x, x') = sigma_s^2 * exp(-0.5 * sum_d (x_d - x'_d)^2 / ell_d^2)

    An (m, 2) xb gives the (n, m) matrix, and kernel(x, x, hp) is the fit's
    Gram matrix bit for bit: both go through _se. One point, shape (2,),
    gives the (n,) column, bit for bit kernel(xa, xb[None], hp)[:, 0].
    """
    d = xa.T - xb[:, None] if xb.ndim == 1 else xa.T[:, :, None] - xb.T[:, None, :]
    d *= d
    return _se(d, hp.as_list(), out=d[1])


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

    Coerces and checks the training set, and caches its per-axis squared
    differences so repeated evaluations during hyperparameter search cost
    one matrix exponential and one Cholesky. Every method takes the plain
    list v = [sigma_s, ell_u, ell_v, sigma_n]; the search builds a
    Hyperparams only for the iterate it returns.
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

    def gram(self, v: list[float]) -> np.ndarray:
        return _se(self.d2, v, out=self.scratch)

    def chol(self, v: list[float]):
        """Lower Cholesky of K + (sigma_n^2 + jitter) I, escalating jitter.

        Starts at JITTER_BASE * sigma_s^2 and multiplies by 10 up to
        JITTER_MAX * sigma_s^2 before giving up. Returns (K, L, jitter).
        """
        k = self.gram(v)
        jitter = JITTER_BASE * v[0] ** 2
        limit = JITTER_MAX * v[0] ** 2
        noise = v[3] ** 2
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

    def log_marginal(self, chol: np.ndarray, alpha: np.ndarray) -> float:
        lml = self.neg_half_y @ alpha - np.log(chol.diagonal()).sum() - self.lml_const
        return float(lml)

    def evaluate(self, v: list[float]):
        """(K, L, jitter, alpha, log marginal likelihood) at one parameter point."""
        k, chol, jitter = self.chol(v)
        alpha = _cho_solve(chol, self.y)
        return k, chol, jitter, alpha, self.log_marginal(chol, alpha)

    def derivatives(
        self,
        v: list[float],
        k: np.ndarray,
        chol: np.ndarray,
        jitter: float,
        alpha: np.ndarray,
    ):
        """Gradient g, Fisher information F and Hessian H in log parameters.

        Coordinates: log sigma_s, log ell_u, log ell_v, log sigma_n. With
        dK_i the derivative of Kn along coordinate i, A = alpha alpha^T -
        Kn^-1 and M_i = Kn^-1 dK_i:

            g_i  = 0.5 sum(A * dK_i)        (every dK_i is symmetric)
            F_ij = 0.5 sum(M_i * M_j^T) = 0.5 tr(Kn^-1 dK_i Kn^-1 dK_j)
            H_ij = F_ij - (dK_i alpha)^T Kn^-1 (dK_j alpha) + 0.5 sum(A * d2K_ij)

        dK_s = 2 K, dK_l = K * Q_l with Q_l = d2_l / ell_l^2, and
        dK_n = 2 sigma_n^2 I. So M_s = 2 (I - c Kn^-1), c = sigma_n^2 +
        jitter, and M_n = 2 sigma_n^2 Kn^-1 need no product: the O(n^3)
        work is Kn^-1 and M_u, M_v. The second derivatives d2K_ij are K
        times products of Q_u and Q_v, so each entry of the last term is
        one reduction of A * K.
        """
        # Kn^-1 = W^T W with W = L^-1 takes about 0.6 of the time of
        # solving against the identity at the sizes the tracker fits.
        w, info = dtrtri(chol, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dtrtri failed with info {info}")
        kinv = w.T @ w
        del w
        ak = np.multiply.outer(alpha, alpha)
        ak -= kinv
        tr_a = float(ak.trace())
        ak *= k
        # K * Q_l = s_l * K * d2_l; the scale s_l = ell_l^-2 rides on the scalars
        s_u, s_v = v[1] ** -2, v[2] ** -2
        d2_u, d2_v = self.d2
        g_s = float(ak.sum())
        akd = np.multiply(ak, d2_u, out=self.scratch)
        g_u = 0.5 * s_u * float(akd.sum())
        d_uu = 0.5 * s_u * s_u * float(np.vdot(akd, d2_u)) - 2.0 * g_u
        d_uv = 0.5 * s_u * s_v * float(np.vdot(akd, d2_v))
        akd = np.multiply(ak, d2_v, out=self.scratch)
        g_v = 0.5 * s_v * float(akd.sum())
        d_vv = 0.5 * s_v * s_v * float(np.vdot(akd, d2_v)) - 2.0 * g_v
        # freed before M_u and M_v exist, to hold peak memory down where n
        # reaches 441 (8 phase bits)
        del ak, akd
        s2 = v[3] ** 2
        c = s2 + jitter
        m_u = kinv @ np.multiply(k, d2_u, out=self.scratch)
        dka = [2.0 * (self.y - c * alpha), s_u * (self.scratch @ alpha)]  # dK_i alpha
        m_v = kinv @ np.multiply(k, d2_v, out=self.scratch)
        dka.append(s_v * (self.scratch @ alpha))
        b = np.multiply(kinv, -c, out=self.scratch)
        b.ravel()[:: self.n + 1] += 1.0  # M_s / 2
        f_su = s_u * float(np.vdot(b, m_u))
        f_sv = s_v * float(np.vdot(b, m_v))
        # sum(M * N^T) by einsum, which needs no transposed copy
        f_uu = 0.5 * s_u * s_u * float(np.einsum("ij,ji->", m_u, m_u))
        f_uv = 0.5 * s_u * s_v * float(np.einsum("ij,ji->", m_u, m_v))
        f_vv = 0.5 * s_v * s_v * float(np.einsum("ij,ji->", m_v, m_v))
        dka.append((2.0 * s2) * alpha)
        g_n = s2 * tr_a
        f_sn = 2.0 * s2 * float(np.vdot(b, kinv))
        f_un = s2 * s_u * float(np.vdot(m_u, kinv))
        f_vn = s2 * s_v * float(np.vdot(m_v, kinv))
        g = [g_s, g_u, g_v, g_n]
        fisher = [
            [2.0 * float(np.vdot(b, b)), f_su, f_sv, f_sn],
            [f_su, f_uu, f_uv, f_un],
            [f_sv, f_uv, f_vv, f_vn],
            [f_sn, f_un, f_vn, 2.0 * s2 * s2 * float(np.vdot(kinv, kinv))],
        ]
        second = [  # the 0.5 sum(A * d2K_ij) term
            [2.0 * g_s, 2.0 * g_u, 2.0 * g_v, 0.0],
            [2.0 * g_u, d_uu, d_uv, 0.0],
            [2.0 * g_v, d_uv, d_vv, 0.0],
            [0.0, 0.0, 0.0, 2.0 * g_n],
        ]
        u = _solve_lower(chol, np.array(dka).T)  # L^-1 dK_i alpha
        fisher = np.array(fisher)
        hess = fisher + np.array(second)
        hess -= u.T @ u
        return np.array(g), fisher, hess


def default_init(y: np.ndarray, sigma_n: float, half_widths: Sequence[float]) -> Hyperparams:
    """Where the initial fit starts: near where such fits end.

    sigma_n is the noise std of one measurement, which the caller knows
    from its link budget (Rasmussen & Williams 2006, sec. 5.4.1: start
    from what the data and the noise level already say). sigma_s is
    INIT_SIGNAL times the output std. Each length scale is INIT_LENGTH
    times half_widths on its axis, the half width of the box the inputs
    sample: the tracker's search box, seed -/+ 2 / nx, whose width the
    main lobe sets at every phase resolution. The span of the sampled
    points would shrink the start on a coarse grid (a 3 x 3 grid at 5 bits
    spans 0.79 of the box), where a fit of 4 or 9 points stays near its
    start and a short length scale cost the hybrid tracker accuracy.
    """
    sd = float(np.std(y))
    sigma_s = INIT_SIGNAL * sd if sd > 0.0 else 1e-3
    ells = tuple(INIT_LENGTH * float(h) for h in half_widths)
    return Hyperparams(sigma_s=sigma_s, lengthscales=ells, sigma_n=sigma_n)


def _ascent_step(g: np.ndarray, fisher: np.ndarray, hess: np.ndarray) -> list[float]:
    """Newton step where -H is positive definite, else a Fisher-scoring step.

    Both metrics get a ridge of RIDGE times F's largest diagonal entry, so
    a coordinate the likelihood hardly sees (sigma_n far below the jitter,
    where its gradient and curvature both vanish) takes a step of about
    g_i / ridge instead of an unbounded one. Falls back to the gradient
    when neither metric factorizes.
    """
    ridge = RIDGE * float(fisher.diagonal().max())
    for metric in (-hess, fisher.copy()):
        metric.flat[:: len(g) + 1] += ridge  # the off-diagonals would gain exactly 0.0
        factor, info = dpotrf(metric, lower=1, overwrite_a=1)
        if info == 0:
            return _cho_solve(factor, g).tolist()
    return g.tolist()


def fit_hyperparams(
    x: np.ndarray,
    y: np.ndarray,
    init: Hyperparams | GprModel,
    max_iter: int = 60,
) -> FitResult:
    """Maximize the log marginal likelihood by safeguarded Newton steps.

    The search runs in log parameters. Each iteration solves with the
    negative Hessian where it is positive definite and with the Fisher
    information otherwise, caps the step at one e-fold per coordinate,
    and halves it until the likelihood rises; the accepted-likelihood
    trace is therefore monotone. A parameter held at BOUND_LO or BOUND_HI
    whose gradient pushes it further out takes no part in the step. The
    fit stops when the step's predicted gain 0.5 g^T step falls below
    FIT_TOL nats, when no halving raises the likelihood (with a warning),
    or after max_iter iterations.

    The search starts at init: hyperparameters (default_init gives the
    tracker's), or a model of this x and y, whose factor and alpha then
    serve as the first evaluation unless the bound clamp moves the start.
    The accepted iterate comes back as FitResult.model.
    """
    obj = _Objective(x, y)
    start = init if isinstance(init, GprModel) else None
    hp = init
    if start is not None:
        for held, given in ((start.x, obj.x), (start.y, obj.y)):
            if held is not given and not np.array_equal(held, given):
                raise ValueError("init model holds other training data than x and y")
        hp = start.hp
    lo, hi = math.log(BOUND_LO), math.log(BOUND_HI)
    # vals, theta and the step live in lists: the loop does a handful of scalar
    # operations per probe, which cost less on floats than on small arrays.
    # The start is evaluated at the given values, not at exp(log(values)),
    # so a fit that takes no step returns its init unchanged.
    vals = [min(max(p, BOUND_LO), BOUND_HI) for p in hp.as_list()]
    theta = [math.log(p) for p in vals]
    if start is not None and vals == hp.as_list():
        k, chol, jitter, alpha = obj.gram(vals), start.chol, start.jitter, start.alpha
        lml = obj.log_marginal(chol, alpha)
    else:
        k, chol, jitter, alpha, lml = obj.evaluate(vals)
    trace = [lml]
    warning = None
    it = 0
    for it in range(1, max_iter + 1):
        g, fisher, hess = obj.derivatives(vals, k, chol, jitter, alpha)
        g_list = g.tolist()
        # a parameter held at a bound and pushed further out by its gradient
        # takes no part in the step, nor in its predicted gain
        free = [
            i
            for i, (t, gi) in enumerate(zip(theta, g_list))
            if not (t <= lo and gi < 0.0 or t >= hi and gi > 0.0)
        ]
        step = [0.0] * len(theta)
        if len(free) == len(theta):
            step = _ascent_step(g, fisher, hess)
        elif free:
            sub = np.ix_(free, free)
            for i, s in zip(free, _ascent_step(g[free], fisher[sub], hess[sub])):
                step[i] = s
        if 0.5 * sum(gi * s for gi, s in zip(g_list, step)) < FIT_TOL:
            it -= 1
            break
        scale = 1.0 / max(1.0, *map(abs, step))  # at most one e-fold per coordinate
        accepted = False
        for _ in range(MAX_HALVINGS):
            cand_theta = [min(max(t + s * scale, lo), hi) for t, s in zip(theta, step)]
            if all(abs(c - t) <= 1e-8 + 1e-5 * abs(t) for c, t in zip(cand_theta, theta)):
                break
            # exp(log(bound)) can land an ulp outside the bound
            cand_vals = [min(max(math.exp(c), BOUND_LO), BOUND_HI) for c in cand_theta]
            try:
                cand = obj.evaluate(cand_vals)
            except np.linalg.LinAlgError:
                scale *= 0.5
                continue
            if cand[-1] > lml:
                theta, vals = cand_theta, cand_vals
                k, chol, jitter, alpha, lml = cand
                trace.append(lml)
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            warning = "no ascent step found; returning best iterate"
            break
    if vals != hp.as_list():
        hp = Hyperparams(sigma_s=vals[0], lengthscales=(vals[1], vals[2]), sigma_n=vals[3])
    return FitResult(
        model=GprModel(x=obj.x, y=obj.y, hp=hp, chol=chol, alpha=alpha, jitter=jitter),
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
    k_last is the kernel column of the point with_point appended, against
    every training point (itself last), which posterior_mean_gradient
    reuses at that point; None on a model from make_model.
    """

    x: np.ndarray
    y: np.ndarray
    hp: Hyperparams
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float
    k_last: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.y)

    def with_point(self, x_new: np.ndarray, y_new: float) -> "GprModel":
        """Append one training point by extending the Cholesky factor.

        Solves L t = k(X, x_new) and appends the row [t^T, sqrt(d)] with
        d the new diagonal minus t^T t; falls back to a fresh
        factorization if roundoff drives d nonpositive.
        """
        n = self.n
        x_all = np.empty((n + 1, 2))
        x_all[:n] = self.x
        x_all[n] = x_new
        y_all = np.empty(n + 1)
        y_all[:n] = self.y
        y_all[n] = y_new
        # _check_finite's own test, on scalars, which cost less than sums
        if not math.isfinite(x_all[n, 0] + x_all[n, 1] + y_all[n]):
            _check_finite(x_all[n:], y_all[n:], first_row=n)
        k_last = kernel(x_all, x_all[n], self.hp)  # k(X, x_new), then sigma_s^2
        t = _solve_lower(self.chol, k_last[:n])
        d2 = self.hp.sigma_s**2 + self.hp.sigma_n**2 + self.jitter - t @ t
        if d2 <= 0.0:
            return make_model(x_all, y_all, self.hp)
        chol = np.empty((n + 1, n + 1), order="F")  # dpotrf's layout: LAPACK reads it uncopied
        chol[:n, :n] = self.chol
        chol[:n, n] = 0.0
        chol[n, :n] = t
        chol[n, n] = math.sqrt(d2)
        alpha = _cho_solve(chol, y_all)
        return GprModel(
            x=x_all, y=y_all, hp=self.hp, chol=chol, alpha=alpha, jitter=self.jitter, k_last=k_last
        )


def make_model(x: np.ndarray, y: np.ndarray, hp: Hyperparams) -> GprModel:
    """Factorize the training set once; posterior queries reuse the cache."""
    obj = _Objective(x, y)
    _, chol, jitter, alpha, _ = obj.evaluate(hp.as_list())
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
                    = (sum_i x_i_d c_i - x*_d sum_i c_i) / ell_d^2,  c = k * alpha

    At the point with_point appended last, its kernel column is reused.
    """
    xstar = np.asarray(xstar, dtype=float).reshape(2)
    if model.k_last is not None and (xstar == model.x[-1]).all():
        k_cross = model.k_last
    else:
        k_cross = kernel(model.x, xstar, model.hp)
    c = k_cross * model.alpha
    return (model.x.T @ c - xstar * c.sum()) / model.hp.lengthscales_sq

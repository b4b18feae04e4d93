"""Decoding fronts: optimal nearest-neighbor processing/scaling pairs found
by conditional-moment matching, and the whitened matched-filter front of
channel linearization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation

ARTANH_CLIP = 1.0 - 1e-12
CONSTANT_MODULUS_TOL = 1e-9


class FrontSolverError(RuntimeError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class GnndFront:
    """Per-observation metric parameters (alpha, beta, gamma).

    The induced metric on a candidate symbol a is
        gamma |a|^2 - 2 alpha Re a + 2 beta Im a   (+ a symbol-independent offset),
    equivalently |g - f a|^2 with alpha = Re{conj(g) f}, beta = Im{conj(g) f},
    gamma = |f|^2. The (g, f) representation requires gamma > 0; the
    conventional pick is f real positive.
    """

    alpha: float
    beta: float
    gamma: float

    @property
    def f(self) -> float:
        if self.gamma <= 0:
            raise ValueError("gamma must be positive to realize a scaling function")
        return float(np.sqrt(self.gamma))

    @property
    def g(self) -> complex:
        return (self.alpha - 1j * self.beta) / self.f


@dataclass(frozen=True)
class ClFront:
    """Whitened matched-filter front for one user.

    effective_gain is E[conj(x_k) y | v] / P_k; residual_cov is the
    second-moment matrix of the uncorrelated remainder. combiner maps an
    interference-cancelled observation to the scalar channel
        combiner^H y = scalar_gain * x + w,  w of unit actual variance.
    """

    effective_gain: np.ndarray
    residual_cov: np.ndarray
    combiner: np.ndarray
    scalar_gain: float

    def apply(self, y) -> np.ndarray:
        """Scalar channel output(s) for y of shape (L,) or (L, n)."""
        y = np.asarray(y)
        return self.combiner.conj() @ y


def artanh_clamped(x):
    """artanh with arguments clamped into (-1, 1) to keep fronts finite."""
    return np.arctanh(np.clip(x, -ARTANH_CLIP, ARTANH_CLIP))


def qpsk_front(mean: complex, power: float) -> GnndFront:
    """Closed-form optimal front for equiprobable QPSK from E[x | y]."""
    s = np.sqrt(2.0 / power)
    alpha = artanh_clamped(s * mean.real) / np.sqrt(2.0 * power)
    beta = -artanh_clamped(s * mean.imag) / np.sqrt(2.0 * power)
    return GnndFront(float(alpha), float(beta), 1.0)


def qpsk_estimates(means, power: float) -> np.ndarray:
    """Vectorized g(y) of the QPSK front (f = 1) for an array of means."""
    means = np.asarray(means)
    s = np.sqrt(2.0 / power)
    scale = 1.0 / np.sqrt(2.0 * power)
    return scale * (artanh_clamped(s * means.real)
                    + 1j * artanh_clamped(s * means.imag))


def _tilt_stats(front_vec, points, log_prior):
    """Tilted pmf and its moments for parameters (alpha, beta, gamma)."""
    alpha, beta, gamma = front_vec
    r, q, u = points.real, points.imag, np.abs(points) ** 2
    t = 2.0 * alpha * r - 2.0 * beta * q - gamma * u
    logw = log_prior + t
    logw -= logw.max()
    w = np.exp(logw)
    w /= w.sum()
    return w, (w @ r, w @ q, w @ u)


def _objective(front_vec, points, log_prior, mean, second):
    alpha, beta, gamma = front_vec
    r, q, u = points.real, points.imag, np.abs(points) ** 2
    t = 2.0 * alpha * r - 2.0 * beta * q - gamma * u
    logw = log_prior + t
    top = logw.max()
    lse = top + np.log(np.exp(logw - top).sum())
    return gamma * second - 2.0 * alpha * mean.real + 2.0 * beta * mean.imag + lse


def solve_front(mean: complex, second: float, prior: Constellation,
                tol: float = 1e-8, max_iter: int = 200,
                trace: list | None = None) -> GnndFront:
    """Match the tilted distribution's conditional moments to (mean, second).

    Damped Newton on the strictly convex per-observation objective; the
    Hessian is the covariance of the tilt statistics under the current
    tilted distribution. For constant-modulus alphabets the |a|^2 statistic
    is degenerate, gamma is a flat direction, and it is pinned to 1.
    ``trace``, if given, collects the objective value per iteration.
    """
    mean = complex(mean)
    second = float(second)
    if second < abs(mean) ** 2 - 1e-12:
        raise ValueError("inconsistent moments: second < |mean|^2")
    points = prior.points
    log_prior = np.log(prior.probabilities)
    power = float(prior.power)
    u = np.abs(points) ** 2
    constant_modulus = np.ptp(u) <= CONSTANT_MODULUS_TOL * max(power, 1.0)

    x = np.array([0.0, 0.0, 1.0 / power])
    if constant_modulus:
        x[2] = 1.0
    free = np.array([True, True, not constant_modulus])

    scale1 = tol * max(np.sqrt(power), 1e-30)
    scale2 = tol * max(power, 1e-30)
    f_cur = _objective(x, points, log_prior, mean, second)
    if trace is not None:
        trace.append(f_cur)
    resid = None
    for _ in range(max_iter):
        w, (m_r, m_q, m_u) = _tilt_stats(x, points, log_prior)
        res1 = np.hypot(m_r - mean.real, m_q - mean.imag)
        res2 = abs(m_u - second)
        resid = (res1, res2)
        if res1 <= scale1 and (constant_modulus or res2 <= scale2):
            return GnndFront(float(x[0]), float(x[1]), float(x[2]))
        grad = np.array([2.0 * (m_r - mean.real),
                         2.0 * (mean.imag - m_q),
                         second - m_u])
        stats = np.stack([2.0 * points.real, -2.0 * points.imag, -u])
        centered = stats - (stats @ w)[:, None]
        hess = (centered * w) @ centered.T
        g = grad[free]
        h = hess[np.ix_(free, free)]
        ridge = 1e-14 * max(np.trace(h), 1.0)
        try:
            step = np.linalg.solve(h + ridge * np.eye(h.shape[0]), -g)
        except np.linalg.LinAlgError:
            step = -g
        if g @ step >= 0:  # not a descent direction; fall back to gradient
            step = -g
        direction = np.zeros(3)
        direction[free] = step
        t_step = 1.0
        decrement = g @ step
        f_new = None
        while t_step > 1e-14:
            cand = x + t_step * direction
            f_new = _objective(cand, points, log_prior, mean, second)
            if f_new <= f_cur + 1e-4 * t_step * decrement:
                break
            t_step *= 0.5
        else:
            break  # step stalled at numerical precision
        x = x + t_step * direction
        f_cur = f_new
        if trace is not None:
            trace.append(f_cur)
    raise FrontSolverError(
        f"no convergence after {max_iter} iterations; "
        f"moment residuals first={resid[0]:.3e} second={resid[1]:.3e}",
        residuals=resid)


def tilted_pmf(front: GnndFront, prior: Constellation) -> np.ndarray:
    """Auxiliary distribution p(a) exp(-|g - f a|^2) normalized over the prior."""
    w, _ = _tilt_stats((front.alpha, front.beta, front.gamma),
                       prior.points, np.log(prior.probabilities))
    return w


def cl_front(gains, noise_var: float, user: int, powers,
             cancelled=()) -> ClFront:
    """Channel-linearization front for one user.

    ``cancelled`` lists user indices whose symbols will be subtracted from y
    before applying the front (successive cancellation); their contribution
    is excluded from the residual second-moment matrix.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    powers = np.asarray(powers, dtype=np.float64)
    n_ant, n_users = gains.shape
    cancelled = set(int(j) for j in cancelled)
    if user in cancelled:
        raise ValueError("target user cannot be in the cancelled set")
    delta = noise_var * np.eye(n_ant, dtype=np.complex128)
    for j in range(n_users):
        if j != user and j not in cancelled:
            hj = gains[:, j]
            delta += powers[j] * np.outer(hj, hj.conj())
    h = gains[:, user]
    try:
        sol = np.linalg.solve(delta, h)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"residual matrix singular for user {user} (noise_var={noise_var})"
        ) from exc
    rho = float((h.conj() @ sol).real)  # h^H Delta^-1 h
    scalar_gain = np.sqrt(rho)
    combiner = sol / scalar_gain  # y_s = combiner^H y = scalar_gain * x + w
    return ClFront(effective_gain=h, residual_cov=delta,
                   combiner=combiner, scalar_gain=float(scalar_gain))

"""Decoding fronts: optimal nearest-neighbor processing/scaling pairs found
by conditional-moment matching, and the whitened matched-filter front of
channel linearization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, per_user

ARTANH_CLIP = 1.0 - 1e-12
CONSTANT_MODULUS_TOL = 1e-9
NEWTON_TOL = 1e-8     # moment residual, relative to sqrt(P) and P
NEWTON_ITERS = 200    # Newton steps per row


class FrontSolverError(RuntimeError):
    """A row of ``solve_front`` did not converge. ``residuals`` holds the
    (first, second) moment residuals of every row at its last check and
    ``front`` the last iterate (g, f) of every row."""

    def __init__(self, message, residuals, front):
        super().__init__(message)
        self.residuals = residuals
        self.front = front


@dataclass(frozen=True)
class ClFront:
    """Whitened matched-filter front for one user.

    combiner maps an interference-cancelled observation to the scalar channel
        combiner^H y = scalar_gain * x + w,  w of unit actual variance,
    with combiner * scalar_gain = Delta^-1 h for the user's gains h and the
    second-moment matrix Delta of the uncorrelated remainder. The front of a
    stack of channels holds one of each per channel.
    """

    combiner: np.ndarray
    scalar_gain: float | np.ndarray

    def apply(self, y) -> np.ndarray:
        """Scalar channel outputs, (n,), of observations y, (L, n), per channel."""
        y = np.asarray(y)
        return (self.combiner.conj()[..., None, :] @ y)[..., 0, :]


def nn_tables(est, points, gain) -> np.ndarray:
    """Nearest-neighbor metric |est - gain a|^2 of every observation against
    every candidate point a, (..., n, |A|). ``gain`` is a scalar or broadcasts
    against est. The GNND front reads it with g(y) and f(y), CL with its
    scalar gain on the combined observation."""
    return np.abs(est[..., None] - np.asarray(gain)[..., None] * points) ** 2


def qpsk_estimates(means, power: float) -> np.ndarray:
    """g(y) of the closed-form optimal front for equiprobable QPSK (f = 1)
    from an array of conditional means: artanh of the scaled mean per
    dimension, clamped into (-1, 1) to keep the front finite."""
    means = np.asarray(means)
    s = np.sqrt(2.0 / power)
    t = np.arctanh(np.clip(s * np.stack([means.real, means.imag]),
                           -ARTANH_CLIP, ARTANH_CLIP))
    return (1.0 / np.sqrt(2.0 * power)) * (t[0] + 1j * t[1])


def tilted_pmf(g, f, prior: Constellation) -> np.ndarray:
    """Auxiliary pmf p(a) exp(-|g - f a|^2) / Z of each observation, (n, |A|)."""
    z = np.log(prior.probabilities) - nn_tables(g, prior.points, f)
    w = np.exp(z - z.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def solve_front(means, seconds, prior: Constellation):
    """Optimal fronts (g, f), each of shape (n,), whose tilted pmfs match the
    conditional moments (means, seconds) of n observations.

    Each row minimizes the strictly convex objective
        gamma s - 2 alpha Re m + 2 beta Im m
            + log sum_a p(a) exp(2 alpha Re a - 2 beta Im a - gamma |a|^2)
    in x = (alpha, beta, gamma) = (f Re g, -f Im g, f^2), by damped Newton
    from (0, 0, 1/P). The Hessian is the covariance of the tilt statistics
    under the row's tilted pmf. Every row takes its own Armijo step and
    freezes once its moment residuals are under NEWTON_TOL. When no step
    above rounding level strictly lowers a row's objective, its gain is
    below what the objective resolves (``rates.maximize_theta`` stops
    there); the row takes its full step, and its moment residuals decide. For
    constant-modulus alphabets the |a|^2 statistic is degenerate, gamma is
    a flat direction, and it is pinned to 1. A row whose gamma ends at or
    below 0 has no nearest-neighbor form and gets the constant metric
    g = f = 0; at the symmetric point (0, P) that is the exact answer, the
    prior itself. Elsewhere the constant metric throws the row away: its
    tilted pmf is the prior, whose moments are not the row's. Posteriors
    concentrated on a corner point of a 16-point square are such rows.
    """
    means = np.asarray(means, dtype=np.complex128)
    seconds = np.broadcast_to(np.asarray(seconds, dtype=np.float64), means.shape)
    if np.any(seconds < np.abs(means) ** 2 - 1e-12):
        raise ValueError("inconsistent moments: second < |mean|^2")
    power = float(prior.power)
    log_prior = np.log(prior.probabilities)
    stats = np.stack([2.0 * prior.points.real, -2.0 * prior.points.imag,
                      -np.abs(prior.points) ** 2])                # (3, |A|)
    target = np.stack([2.0 * means.real, -2.0 * means.imag, -seconds], axis=1)
    constant_modulus = np.ptp(stats[2]) <= CONSTANT_MODULUS_TOL * max(power, 1.0)
    free = np.array([1.0, 1.0, 0.0 if constant_modulus else 1.0])
    x = np.tile([0.0, 0.0, 1.0 if constant_modulus else 1.0 / power], (len(means), 1))
    scale = NEWTON_TOL * np.array([np.sqrt(power), power])

    # row-wise sums rather than BLAS products, whose rounding can depend on
    # the batch size: a row's iterates must not depend on the other rows
    def tilt(x, target):
        """Tilted pmfs (rows, |A|) and objective values at x."""
        z = log_prior + np.sum(x[:, :, None] * stats, axis=1)
        top = z.max(axis=1, keepdims=True)
        w = np.exp(z - top)
        total = w.sum(axis=1)
        return w / total[:, None], top[:, 0] + np.log(total) - np.sum(x * target, axis=1)

    rows = np.arange(len(means))                 # rows still iterating
    resid = np.zeros((len(means), 2))
    for _ in range(NEWTON_ITERS):
        w, obj = tilt(x[rows], target[rows])
        mom = np.sum(w[:, None, :] * stats, axis=2)
        grad = (mom - target[rows]) * free
        resid[rows] = np.stack([np.hypot(grad[:, 0], grad[:, 1]) / 2.0,
                                np.abs(grad[:, 2])], axis=1)
        keep = np.any(resid[rows] > scale, axis=1)
        rows, w, obj, grad = rows[keep], w[keep], obj[keep], grad[keep]
        if rows.size == 0:
            break
        centered = stats - mom[keep][:, :, None]
        hess = ((centered * w[:, None, :]) @ centered.transpose(0, 2, 1)
                * np.outer(free, free))
        ridge = 1e-14 * np.maximum(np.trace(hess, axis1=1, axis2=2), 1.0)
        hess += ridge[:, None, None] * np.eye(3) + np.diag(1.0 - free)
        step = np.linalg.solve(hess, -grad[:, :, None])[:, :, 0]
        decrement = np.sum(grad * step, axis=1)
        ascent = decrement >= 0  # not a descent direction; fall back to the gradient
        step[ascent] = -grad[ascent]
        decrement[ascent] = -np.sum(grad[ascent] ** 2, axis=1)
        t = np.ones(rows.size)
        searching = np.ones(rows.size, dtype=bool)
        while True:
            i = np.flatnonzero(searching & (t > 1e-14))
            if i.size == 0:
                break
            _, obj_new = tilt(x[rows[i]] + t[i, None] * step[i], target[rows[i]])
            accept = obj_new < obj[i] + 1e-4 * t[i] * decrement[i]
            searching[i[accept]] = False
            t[i[~accept]] *= 0.5
        t[searching] = 1.0  # no step lowered the objective: the full Newton step
        x[rows] += t[:, None] * step
    converged = np.all(resid <= scale, axis=1)
    f = np.sqrt(np.maximum(x[:, 2], 0.0))
    front = ((x[:, 0] - 1j * x[:, 1]) / np.where(f > 0.0, f, np.inf), f)
    if not converged.all():
        worst = resid[~converged].max(axis=0)
        raise FrontSolverError(
            f"{np.count_nonzero(~converged)} of {len(means)} rows not converged "
            f"after {NEWTON_ITERS} iterations; moment residuals up to "
            f"first={worst[0]:.3e} second={worst[1]:.3e}", resid, front)
    return front


def cl_front(gains, noise_var: float, constellations, user: int, cancelled) -> ClFront:
    """Channel-linearization front for one user of a channel (L, K), or of
    each channel of a stack (B, L, K) from one stacked solve. User powers
    are those of the constellations, one shared or one per user.

    ``cancelled`` lists user indices whose symbols will be subtracted from y
    before applying the front (successive cancellation); their contribution
    is excluded from the residual second-moment matrix.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    n_ant, n_users = gains.shape[-2:]
    consts = per_user(constellations, n_users)
    cancelled = set(int(j) for j in cancelled)
    if user in cancelled:
        raise ValueError("target user cannot be in the cancelled set")
    delta = np.tile(noise_var * np.eye(n_ant, dtype=np.complex128), gains.shape[:-2] + (1, 1))
    for j in range(n_users):
        if j != user and j not in cancelled:
            hj = gains[..., j]
            delta += consts[j].power * (hj[..., :, None] * hj.conj()[..., None, :])
    h = gains[..., user]
    try:
        sol = np.linalg.solve(delta, h[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"residual matrix singular for user {user} (noise_var={noise_var})"
        ) from exc
    rho = (h.conj()[..., None, :] @ sol[..., None])[..., 0, 0].real  # h^H Delta^-1 h
    scalar_gain = np.sqrt(rho)
    combiner = sol / scalar_gain[..., None]  # y_s = combiner^H y = scalar_gain * x + w
    return ClFront(combiner=combiner, scalar_gain=scalar_gain)

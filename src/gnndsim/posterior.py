"""Exact conditional moments and marginals by enumeration of the joint
constellation, for a batch of received vectors. Users before ``first_user``
form a known prefix whose contribution the caller removes from y."""

from __future__ import annotations

import numpy as np

from .constellation import lse, per_user

ENUM_CAP = 4**10
ENUM_SLICE_BYTES = 2**28   # one (M, n) block of an enumeration's per-column arrays
# exponent floor of the normalised weights, per real dtype: e**floor and its
# products with the points stay far above the smallest normal number
EXP_FLOOR = {np.float32: -80.0, np.float64: -700.0}
MI_FALLBACK_MASS = 1e-250  # marginals below this are recomputed by log-sum-exp


class EnumerationCapError(ValueError):
    """Joint alphabet too large for exact enumeration."""


class JointEnumeration:
    """All symbol combinations of users ``first_user``..K-1 of a channel.

    Precomputes the candidate received means H x over the joint alphabet so
    that batches of observations can be scored with one matrix product.
    Likelihoods are handled in the log domain with per-observation max
    subtraction, so no overflow occurs even at tiny noise levels, and the
    exponent is raised to ``EXP_FLOOR`` before it is taken, so no weight
    underflows into the slow subnormal range.
    """

    def __init__(self, gains, noise_var: float, constellations, first_user: int = 0,
                 dtype=np.complex128):
        gains = np.asarray(gains, dtype=np.complex128)
        n_ant, n_users = gains.shape
        if not 0 <= first_user < n_users:
            raise ValueError(f"first_user {first_user} out of range")
        if noise_var <= 0:
            raise ValueError("noise variance must be positive for enumeration")
        self.constellations = per_user(constellations, n_users)
        active = self.constellations[first_user:]
        sizes = [c.size for c in active]
        total = int(np.prod(sizes, dtype=np.int64))
        if total > ENUM_CAP:
            raise EnumerationCapError(
                f"joint alphabet size {total} exceeds cap {ENUM_CAP}; "
                "use the neural conditional-mean approximator for this size")
        self.first_user = first_user
        self.n_users = n_users
        self.n_active = len(active)
        self.sizes = sizes
        self.noise_var = float(noise_var)
        self.dtype = np.dtype(dtype)
        self.rdtype = np.float32 if self.dtype == np.complex64 else np.float64

        # index of each active user's symbol in every combination; axis order
        # matches self.sizes so reshapes expose one axis per user
        grids = np.indices(sizes).reshape(self.n_active, total)
        points = np.stack([active[u].points[grids[u]] for u in range(self.n_active)])
        self._points = points  # (n_active, M)
        means = gains[:, first_user:] @ points
        self._means_ct = np.ascontiguousarray(means.conj().T.astype(self.dtype))
        self._mean_sq = np.sum(np.abs(means) ** 2, axis=0).real.astype(self.rdtype)
        self._points_re = np.ascontiguousarray(points.real.astype(self.rdtype))
        self._points_im = np.ascontiguousarray(points.imag.astype(self.rdtype))
        logp = np.zeros(total)
        for u in range(self.n_active):
            logp += np.log(active[u].probabilities[grids[u]])
        self._log_prior = logp.astype(self.rdtype)
        self._row_offset = ((self._mean_sq / self.noise_var)
                            - self._log_prior).astype(self.rdtype)
        self.gauss_log_const = -n_ant * np.log(np.pi * self.noise_var)
        self._indicator = None

    @property
    def indicator(self) -> np.ndarray:
        """0/1 matrix (sum of |A_u|, M) whose row offset[k] + a marks the
        combinations in which active user k sends its symbol a; built on
        first use."""
        if self._indicator is None:
            grids = np.indices(self.sizes).reshape(self.n_active, -1)
            self._indicator = np.concatenate(
                [grids[k] == np.arange(m)[:, None] for k, m in enumerate(self.sizes)]
            ).astype(self.rdtype)
        return self._indicator

    def marginal_rows(self, user: int) -> slice:
        """Rows of ``indicator`` (and of ``PosteriorBatch.marginals``) of one user."""
        k = self.active_index(user)
        start = sum(self.sizes[:k])
        return slice(start, start + self.sizes[k])

    @property
    def n_combos(self) -> int:
        return self._points.shape[1]

    @property
    def slice_columns(self) -> int:
        """Observations per evaluation whose (M, n) block of ``dtype`` products
        stays within ENUM_SLICE_BYTES; at least one."""
        return max(1, ENUM_SLICE_BYTES // (self.dtype.itemsize * self.n_combos))

    def active_index(self, user: int) -> int:
        k = user - self.first_user
        if not 0 <= k < self.n_active:
            raise ValueError(f"user {user} not in enumerated range")
        return k

    def log_weights(self, y) -> np.ndarray:
        """Unnormalized log posterior weight of every combination, (M, n)."""
        y = np.atleast_2d(np.asarray(y, dtype=self.dtype).T).T  # (L, n)
        g = self._means_ct @ y  # (M, n)
        ysq = np.sum(np.abs(y) ** 2, axis=0).real
        logw = np.multiply(g.real, self.rdtype(2.0 / self.noise_var))
        logw -= self._row_offset[:, None]
        logw -= (ysq / self.noise_var)[None, :].astype(self.rdtype)
        return logw

    def evaluate(self, y) -> "PosteriorBatch":
        """Normalised posterior weights of a batch of observations.

        The weights are exp(max(logw - top, EXP_FLOOR)): a combination more
        than -EXP_FLOOR nats below the best one keeps a weight of
        e**EXP_FLOOR relative to it, mass far below anything the sums
        resolve. ``PosteriorBatch.log_pmf_at`` compensates where it counts.
        """
        logw = self.log_weights(y)
        top = logw.max(axis=0)
        w = np.subtract(logw, top[None, :], out=logw)
        np.maximum(w, EXP_FLOOR[self.rdtype], out=w)
        np.exp(w, out=w)
        norm = w.sum(axis=0)
        w /= norm[None, :]
        log_evidence = top + np.log(norm) + self.gauss_log_const
        return PosteriorBatch(self, y, w, log_evidence)

    def evaluate_sliced(self, y, read) -> np.ndarray:
        """``read(batch)`` of each slice of ``slice_columns`` observations of
        y, (L, n), concatenated along the last axis, so no batch outgrows
        the byte budget."""
        step = self.slice_columns
        return np.concatenate([read(self.evaluate(y[:, i:i + step]))
                               for i in range(0, y.shape[1], step)], axis=-1)

    def user_log_likelihood(self, y, users) -> list[np.ndarray]:
        """log p(y | x_user = a_i) for every candidate a_i, one (m_user, n)
        table per user of ``users``, from one pass of unfloored log weights.

        Omits the Gaussian normalizer (see ``gauss_log_const``), which
        cancels in likelihood ratios.
        """
        logw = self.log_weights(y)
        shaped = logw.reshape(self.sizes + [logw.shape[1]])
        tables = []
        for user in users:
            k = self.active_index(user)
            axes = tuple(a for a in range(self.n_active) if a != k)
            logp = np.log(self.constellations[user].probabilities)
            tables.append(lse(shaped, axes) - logp[:, None])
        return tables


class PosteriorBatch:
    """Normalized posterior weights for a batch of observations."""

    def __init__(self, enum: JointEnumeration, y, weights, log_evidence):
        self.enum = enum
        self._y = y  # the observations evaluated, (L, n)
        self._w = weights
        self.log_evidence = log_evidence
        self._marginals = None

    def mean(self, user: int) -> np.ndarray:
        k = self.enum.active_index(user)
        return (self.enum._points_re[k] @ self._w
                + 1j * (self.enum._points_im[k] @ self._w))

    def second_moment(self, user: int) -> np.ndarray:
        k = self.enum.active_index(user)
        sq = self.enum._points_re[k] ** 2 + self.enum._points_im[k] ** 2
        return sq @ self._w

    def means_all(self) -> np.ndarray:
        """Conditional means of every enumerated user, (n_active, n)."""
        return self.enum._points_re @ self._w + 1j * (self.enum._points_im @ self._w)

    def marginals(self) -> np.ndarray:
        """Marginal posteriors of every enumerated user, stacked (sum of
        |A_u|, n), from one product with the enumeration's indicator."""
        if self._marginals is None:
            self._marginals = self.enum.indicator @ self._w
        return self._marginals

    def pmf(self, user: int) -> np.ndarray:
        """Marginal posterior over user symbols, (m_user, n)."""
        return self.marginals()[self.enum.marginal_rows(user)]

    def log_pmf_at(self, user: int, idx) -> np.ndarray:
        """Exact log P(x_user = idx[t] | y_t) for every observation t.

        P is read from the marginals and clamped at 1, since it is a
        probability. A column whose P is below MI_FALLBACK_MASS, where the
        floored weights of ``evaluate`` could count, is recomputed exactly
        from its own unfloored log weights by log-sum-exp.
        """
        enum = self.enum
        rows = enum.marginal_rows(user)
        p = np.minimum(self.marginals()[rows][idx, np.arange(idx.size)], 1.0)
        log_p = np.log(p)
        low = np.flatnonzero(p < MI_FALLBACK_MASS)
        if low.size:
            logw = enum.log_weights(self._y[:, low])  # (M, len(low))
            own = enum.indicator[rows][idx[low]].T > 0
            log_p[low] = lse(np.where(own, logw, -np.inf), 0) - lse(logw, 0)
        return log_p

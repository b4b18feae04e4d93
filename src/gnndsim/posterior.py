"""Exact conditional moments and marginals by enumeration of the joint
constellation, for a batch of received vectors. Users before ``first_user``
form a known prefix whose contribution the caller removes from y."""

from __future__ import annotations

import numpy as np

from .constellation import per_user

ENUM_CAP = 4**10


class EnumerationCapError(ValueError):
    """Joint alphabet too large for exact enumeration."""


class JointEnumeration:
    """All symbol combinations of users ``first_user``..K-1 of a channel.

    Precomputes the candidate received means H x over the joint alphabet so
    that batches of observations can be scored with one matrix product.
    Likelihoods are handled in the log domain with per-observation max
    subtraction, so no overflow occurs even at tiny noise levels.
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
        self._idx = grids
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

    @property
    def n_combos(self) -> int:
        return self._points.shape[1]

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

    def evaluate(self, y, keep_log_weights: bool = True) -> "PosteriorBatch":
        logw = self.log_weights(y)
        top = logw.max(axis=0)
        if keep_log_weights:
            w = np.exp(logw - top[None, :])
        else:
            logw -= top[None, :]
            w = np.exp(logw, out=logw)
            logw = None
        norm = w.sum(axis=0)
        w /= norm[None, :]
        log_evidence = top + np.log(norm) + self.gauss_log_const
        return PosteriorBatch(self, logw, w, log_evidence)


class PosteriorBatch:
    """Normalized posterior weights for a batch of observations."""

    def __init__(self, enum: JointEnumeration, logw, weights, log_evidence):
        self.enum = enum
        self._logw = logw
        self._w = weights
        self.log_evidence = log_evidence

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

    def pmf(self, user: int) -> np.ndarray:
        """Marginal posterior over user symbols, (m_user, n)."""
        k = self.enum.active_index(user)
        n = self._w.shape[1]
        shaped = self._w.reshape(self.enum.sizes + [n])
        axes = tuple(a for a in range(self.enum.n_active) if a != k)
        return shaped.sum(axis=axes)

    def user_log_likelihood(self, user: int) -> np.ndarray:
        """log p(y | x_user = a_i) for every candidate a_i, (m_user, n).

        Omits the Gaussian normalizer (see ``enum.gauss_log_const``), which
        cancels in likelihood ratios.
        """
        if self._logw is None:
            raise ValueError("batch was evaluated with keep_log_weights=False")
        k = self.enum.active_index(user)
        n = self._logw.shape[1]
        shaped = self._logw.reshape(self.enum.sizes + [n])
        axes = tuple(a for a in range(self.enum.n_active) if a != k)
        top = shaped.max(axis=axes, keepdims=True)
        lse = np.squeeze(top, axis=axes) + np.log(
            np.sum(np.exp(shaped - top), axis=axes))
        logp = np.log(self.enum.constellations[user].probabilities)
        return lse - logp[:, None]

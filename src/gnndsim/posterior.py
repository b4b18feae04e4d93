"""Exact conditional moments and marginals by enumeration of the joint
constellation, for a batch of received vectors. Users before ``first_user``
form a known prefix whose contribution the caller removes from y.

``SplitEnumeration``, the engine of every runner, reads the posteriors from
two groups of users and one fixed kernel, falling back to exact log-domain
weights where the split loses precision; one engine serves a stack of
channels at once. ``JointEnumeration`` scores every
joint combination and is the reference the tests compare it with. Both
return ``PosteriorBatch`` objects."""

from __future__ import annotations

import copy

import numpy as np

from .constellation import EXP_FLOOR, lse, per_user

ENUM_CAP = 4**10
# caps the columns per evaluation at 16 bytes per joint combination
# (budget_columns), and so sets the rate chunk and its RNG stream
ENUM_SLICE_BYTES = 2**28
# the |A| + |B| float64 group weights of the columns of one split slice
# (SplitEnumeration.slices): cache-sized, it bounds the memory of a batch
# and leaves the chunk, and so the RNG stream, as it is
WEIGHT_SLICE_BYTES = 2**20
EXACT_BLOCK_BYTES = 2**19  # one cache-sized (n, M_A, M_B) float64 block of the split's exact pass
MI_FALLBACK_MASS = 1e-250  # marginals below this are recomputed by log-sum-exp
SPLIT_Z_MIN = 1e-200       # split columns whose normaliser is below this are enumerated in full
# exponent floor of the split kernel, which is scaled to run from 1 to
# e**-floor: its products with factors of at least e**EXP_FLOOR stay normal,
# and a column's sum, up to 4**10 e**-floor, stays finite
SPLIT_KERNEL_FLOOR = -690.0


class EnumerationCapError(ValueError):
    """Joint alphabet too large for exact enumeration."""


def _active_channel(enum, gains, noise_var: float, constellations, first_user: int):
    """Checked channel of users ``first_user``..K-1: the complex gains (L, K),
    or a stack of them. Sets on ``enum`` every user's constellation, the
    first user, the active users' alphabet sizes, their count, the number of
    their combinations and the noise variance."""
    gains = np.asarray(gains, dtype=np.complex128)
    n_users = gains.shape[-1]
    if not 0 <= first_user < n_users:
        raise ValueError(f"first_user {first_user} out of range")
    if noise_var <= 0:
        raise ValueError("noise variance must be positive for enumeration")
    consts = per_user(constellations, n_users)
    sizes = [c.size for c in consts[first_user:]]
    total = int(np.prod(sizes, dtype=np.int64))
    if total > ENUM_CAP:
        raise EnumerationCapError(
            f"joint alphabet size {total} exceeds cap {ENUM_CAP}; "
            "use the neural conditional-mean approximator for this size")
    enum.constellations = consts
    enum.first_user = first_user
    enum.sizes = sizes
    enum.n_active = len(sizes)
    enum.n_combos = total
    enum.noise_var = float(noise_var)
    return gains


def budget_columns(n_combos: int) -> int:
    """Most observations per evaluation of ``n_combos`` joint combinations,
    at least one: ENUM_SLICE_BYTES over 16 bytes per combination."""
    return max(1, ENUM_SLICE_BYTES // (16 * n_combos))


def _observations(y, stack) -> np.ndarray:
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != len(stack) + 2 or y.shape[:-2] != stack:
        raise ValueError(f"y must be a batch of observations (L, n) per channel, got {y.shape}")
    return y


def _grids(sizes) -> np.ndarray:
    """Index of each user's symbol in every combination of ``sizes``, with
    the first user slowest, (len(sizes), prod(sizes))."""
    return np.indices(sizes).reshape(len(sizes), int(np.prod(sizes, dtype=np.int64)))


def _points(consts, grids) -> np.ndarray:
    """Each user's point in every combination, (len(consts), combinations)."""
    return np.array([c.points[g] for c, g in zip(consts, grids)],
                    dtype=np.complex128).reshape(grids.shape)


def _log_prior(consts, grids) -> np.ndarray:
    """Log prior of every combination, (combinations,)."""
    return sum((np.log(c.probabilities[g]) for c, g in zip(consts, grids)),
               np.zeros(grids.shape[1]))


def _indicator(grids, sizes) -> np.ndarray:
    """0/1 matrix (sum of sizes, combinations) whose row offset[k] + a marks
    the combinations in which user k sends its symbol a."""
    out = np.zeros((sum(sizes), grids.shape[1]))
    offsets = np.cumsum([0] + list(sizes))[:-1]
    out[offsets[:, None] + grids, np.arange(grids.shape[1])] = 1.0
    return out


def _block_diag(a, b) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]),
                   dtype=np.result_type(a, b))
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


class SplitEnumeration:
    """Exact posteriors of users ``first_user``..K-1 from two groups.

    Group A is the first n_active // 2 active users and group B the rest.
    Up to a term common to the column, combination (a, b) has the log weight
        u_A(a; y) + u_B(b; y) + C(a, b),   C = -2 Re((H_A a)^H H_B b) / noise_var,
    where u_G is a group's own log weight as if it were alone. With the
    factors e_A = exp(u_A - max u_A), e_B likewise and the kernel
    E = exp(C - max C), built once, every column reads
        Z = sum e_A (E e_B),   w_A = e_A (E e_B) / Z,   w_B = e_B (E^T e_A) / Z,
    the marginal weights of the group combinations. Means, second moments
    and marginals are then products with |A| + |B| weights instead of
    |A| |B|. The factors' exponents are floored at EXP_FLOOR and the
    kernel's at SPLIT_KERNEL_FLOOR, the kernel is kept scaled by
    e**-SPLIT_KERNEL_FLOOR, and each weight is floored at e**EXP_FLOOR, so
    no factor, kernel entry, product or weight is subnormal.

    ``gains`` is one channel (L, K) or a stack (B, L, K), whose group means,
    offsets, coupling and kernel carry its leading axis and whose batches
    read (B, L, n); the stack shares the point tables and indicator. Each
    channel of a stack reads what it reads alone, bit for bit.

    A small Z means the three factors peak at different combinations, where
    their floors could count. A column whose Z is below SPLIT_Z_MIN takes
    its weights from the |A| |B| unfloored log weights u_A + u_B + C
    instead, normalised like ``JointEnumeration``'s; so do exact log
    marginals (``exact_log_pmf``), one channel at a time, in cache-sized
    (n, |A|, |B|) float64 blocks of at most EXACT_BLOCK_BYTES or one column.
    """

    def __init__(self, gains, noise_var: float, constellations, first_user: int):
        gains = _active_channel(self, gains, noise_var, constellations, first_user)
        gains = gains[..., first_user:]
        active = self.constellations[first_user:]
        half = self.n_active // 2
        points, means, self._scores, indicators = [], [], [], []
        for users in (range(half), range(half, self.n_active)):
            consts = active[users.start:users.stop]
            sizes = [c.size for c in consts]
            grids = _grids(sizes)
            points.append(_points(consts, grids))
            means.append(gains[..., users] @ points[-1])
            # conj received means (M_G, L) and offset |H_G g|^2 / noise_var - log p(g)
            self._scores.append((np.ascontiguousarray(np.swapaxes(means[-1].conj(), -1, -2)),
                                 np.sum(np.abs(means[-1]) ** 2, axis=-2) / self.noise_var
                                 - _log_prior(consts, grids)))
            indicators.append(_indicator(grids, sizes))
        coupling = -2.0 * (np.swapaxes(means[0].conj(), -1, -2) @ means[1]).real / self.noise_var
        self._coupling = coupling - coupling.max(axis=(-2, -1), keepdims=True)
        self._kernel = np.exp(np.maximum(self._coupling, SPLIT_KERNEL_FLOOR)
                              - SPLIT_KERNEL_FLOOR)
        # block-diagonal over [A combinations | B combinations], the layout
        # of the weights that PosteriorBatch reads
        self.point_parts = (_block_diag(*(p.real for p in points)),
                            _block_diag(*(p.imag for p in points)))
        self.indicator = _block_diag(*indicators)

    def active_index(self, user: int) -> int:
        k = user - self.first_user
        if not 0 <= k < self.n_active:
            raise ValueError(f"user {user} not in enumerated range")
        return k

    def marginal_rows(self, user: int) -> slice:
        """Rows of ``indicator`` (and of ``PosteriorBatch.marginals``) of one user."""
        k = self.active_index(user)
        start = sum(self.sizes[:k])
        return slice(start, start + self.sizes[k])

    def channel(self, i) -> "SplitEnumeration":
        """The engine of channel ``i`` of the stack, () alone, sharing its arrays."""
        one = copy.copy(self)
        one._scores = [(means_ct[i], offset[i]) for means_ct, offset in self._scores]
        one._coupling, one._kernel = self._coupling[i], self._kernel[i]
        return one

    def slices(self, n: int) -> list[slice]:
        """Column slices of n observations: the joint alphabet's
        ``budget_columns`` or, if fewer, the columns whose group weights fill
        WEIGHT_SLICE_BYTES, rounded down to a multiple of 8 (at least 8).
        The products of such widths read the same bits as one wide batch's;
        the last few columns of a width that is not a multiple of 8 do so
        only in a batch wide enough for BLAS's general kernel, so a ragged
        last slice joins the one before it where the budget allows."""
        budget = budget_columns(self.n_combos)
        step = min(budget, max(8, WEIGHT_SLICE_BYTES // (8 * self.indicator.shape[1]) // 8 * 8))
        starts = list(range(0, n, step))
        if len(starts) > 1 and (n - starts[-1]) % 8 and n - starts[-2] <= budget:
            starts.pop()
        return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]

    def evaluate_sliced(self, y, read) -> np.ndarray:
        """``read(batch)`` of each of the ``slices`` of y, (L, n), joined on
        the last axis: no batch outgrows a slice."""
        return np.concatenate([read(self.evaluate(y[..., cols]))
                               for cols in self.slices(y.shape[-1])], axis=-1)

    def _factors(self, y):
        """Each group's log factor u_G - max u_G, unfloored, and its factor
        e_G = exp(max(u_G - max u_G, EXP_FLOOR)), (M_G, n) per channel."""
        us = []
        for means_ct, offset in self._scores:
            u = np.multiply((means_ct @ y).real, 2.0 / self.noise_var)
            u -= offset[..., None]
            u -= u.max(axis=-2, keepdims=True)
            us.append(u)
        es = [np.maximum(u, EXP_FLOOR) for u in us]
        for e in es:
            np.exp(e, out=e)
        return us, es

    def _log_joint(self, u_a, u_b):
        """Log weight u_A + u_B + C of every combination of each column of
        one channel given its log factors, less the peaks of the three:
        (columns, M_A, M_B) blocks of at most EXACT_BLOCK_BYTES or one column,
        each with its slice of the columns."""
        step = max(1, EXACT_BLOCK_BYTES // (8 * self.n_combos))
        for i in range(0, u_a.shape[1], step):
            cols = slice(i, i + step)
            logw = u_a[:, cols].T[:, :, None] + np.ascontiguousarray(u_b[:, cols].T)[:, None, :]
            logw += self._coupling
            yield cols, logw

    def _exact(self, u_a, u_b):
        """Group weight sums (M_A + M_B, n) and their normaliser (n,) of one
        channel from the unfloored log weights, each exponent floored at
        EXP_FLOOR below its column's top like ``JointEnumeration.evaluate``."""
        sums, z = np.empty((u_a.shape[0] + u_b.shape[0], u_a.shape[1])), np.empty(u_a.shape[1])
        for cols, w in self._log_joint(u_a, u_b):
            top = w.max(axis=(1, 2))
            w -= top[:, None, None]
            np.maximum(w, EXP_FLOOR, out=w)
            np.exp(w, out=w)
            sums[:, cols] = np.concatenate([w.sum(axis=2), w.sum(axis=1)], axis=1).T
            z[cols] = w.sum(axis=(1, 2))
        return sums, z

    def exact_log_pmf(self, y, user: int) -> np.ndarray:
        """log P(x_user = a | y_t) of every candidate a and column of y, (L,
        n), of one channel, by log-sum-exp over its unfloored log weights,
        (m_user, n)."""
        (u_a, u_b), _ = self._factors(_observations(y, ()))
        others = tuple(a + 1 for a in range(self.n_active) if a != self.active_index(user))
        # each block reshaped: one axis per active user after the column's
        own = np.concatenate([lse(logw.reshape([-1] + self.sizes), others)
                              for _, logw in self._log_joint(u_a, u_b)]).T
        return own - lse(own, 0)

    def evaluate(self, y) -> PosteriorBatch:
        """Posterior weights of the group combinations for a batch of
        observations, (L, n) per channel; see the class notes."""
        y = _observations(y, self._coupling.shape[:-2])
        (u_a, u_b), (e_a, e_b) = self._factors(y)
        # [A rows | B rows] of one array: (E e_B) e_A and (E^T e_A) e_B
        w = np.empty(e_a.shape[:-2] + (e_a.shape[-2] + e_b.shape[-2], e_a.shape[-1]))
        w_a, w_b = w[..., :e_a.shape[-2], :], w[..., e_a.shape[-2]:, :]
        np.matmul(self._kernel, e_b, out=w_a)
        np.matmul(np.swapaxes(self._kernel, -1, -2), e_a, out=w_b)
        w_a *= e_a
        w_b *= e_b
        del e_a, e_b
        z = w_a.sum(axis=-2)  # Z e**-SPLIT_KERNEL_FLOOR
        log_z = np.log(z) + SPLIT_KERNEL_FLOOR
        low = log_z < np.log(SPLIT_Z_MIN)
        # the split weights resolve mass down to about e**SPLIT_KERNEL_FLOOR / Z
        fallback_mass = MI_FALLBACK_MASS / np.exp(np.clip(log_z, np.log(SPLIT_Z_MIN), 0.0))
        for i in map(tuple, np.argwhere(low.any(axis=-1))):  # each channel with low columns, alone
            cols = np.flatnonzero(low[i])
            w[i][:, cols], z[i][cols] = self.channel(i)._exact(u_a[i][:, cols], u_b[i][:, cols])
            fallback_mass[i][cols] = MI_FALLBACK_MASS
        # each numerator is raised to z e**EXP_FLOOR first, so that no
        # weight falls below e**EXP_FLOOR into the subnormal range
        np.maximum(w, z[..., None, :] * np.exp(EXP_FLOOR), out=w)
        w /= z[..., None, :]
        return PosteriorBatch(self, y, w, fallback_mass)


class JointEnumeration:
    """All symbol combinations of users ``first_user``..K-1 of a channel: the
    complex128 reference for ``SplitEnumeration``.

    Precomputes the candidate received means H x over the joint alphabet so
    that batches of observations can be scored with one matrix product.
    Likelihoods are handled in the log domain with per-observation max
    subtraction, so no overflow occurs even at tiny noise levels, and the
    exponent is raised to ``EXP_FLOOR`` before it is taken, so no weight
    underflows into the slow subnormal range.
    """

    def __init__(self, gains, noise_var: float, constellations, first_user: int):
        gains = _active_channel(self, gains, noise_var, constellations, first_user)
        active = self.constellations[first_user:]

        # index of each active user's symbol in every combination; axis order
        # matches self.sizes so reshapes expose one axis per user
        grids = _grids(self.sizes)
        points = _points(active, grids)
        means = gains[:, first_user:] @ points
        self._means_ct = np.ascontiguousarray(means.conj().T)
        self._row_offset = (np.sum(np.abs(means) ** 2, axis=0) / self.noise_var
                            - _log_prior(active, grids))
        self.gauss_log_const = -gains.shape[0] * np.log(np.pi * self.noise_var)
        # one column per joint combination, the layout of the weights that
        # PosteriorBatch reads
        self.point_parts = (np.ascontiguousarray(points.real), np.ascontiguousarray(points.imag))
        self.indicator = _indicator(grids, self.sizes)

    active_index = SplitEnumeration.active_index
    marginal_rows = SplitEnumeration.marginal_rows

    def log_weights(self, y) -> np.ndarray:
        """Unnormalized log posterior weight of every combination, (M, n)."""
        y = _observations(y, ())
        g = self._means_ct @ y  # (M, n)
        logw = np.multiply(g.real, 2.0 / self.noise_var)
        logw -= self._row_offset[:, None]
        logw -= (np.sum(np.abs(y) ** 2, axis=0) / self.noise_var)[None, :]
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
        np.maximum(w, EXP_FLOOR, out=w)
        np.exp(w, out=w)
        norm = w.sum(axis=0)
        w /= norm[None, :]
        batch = PosteriorBatch(self, y, w, np.full(y.shape[1], MI_FALLBACK_MASS))
        batch.log_evidence = top + np.log(norm) + self.gauss_log_const  # log p(y)
        return batch

    def exact_log_pmf(self, y, user: int) -> np.ndarray:
        """log P(x_user = a | y_t) of every candidate a and column of y, (L,
        n), by log-sum-exp over its unfloored log weights, (m_user, n)."""
        log_joint = (self.user_log_likelihood(y, [user])[0]
                     + np.log(self.constellations[user].probabilities)[:, None])
        return log_joint - lse(log_joint, 0)

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
    """Normalized posterior weights for a batch of observations.

    ``weights`` has one row per column of the engine's point and indicator
    matrices: a joint combination for ``JointEnumeration``, a group
    combination for ``SplitEnumeration``, after a stack's leading axes,
    which every read keeps in front. A marginal P below ``fallback_mass``
    (one value per observation) is not resolved by the weights, so
    ``log_pmf_at`` recomputes it exactly.
    """

    def __init__(self, enum, y, weights, fallback_mass):
        self.enum = enum
        self._y = y  # the observations evaluated, (..., L, n)
        self._w = weights
        self._fallback_mass = fallback_mass
        self._marginals = None

    def mean(self, user: int) -> np.ndarray:
        k = self.enum.active_index(user)
        re, im = self.enum.point_parts
        return re[k] @ self._w + 1j * (im[k] @ self._w)

    def second_moment(self, user: int) -> np.ndarray:
        k = self.enum.active_index(user)
        re, im = self.enum.point_parts
        return (re[k] ** 2 + im[k] ** 2) @ self._w

    def means_all(self) -> np.ndarray:
        """Conditional means of every enumerated user, (n_active, n)."""
        re, im = self.enum.point_parts
        return re @ self._w + 1j * (im @ self._w)

    def marginals(self) -> np.ndarray:
        """Marginal posteriors of every enumerated user, stacked (sum of
        |A_u|, n), from one product with the enumeration's indicator."""
        if self._marginals is None:
            self._marginals = self.enum.indicator @ self._w
        return self._marginals

    def pmf(self, user: int) -> np.ndarray:
        """Marginal posterior over user symbols, (m_user, n)."""
        return self.marginals()[..., self.enum.marginal_rows(user), :]

    def log_pmf_at(self, user: int, idx) -> np.ndarray:
        """Exact log P(x_user = idx[r, t] | y_t) of every row r and
        observation t, (rows, n), for an idx of (rows, n) or (rows, 1), the
        same for each channel of a stack.

        P is read from the marginals and clamped at 1, since it is a
        probability. Entries below their column's fallback mass
        (MI_FALLBACK_MASS for weights normalised to a top weight of 1),
        where the floored weights of ``evaluate`` could count, come from one
        exact log-sum-exp pass over the column's unfloored log weights.
        """
        cols = np.arange(self._y.shape[-1])
        p = np.minimum(self.pmf(user)[..., idx, cols], 1.0)
        log_p = np.log(p)
        low = p < self._fallback_mass[..., None, :]
        for i in map(tuple, np.argwhere(low.any(axis=(-2, -1)))):  # each channel with such entries
            at = np.flatnonzero(low[i].any(axis=0))
            enum = self.enum.channel(i) if i else self.enum
            rows = np.broadcast_to(idx, low[i].shape)[:, at]
            exact = enum.exact_log_pmf(self._y[i][:, at], user)[rows, np.arange(at.size)]
            log_p[i][:, at] = np.where(low[i][:, at], exact, log_p[i][:, at])
        return log_p

"""Per-bit log-likelihood ratios from metric tables, for any front."""

from __future__ import annotations

import numpy as np

from ..constellation import Constellation, label_set_indices, lse


def bit_llrs(tables, c: Constellation, noise_scale: float, llr_max: float) -> np.ndarray:
    """log p(bit_j = 0) / p(bit_j = 1) from per-symbol metric tables.

    ``tables`` has shape (n_symbols, n_points); the result is flattened
    symbol-major, bits_per_symbol entries per symbol, clamped to +-llr_max.
    """
    if noise_scale <= 0:
        raise ValueError("noise scale must be positive")
    tables = np.asarray(tables, dtype=np.float64)
    labeling = c.require_labeling()
    m = labeling.bits_per_symbol
    z = -tables / noise_scale
    out = np.empty((tables.shape[0], m))
    for j in range(1, m + 1):
        i0 = label_set_indices(c, j, 0)
        i1 = label_set_indices(c, j, 1)
        out[:, j - 1] = lse(z[:, i0], 1) - lse(z[:, i1], 1)
    return np.clip(out, -llr_max, llr_max).ravel()

"""Output checks of the benchmark workloads.

Every check tests a property the method must have, or compares against a
computation made apart from the program; none compares against a stored
copy of earlier output. Each check takes the rows a runner returned and
gives back a list of ``(op_key, message)`` failures, where ``op_key`` names
the operation that failed: a ``(draw, snr_db)`` point of a rate sweep, or
the ``snr_db`` point of a BER run (every block of that point fails with it).
"""

from __future__ import annotations

import numpy as np

SE_FACTOR = 3.0      # rate checks: allowed excess in standard errors
MI_SE_FACTOR = 4.0   # independent MI estimate: allowed gap in standard errors
ROUND_TOL = 1e-9     # bits; floor for a standard error of exactly zero at saturation
LN2 = float(np.log(2.0))
QPSK_BITS = 2.0


# --------------------------------------------------------------------------
# rate sweeps


def _rate_table(rows):
    """{(draw, snr, method, user): (rate_bits, std_err)} of a rate sweep."""
    return {(r["instance_id"], r["snr_db"], r["method"], r["user"]):
            (r["rate_bits"], r["std_err"]) for r in rows}


def check_gmi(rows, n_users: int):
    """Per-user rates lie in [0, 2] bits, and cl <= gnnd <= mi per user.

    GMI never exceeds MI, and CL is one GNND rule, so its GMI cannot
    exceed that of the optimal front. Each inequality holds to within
    ``SE_FACTOR`` combined standard errors.
    """
    table = _rate_table(rows)
    points = sorted({(d, s) for d, s, _, _ in table})
    fails = []
    for d, s in points:
        for u in range(1, n_users + 1):
            for m in ("gnnd", "cl", "mi"):
                if (d, s, m, u) not in table:
                    fails.append(((d, s), f"draw {d} snr {s}: no {m} row for user {u}"))
                    continue
                v, se = table[(d, s, m, u)]
                tol = SE_FACTOR * se + ROUND_TOL
                if not -tol <= v <= QPSK_BITS + tol:
                    fails.append(((d, s), f"draw {d} snr {s} user {u}: {m} rate {v} "
                                          f"outside [0, {QPSK_BITS}]"))
            for lo, hi in (("cl", "gnnd"), ("gnnd", "mi")):
                if (d, s, lo, u) not in table or (d, s, hi, u) not in table:
                    continue
                (v_lo, se_lo), (v_hi, se_hi) = table[(d, s, lo, u)], table[(d, s, hi, u)]
                tol = SE_FACTOR * np.hypot(se_lo, se_hi) + ROUND_TOL
                if v_lo > v_hi + tol:
                    why = (" (CL GMI saturated at 2 bits: its temperature is fitted on"
                           " the samples it averages)"
                           if lo == "cl" and v_lo >= QPSK_BITS - ROUND_TOL else "")
                    fails.append(((d, s), f"draw {d} snr {s} user {u}: {lo} {v_lo} "
                                          f"exceeds {hi} {v_hi}{why}"))
    return fails


def per_user_mi(gains, noise_var: float, user_power: float, n_samples: int,
                rng: np.random.Generator, chunk: int = 2048):
    """Monte-Carlo I(x_u; y) in bits for every user of an equiprobable QPSK
    uplink y = H x + z, in float64, by direct sums over the joint alphabet.

    Returns (per-user bits, per-user standard errors, standard error of
    their sum), the last taken from the per-sample sums, so it holds
    whatever the correlation between users.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    n_ant, k = gains.shape
    pts = np.sqrt(user_power / 2.0) * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    combos = np.array(np.meshgrid(*[np.arange(4)] * k, indexing="ij")).reshape(k, -1)
    means = gains @ pts[combos]                                  # (L, 4^k)
    samples = []
    for lo in range(0, n_samples, chunk):
        n = min(chunk, n_samples - lo)
        tx = rng.integers(0, 4, size=(k, n))
        noise = (rng.normal(size=(n_ant, n)) + 1j * rng.normal(size=(n_ant, n)))
        y = gains @ pts[tx] + np.sqrt(noise_var / 2.0) * noise
        dist = np.abs(y[:, :, None] - means[:, None, :]) ** 2    # (L, n, 4^k)
        logl = -dist.sum(axis=0) / noise_var                     # (n, 4^k)
        top = logl.max(axis=1, keepdims=True)
        lik = np.exp(logl - top)
        log_py = np.log(lik.mean(axis=1))
        per = np.empty((k, n))
        for u in range(k):
            own = combos[u][None, :] == tx[u][:, None]           # (n, 4^k)
            log_pyx = np.log((lik * own).sum(axis=1) / own.sum(axis=1))
            per[u] = (log_pyx - log_py) / LN2
        samples.append(per)
    s = np.concatenate(samples, axis=1)
    root_n = np.sqrt(s.shape[1])
    return (s.mean(axis=1), s.std(axis=1, ddof=1) / root_n,
            float(s.sum(axis=0).std(ddof=1) / root_n))


def check_mi_independent(rows, draw, snr_db, mine, mine_se, mine_sum_se):
    """The program's per-user and sum MI at one point agree with an
    estimate made apart from it, within ``MI_SE_FACTOR`` combined standard
    errors. The program's sum error adds the per-user errors linearly, a
    bound that holds although all users share the same samples."""
    table = _rate_table(rows)
    key = (draw, snr_db)
    fails = []
    prog_se_sum = 0.0
    for u, (v, se) in enumerate(zip(mine, mine_se), start=1):
        if (draw, snr_db, "mi", u) not in table:
            return [(key, f"draw {draw} snr {snr_db}: no mi row for user {u}")]
        pv, pse = table[(draw, snr_db, "mi", u)]
        prog_se_sum += pse
        if abs(pv - v) > MI_SE_FACTOR * np.hypot(pse, se) + ROUND_TOL:
            fails.append((key, f"draw {draw} snr {snr_db} user {u}: program MI {pv} "
                               f"vs independent {v} +- {se}"))
    pv = table.get((draw, snr_db, "mi", "sum"), (None,))[0]
    if pv is None:
        return fails + [(key, f"draw {draw} snr {snr_db}: no mi sum row")]
    total = float(np.sum(mine))
    if abs(pv - total) > MI_SE_FACTOR * np.hypot(prog_se_sum, mine_sum_se) + ROUND_TOL:
        fails.append((key, f"draw {draw} snr {snr_db}: program sum MI {pv} "
                           f"vs independent {total} +- {mine_sum_se}"))
    return fails


# --------------------------------------------------------------------------
# BER runs


def ber_curves(rows):
    """{method: [(snr, ber), ...]} of the all-user rows, sorted by SNR."""
    out = {}
    for r in rows:
        if r["user"] == "all":
            out.setdefault(r["method"], []).append((r["snr_db"], r["ber"]))
    return {m: sorted(v) for m, v in out.items()}


def _absent(curves, methods):
    return [(None, f"no {m} rows") for m in methods if m not in curves]


def check_full_cap(rows, n_users: int, blocks: int, info_bits: int):
    """Every (SNR, method) row ran the full block cap with its bit count."""
    fails = []
    for r in rows:
        want_bits = blocks * info_bits * (n_users if r["user"] == "all" else 1)
        if r["blocks"] != blocks or r["bits"] != want_bits:
            fails.append((r["snr_db"], f"snr {r['snr_db']} {r['method']} user {r['user']}: "
                                       f"{r['blocks']} blocks / {r['bits']} bits, "
                                       f"want {blocks} / {want_bits}"))
    return fails


def check_not_rising(rows, methods):
    """BER does not rise with SNR; the draws are paired across SNR points."""
    curves = ber_curves(rows)
    fails = _absent(curves, methods)
    for m in methods:
        pts = curves.get(m, [])
        for (s0, b0), (s1, b1) in zip(pts, pts[1:]):
            if b1 > b0:
                fails.append((s1, f"{m} BER rises from {b0} at {s0} dB to {b1} at {s1} dB"))
    return fails


def check_better(rows, better, worse):
    """At every SNR point, the BER of ``worse`` exceeds that of every
    method in ``better``."""
    curves = ber_curves(rows)
    by_snr = {m: dict(v) for m, v in curves.items()}
    fails = _absent(curves, (worse,))
    for s, b_worse in curves.get(worse, []):
        for m in better:
            if m not in by_snr or s not in by_snr[m]:
                fails.append((s, f"snr {s}: no {m} row"))
            elif not by_snr[m][s] < b_worse:
                fails.append((s, f"snr {s}: {m} BER {by_snr[m][s]} not below "
                                 f"{worse} BER {b_worse}"))
    return fails


def check_ber_open(rows, methods):
    """0 < BER < 0.5 for every listed method at every SNR point."""
    curves = ber_curves(rows)
    return _absent(curves, methods) + [
        (s, f"snr {s}: {m} BER {b} outside (0, 0.5)")
        for m in methods for s, b in curves.get(m, []) if not 0.0 < b < 0.5]


def check_rows_equal(rows, reference, method):
    """The rows of ``method`` equal those of a reference run."""
    def pick(rs):
        return {(r["snr_db"], r["user"]): (r["errors"], r["bits"], r["blocks"])
                for r in rs if r["method"] == method}
    got, want = pick(rows), pick(reference)
    if not want:
        return [(None, f"reference run has no {method} rows")]
    return [(s, f"snr {s} user {u}: {method} row {got.get((s, u))} != reference {v}")
            for (s, u), v in sorted(want.items(), key=str) if got.get((s, u)) != v]

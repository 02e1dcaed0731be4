"""Reference values the benchmark checks the program's outputs against.

Nothing here imports the program: every value is a closed form, a direct
sum, or a few lines of numpy written for the benchmark.
"""

from __future__ import annotations

import math

import numpy as np


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def summarize(rows) -> dict:
    """Per-suite trial and pass counts, worst slack, and campaign totals."""
    suites = {}
    for row in rows:
        s = suites.setdefault(row["suite"], {"trials": 0, "passes": 0, "worst_slack_bits": math.inf})
        s["trials"] += 1
        s["passes"] += bool(row["holds"])
        s["worst_slack_bits"] = min(s["worst_slack_bits"], float(row["slack_bits"]))
    passes = sum(bool(r["holds"]) for r in rows)
    return {
        "suites": suites,
        "total_checks": len(rows),
        "total_passes": passes,
        "all_hold": passes == len(rows),
    }


def h2(x: float) -> float:
    """Binary entropy in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def thermal_entropy_from_gain(gain: float) -> float:
    """Entropy of a quantum-limited amplifier's output on vacuum: a thermal
    state of mean photon number G - 1, g(G - 1) = G log2 G - (G-1) log2 (G-1)."""
    return gain * math.log2(gain) - (gain - 1.0) * math.log2(gain - 1.0)


def loss_ladder_sum(eta: float, m: int, n_max: int) -> float:
    """<m| B_eta(I) |m> on Fock levels 0..n_max:
    sum_{n=m}^{n_max} C(n, m) eta^m (1 - eta)^(n - m)."""
    return sum(math.comb(n, m) * eta**m * (1.0 - eta) ** (n - m) for n in range(m, n_max + 1))


def loss_identity_deviation(eta: float, n_max: int, keep: int) -> float:
    """max_{m < keep} |<m|B_eta(I)|m> - 1/eta|; B_eta(I) is diagonal."""
    return max(abs(loss_ladder_sum(eta, m, n_max) - 1.0 / eta) for m in range(keep))


def loss_recommended_guard(eta: float, n_max: int, tol: float) -> int:
    """Smallest guard band whose top kept level deviates from 1/eta by at most tol."""
    for guard in range(n_max):
        if abs(loss_ladder_sum(eta, n_max - guard, n_max) - 1.0 / eta) <= tol:
            return guard
    return n_max - 1


def decay_min_gain(p: float) -> float:
    """min_q h((1-p) q) - h(q) for the qubit channel {|0><0|, sqrt(p)|0><1|,
    sqrt(1-p)|1><1|}.  Its output depends only on diag(rho), and H(rho) is
    at most H(diag rho), so diagonal inputs attain the minimum."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda q: h2((1.0 - p) * q) - h2(q),
        bounds=(0.0, 1.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.fun)


def apply_kraus(kraus, rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


def entropy(rho: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


def rel_entropy(rho: np.ndarray, sigma: np.ndarray, support_tol: float = 1e-9) -> float:
    """D(rho || sigma) in bits; inf when rho has mass above support_tol on ker sigma."""
    lam_s, vec_s = np.linalg.eigh(sigma)
    support = lam_s > lam_s.size * abs(lam_s).max() * 1e-12
    kernel = vec_s[:, ~support]
    if float(np.real(np.trace(kernel.conj().T @ rho @ kernel))) > support_tol:
        return math.inf
    weights = np.real(np.einsum("ji,jk,ki->i", vec_s.conj(), rho, vec_s))[support]
    return -entropy(rho) - float(np.sum(weights * np.log2(lam_s[support])))


def entropy_gain(kraus, rho: np.ndarray) -> float:
    """H(N(rho)) - H(rho)."""
    return entropy(apply_kraus(kraus, rho)) - entropy(rho)


def adjoint_gain_bound(kraus, rho: np.ndarray) -> float:
    """D(rho || N^dag N(rho)), the lower bound on the entropy gain of a channel."""
    adjoint = [k.conj().T for k in kraus]
    return rel_entropy(rho, apply_kraus(adjoint, apply_kraus(kraus, rho)))

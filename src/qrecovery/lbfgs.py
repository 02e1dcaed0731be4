"""Lock-step L-BFGS: independent minimizations advanced together, so that each
step evaluates one stacked objective (J. Nocedal, Math. Comp. 35, 773, 1980).

Every start keeps its own curvature pairs, newest first in (S, MEMORY, n)
arrays, and its own Armijo backtracking line search.  The arithmetic of one
row never reads another row, so a start follows the path it would follow
alone.  A start stops, and leaves the stack, at SciPy L-BFGS-B's rules with
``ftol`` = FTOL and ``gtol`` = GTOL, when a line search fails, or when it has
used its evaluations.
"""

from __future__ import annotations

import numpy as np

__all__ = ["minimize_stack"]

MEMORY = 10
ARMIJO = 1e-4
# stop when (f_k - f_{k+1}) / max(|f_k|, |f_{k+1}|, 1) <= FTOL
FTOL = 1e-15
# stop when max |gradient entry| <= GTOL
GTOL = 1e-10
# evaluations after which a line search gives up, as in L-BFGS-B
MAX_LINE_EVALS = 20


def _direction(g, s_hist, y_hist, rho_hist, gamma, depth):
    """-H g by the two-loop recursion over the ``depth`` newest pairs of every
    row; an empty slot has rho = 0 and leaves the row unchanged."""
    q = g.copy()
    alpha = np.empty((len(g), depth))
    for i in range(depth):
        alpha[:, i] = rho_hist[:, i] * (s_hist[:, i] * q).sum(-1)
        q -= alpha[:, i, None] * y_hist[:, i]
    r = gamma[:, None] * q
    for i in reversed(range(depth)):
        beta = rho_hist[:, i] * (y_hist[:, i] * r).sum(-1)
        r += (alpha[:, i] - beta)[:, None] * s_hist[:, i]
    return -r


def minimize_stack(objective, x0: np.ndarray, max_evals: int):
    """Minimize ``objective`` from every row of ``x0`` (S, n) at once.

    ``objective`` maps an (s, n) stack of points to their (s,) values and
    (s, n) gradients.  Returns each start's final value (S,), point (S, n)
    and number of evaluations (S,), which never exceeds ``max_evals``.
    """
    x = np.array(x0, dtype=float)
    n_starts, n = x.shape
    f_out, x_out = np.empty(n_starts), np.empty_like(x)
    evals = np.ones(n_starts, dtype=int)
    live = np.arange(n_starts)  # original index of each row still running
    f, g = objective(x)
    s_hist = np.zeros((n_starts, MEMORY, n))
    y_hist = np.zeros((n_starts, MEMORY, n))
    rho_hist = np.zeros((n_starts, MEMORY))
    gamma = np.ones(n_starts)  # H_0 = gamma I, from the newest pair
    pairs = np.zeros(n_starts, dtype=int)
    done = (np.abs(g).max(axis=1) <= GTOL) | (evals >= max_evals)
    while True:
        if done.any():
            f_out[live[done]], x_out[live[done]] = f[done], x[done]
            keep = ~done
            live, x, f, g = live[keep], x[keep], f[keep], g[keep]
            s_hist, y_hist, rho_hist = s_hist[keep], y_hist[keep], rho_hist[keep]
            gamma, pairs = gamma[keep], pairs[keep]
        if not live.size:
            return f_out, x_out, evals
        p = _direction(g, s_hist, y_hist, rho_hist, gamma, int(pairs.max()))
        slope = (g * p).sum(-1)
        # without curvature pairs the step is the unit-length steepest descent
        step = np.where(pairs == 0, 1.0 / np.linalg.norm(g, axis=1), 1.0)
        done = np.zeros(len(live), dtype=bool)
        moved = np.zeros(len(live), dtype=bool)
        x_new, f_new, g_new = x.copy(), f.copy(), g.copy()
        searching = np.arange(len(live))
        for _ in range(MAX_LINE_EVALS):
            trial = x[searching] + step[searching, None] * p[searching]
            f_trial, g_trial = objective(trial)
            evals[live[searching]] += 1
            ok = f_trial <= f[searching] + ARMIJO * step[searching] * slope[searching]
            accepted = searching[ok]
            x_new[accepted], f_new[accepted], g_new[accepted] = trial[ok], f_trial[ok], g_trial[ok]
            moved[accepted] = True
            f_trial, searching = f_trial[~ok], searching[~ok]
            spent = evals[live[searching]] >= max_evals
            done[searching[spent]] = True
            f_trial, searching = f_trial[~spent], searching[~spent]
            if not searching.size:
                break
            # minimizer of the quadratic through f(x), the slope and f(trial),
            # kept inside [0.1, 0.5] of the failed step
            a, sl = step[searching], slope[searching]
            quad = -sl * a * a / (2.0 * (f_trial - f[searching] - sl * a))
            step[searching] = np.clip(np.nan_to_num(quad, nan=0.0), 0.1 * a, 0.5 * a)
        done[searching] = True  # line search failed: the start stays at x

        m = np.flatnonzero(moved)
        s, y = x_new[m] - x[m], g_new[m] - g[m]
        sy = (s * y).sum(-1)
        curved = sy > 0
        k = m[curved]
        s_hist[k] = np.concatenate([s[curved, None], s_hist[k, :-1]], axis=1)
        y_hist[k] = np.concatenate([y[curved, None], y_hist[k, :-1]], axis=1)
        rho_hist[k] = np.concatenate([1.0 / sy[curved, None], rho_hist[k, :-1]], axis=1)
        gamma[k] = sy[curved] / (y[curved] * y[curved]).sum(-1)
        pairs[k] = np.minimum(pairs[k] + 1, MEMORY)
        scale = np.maximum(np.maximum(np.abs(f[m]), np.abs(f_new[m])), 1.0)
        done[m] |= (
            ((f[m] - f_new[m]) / scale <= FTOL)
            | (np.abs(g_new[m]).max(axis=1) <= GTOL)
            | (evals[live[m]] >= max_evals)
        )
        x, f, g = x_new, f_new, g_new

"""Iterative transmit-power policy optimization by per-slot improvement.

The expected combined cost is multilinear in the per-slot success
probabilities, so it is neither convex nor quasi-convex, but moving slot t
alone from pi_t to v changes it by exactly (v - pi_t) A_t + P(v) - P(pi_t),
where A_t = ex2[t] (r k^2 + c fbar[t+1]) comes from the recursion tables and
P(pi) = -theta/ln pi is the transmit power.  The slope A_t + theta/(pi ln^2 pi)
is smallest at pi = e^-2, which makes the per-slot minimizer a member of a
two-point candidate set {0, min(pi0, pi_max)} where pi0, the stationary point
in (e^-2, 1), has a closed form through the Lambert W function; a slot whose
slope is nonnegative even at its minimum has the minimizer 0 (silence).
Each outer iteration scores the candidates of every slot at once by that
exact cost change against the incumbent's tables and adopts the best
single-coordinate replacement, writing that one slot's power: the cost
descends monotonically.  This is the only descent rule; optimize_policy is
its one entry point.
The descent holds one incumbent: the policy, its pi and powers, its fbar
and ex2 tables as float64 arrays, and its exact cost.  At the start the
cost is expected_cost's and the tables take one backward and one forward
pass of compute_tables.  Adopting a move at slot t* writes that slot and
reruns, in place, the backward pass from t* down to slot 0 and the forward
pass from t* to T-1: T slot-steps bit-equal to full tables, plus O(T) array
work.  The moved slot's pi comes from the same np.exp as policy_to_success
and pi_max, so a move to the cap stays within it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special._ufuncs import _lambertw

from .model import (
    ChannelParams,
    RecursionTables,
    SystemParams,
    _power,
    _total_cost,
    _update_tables,
    compute_tables,
    expected_cost,
    policy_to_success,
    success_to_power,
)

__all__ = [
    "OptimizerConfig",
    "OptimizationTrace",
    "stationary_success",
    "slot_candidates",
    "optimize_policy",
]

# Relative cost threshold below which two candidate policies count as tied;
# ties go to the smallest slot index (and to the incumbent over any modification).
TIE_TOL = 1e-12

_E_MINUS_2 = float(np.exp(-2.0))


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the outer improvement loop."""

    k_max: int | None = None  # maximum outer iterations; None -> max(200, 10 T)
    eps_cost: float = 1e-10   # relative improvement quantum; a sweep keeps
                              # the incumbent below it, which stops the loop
    ex2_1: float | None = None  # initial second moment E[x_1^2]; None -> sigma_x2
    init: str = "zero"        # starting policy: "zero" or "full"

    def __post_init__(self):
        if not (self.k_max is None or (
                isinstance(self.k_max, (int, np.integer)) and self.k_max >= 1)):
            raise ValueError(
                f"opt.k_max must be null or an integer >= 1 (got {self.k_max})")
        if not 0 < self.eps_cost < math.inf:
            raise ValueError(
                f"opt.eps_cost must be a finite number > 0 (got {self.eps_cost})")
        if self.ex2_1 is not None and not 0 <= self.ex2_1 < math.inf:
            raise ValueError(
                f"opt.ex2_1 must be null or a finite number >= 0 (got {self.ex2_1})")
        if self.init not in ("zero", "full"):
            raise ValueError(f"opt.init must be 'zero' or 'full' (got {self.init!r})")


@dataclass
class OptimizationTrace:
    """Result of :func:`optimize_policy`.

    cost_history[0] is the cost of the starting policy and each further entry
    is the cost after one outer iteration; the sequence never increases.
    """

    policy: np.ndarray            # final per-slot powers
    success: np.ndarray           # the matching success probabilities
    cost_history: np.ndarray      # costs, length iterations + 1
    iterations: int
    converged: bool
    cost: float = field(init=False)

    def __post_init__(self):
        self.cost = float(self.cost_history[-1])


def stationary_success(
    A: float | np.ndarray, ch: ChannelParams
) -> float | np.ndarray | None:
    """Stationary success probability pi0 of the slope, where one exists.

    Solves A + theta/(pi ln^2 pi) = 0 on the interval (e^-2, pi_max) in
    closed form: with u = ln pi it reads (u/2) e^(u/2) = -sqrt(-theta/A)/2,
    so pi0 = exp(2 W0(-sqrt(-theta/A)/2)).  There is no root there when the
    slope is still negative at pi_max (the cap is the candidate) or already
    nonnegative at e^-2 (no descent direction beyond the candidate pair).
    A scalar A gives a float, or None without a root; an array A gives an
    array with NaN where there is no root.
    """
    A = np.asarray(A, dtype=float)
    roots = np.full(A.shape, np.nan)
    # Lambert W's ufunc, unwrapped, only where the slope at e^-2 is negative
    neg = A + ch.theta * math.e**2 / 4.0 < 0.0
    pi0 = np.exp(2.0 * _lambertw(-0.5 * np.sqrt(-ch.theta / A[neg]), 0, 1e-8).real)
    roots[neg] = np.where(pi0 < ch.pi_max, pi0, np.nan)
    if roots.ndim:
        return roots
    return None if math.isnan(roots) else float(roots)


def _candidates(sys, ch, fbar, ex2, pi, power) -> tuple[np.ndarray, ...]:
    """Second candidate v of every slot, 0 where it does not descend, and the
    exact cost changes d0, d1 of moving the slot alone to 0 and to v."""
    tail = sys.r * sys.k**2 + sys.closed_loop_coeff * fbar[1:]
    # a slot whose state is 0 almost surely moves no cost through it, even
    # where its tail factor has overflowed
    A = np.multiply(ex2, tail, out=np.zeros_like(tail), where=ex2 > 0.0)
    pi_max = ch.pi_max  # one np.exp per read
    pi_edge = min(_E_MINUS_2, pi_max)
    down = np.flatnonzero(A + ch.theta / (pi_edge * math.log(pi_edge) ** 2) < 0.0)
    d0 = 0.0 - pi * A - power  # +0.0, not -0.0, at a silent slot
    v, d1 = np.zeros_like(A), d0.copy()
    v[down] = v_down = np.fmin(stationary_success(A[down], ch), pi_max)
    d1[down] = (v_down - pi[down]) * A[down] - ch.theta / np.log(v_down) - power[down]
    return v, d0, d1


def slot_candidates(
    sys: SystemParams,
    ch: ChannelParams,
    tables: RecursionTables,
    pi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate success probabilities of every slot and their cost changes.

    The slope in pi_t is A_t + theta/(pi_t ln^2 pi_t) with the constant
    A_t = ex2[t] (r k^2 + (2abk + b^2 k^2) fbar[t+1]).  Its minimum over the
    feasible range sits at pi' = min(e^-2, pi_max); when the slope there is
    negative the slot minimizer is 0 or min(pi0, pi_max), otherwise the cost
    never decreases in pi_t and the minimizer is 0.  Returns (cands, deltas),
    both of shape (T, 2): row t holds (0, min(pi0, pi_max)), or (0, 0) for a
    slot whose slope is nonnegative over the whole range, and the exact cost
    change (v - pi_t) A_t + P(v) - P(pi_t) of moving slot t alone to each,
    against the tables of pi.
    """
    if tables.ex2 is None:
        raise ValueError("tables.ex2 missing: run the forward pass first")
    pi = np.asarray(pi, dtype=float)
    v, d0, d1 = _candidates(sys, ch, tables.fbar, tables.ex2, pi, _power(pi, ch))
    return np.stack([np.zeros_like(pi), v], 1), np.stack([d0, d1], 1)


@dataclass
class _Incumbent:
    """A policy, its pi, _power(pi), fbar and ex2 tables and exact cost."""

    policy: np.ndarray
    pi: np.ndarray
    power: np.ndarray
    fbar: np.ndarray
    ex2: np.ndarray
    cost: float


def _incumbent(
    sys: SystemParams, ch: ChannelParams, policy: np.ndarray, ex2_1: float,
) -> _Incumbent:
    """A policy's pi, its expected_cost, and its tables from one backward and
    one forward pass."""
    pi = policy_to_success(policy, ch)
    cost = expected_cost(sys, ch, pi, ex2_1)  # moments checked before tails
    tab = compute_tables(sys, ch, pi, ex2_1)
    return _Incumbent(policy, pi, _power(pi, ch), tab.fbar, tab.ex2, cost)


def _step(sys: SystemParams, ch: ChannelParams, cfg: OptimizerConfig,
          inc: _Incumbent) -> bool:
    """Move the incumbent by the best single-coordinate replacement, if any.

    Scores every slot's candidates by their exact cost change against the
    incumbent's tables.  Ties among modifications go to the smallest slot
    index; returns False, leaving the incumbent as it is (a fixed point),
    unless the winner improves the cost by at least cfg.eps_cost relative.
    Only the winning slot t is written and checked, and the tables rerun
    from it in place, T slot-steps in all.
    """
    v, d0, d1 = _candidates(sys, ch, inc.fbar, inc.ex2, inc.pi, inc.power)
    slot_cost = inc.cost + np.minimum(d0, d1)
    # a later slot displaces the running winner only when strictly better
    # beyond the tie tolerance, so only a strict prefix minimum can
    later = np.flatnonzero(slot_cost[1:] < np.fmin.accumulate(slot_cost)[:-1]) + 1
    t, best_cost = 0, float(slot_cost[0])
    bar = best_cost - TIE_TOL * abs(best_cost)
    for s, cost in zip(later, slot_cost[later]):
        if cost < bar:
            t, best_cost = s, cost
            bar = cost - TIE_TOL * abs(cost)
    if not best_cost < inc.cost - cfg.eps_cost * abs(inc.cost):
        return False
    p = success_to_power(float(v[t]) if d1[t] < d0[t] else 0.0, ch)  # silence wins ties
    # policy_to_success's np.exp, as pi_max's: p <= p_max keeps pi <= pi_max
    inc.policy[t], inc.pi[t] = p, (np.exp(-ch.theta / p) if p > 0 else 0.0)
    inc.power[t] = -ch.theta / np.log(inc.pi[t]) if inc.pi[t] > 0 else 0.0
    _update_tables(sys, inc.pi, inc.fbar, inc.ex2, t)
    inc.cost = _total_cost(sys, inc.pi, inc.ex2, inc.power)
    return True


def optimize_policy(
    sys: SystemParams, ch: ChannelParams, cfg: OptimizerConfig
) -> OptimizationTrace:
    """Run the full iterative improvement from the configured starting policy.

    Starts from the all-zero policy (or full power when cfg.init = "full";
    the terminal slot starts at 0 either way since transmitting there can
    never pay) and sweeps until no coordinate improves the cost by at least
    cfg.eps_cost relative, or k_max iterations have run.  Each iteration
    changes one slot, so k_max defaults to max(200, 10 T).  Stopping at
    k_max short of a fixed point emits a RuntimeWarning.

    cost_history[0] is the start policy's expected_cost, and its tables
    take one further backward and forward pass.  Each adopted move at
    slot t* then updates the incumbent in place for T recursion slot-steps:
    the backward pass from t* down to 0 and the forward pass from t* to T-1.
    A converged policy is an exact fixed point: no slot's candidate improves
    its cost by cfg.eps_cost relative, whichever start the run took.
    """
    k_max = max(200, 10 * sys.T) if cfg.k_max is None else cfg.k_max
    if cfg.init == "zero":
        policy = np.zeros(sys.T)
    else:
        policy = np.full(sys.T, ch.p_max)
        policy[-1] = 0.0
    inc = _incumbent(sys, ch, policy, sys.sigma_x2 if cfg.ex2_1 is None else cfg.ex2_1)
    history = [inc.cost]
    converged = False
    iterations = 0
    for iterations in range(1, k_max + 1):
        converged = not _step(sys, ch, cfg, inc)
        history.append(inc.cost)
        if converged:
            break
    if not converged:
        warnings.warn(
            f"optimizer stopped after {iterations} iterations at k_max = {k_max} "
            f"without reaching a fixed point (T = {sys.T})",
            RuntimeWarning, stacklevel=2)
    return OptimizationTrace(
        policy=inc.policy,
        success=inc.pi,
        cost_history=np.asarray(history),
        iterations=iterations,
        converged=converged,
    )

"""Iterative transmit-power policy optimization by per-slot improvement.

The expected combined cost is multilinear in the per-slot success
probabilities, so it is neither convex nor quasi-convex, but moving slot t
alone from pi_t to v changes it by exactly (v - pi_t) A_t + P(v) - P(pi_t),
where A_t = ex2[t] (r k^2 + c fbar[t+1]) comes from the recursion tables and
P(pi) = -theta/ln pi is the transmit power.  The slope A_t + theta/(pi ln^2 pi)
is smallest at pi = e^-2, which makes the per-slot minimizer a member of a
two-point candidate set {0, min(pi0, pi_max)} where pi0, the stationary point
in (e^-2, 1), has a closed form through the Lambert W function.  Each outer
iteration scores the candidates of every slot at once by that exact cost
change against the incumbent's tables and adopts the best single-coordinate
replacement, writing that one slot's power: the cost descends monotonically.
The incumbent's tables and exact cost carry over to the next iteration, so
one iteration is one backward and one forward pass (for the adopted policy)
plus O(T) array work.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import lambertw

from .model import (
    ChannelParams,
    RecursionTables,
    SystemParams,
    compute_tables,
    cost_from_moments,
    expected_cost,
    policy_to_success,
    success_to_power,
)

__all__ = [
    "OptimizerConfig",
    "OptimizationTrace",
    "stationary_success",
    "slot_candidates",
    "coordinate_sweep",
    "optimize_policy",
]

# Relative cost threshold below which two candidate policies count as tied;
# ties go to the smallest slot index (and to the incumbent over any modification).
TIE_TOL = 1e-12

_E_MINUS_2 = math.exp(-2.0)


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
        if not self.eps_cost > 0:
            raise ValueError(f"opt.eps_cost must be > 0 (got {self.eps_cost})")
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
    with np.errstate(divide="ignore", invalid="ignore"):
        pi0 = np.exp(2.0 * lambertw(-0.5 * np.sqrt(-ch.theta / A)).real)
    roots = np.where((A + ch.theta * math.e**2 / 4.0 < 0.0) & (pi0 < ch.pi_max),
                     pi0, np.nan)
    if roots.ndim:
        return roots
    return None if math.isnan(roots) else float(roots)


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
    negative the slot minimizer is 0 or min(pi0, pi_max), otherwise the slot
    keeps its current value.  Returns (cands, deltas), both of shape (T, 2):
    row t holds (0, min(pi0, pi_max)), or (pi_t, pi_t) for a kept slot, and
    the exact cost change (v - pi_t) A_t + P(v) - P(pi_t) of moving slot t
    alone to each, against the tables of pi.
    """
    if tables.ex2 is None:
        raise ValueError("tables.ex2 missing: run the forward pass first")
    pi = np.asarray(pi, dtype=float)
    tail = sys.r * sys.k**2 + sys.closed_loop_coeff * tables.fbar[1:]
    # a slot whose state is 0 almost surely moves no cost through it, even
    # where its tail factor has overflowed
    A = np.multiply(tables.ex2, tail, out=np.zeros_like(tail), where=tables.ex2 > 0.0)
    pi_edge = min(_E_MINUS_2, ch.pi_max)
    descend = A + ch.theta / (pi_edge * math.log(pi_edge) ** 2) < 0.0
    pi0 = stationary_success(A, ch)
    pair = np.stack([np.zeros_like(pi), np.where(np.isnan(pi0), ch.pi_max, pi0)], 1)
    cands = np.where(descend[:, None], pair, pi[:, None])
    with np.errstate(divide="ignore"):  # -theta/ln(0) = 0: no power
        deltas = ((cands - pi[:, None]) * A[:, None]
                  - ch.theta / np.log(cands) + ch.theta / np.log(pi)[:, None])
    return cands, deltas


class _Incumbent(NamedTuple):
    """A policy with its success vector, recursion tables and exact cost."""

    policy: np.ndarray
    pi: np.ndarray
    tables: RecursionTables
    cost: float


def _incumbent(
    sys: SystemParams, ch: ChannelParams, policy: np.ndarray, pi: np.ndarray,
    ex2_1: float,
) -> _Incumbent:
    """Tables of pi from one backward and one forward pass, and its cost."""
    tables = compute_tables(sys, ch, pi, ex2_1)
    return _Incumbent(policy, pi, tables, cost_from_moments(sys, ch, pi, tables.ex2))


def _step(
    sys: SystemParams,
    ch: ChannelParams,
    cfg: OptimizerConfig,
    ex2_1: float,
    inc: _Incumbent,
) -> _Incumbent | None:
    """The incumbent after the best single-coordinate replacement, if any.

    Scores every slot's candidates by their exact cost change against the
    incumbent's tables.  Ties among modifications go to the smallest slot
    index; None (a fixed point) unless the winner improves the cost by at
    least cfg.eps_cost relative.  Only the winning slot's power is written.
    """
    cands, deltas = slot_candidates(sys, ch, inc.tables, inc.pi)
    pick = np.argmin(deltas, axis=1)  # within a slot the first candidate wins ties
    slot_cost = inc.cost + deltas[np.arange(sys.T), pick]

    best_t, best_cost = 0, slot_cost[0]
    bar = best_cost - TIE_TOL * abs(best_cost)
    for t, cost in enumerate(slot_cost.tolist()):
        # a later slot displaces the running winner only when strictly
        # better beyond the tie tolerance
        if cost < bar:
            best_t, best_cost = t, cost
            bar = cost - TIE_TOL * abs(cost)
    if not best_cost < inc.cost - cfg.eps_cost * abs(inc.cost):
        return None
    policy, pi = inc.policy.copy(), inc.pi.copy()
    policy[best_t] = success_to_power(cands[best_t, pick[best_t]], ch)
    pi[best_t:best_t + 1] = policy_to_success(policy[best_t:best_t + 1], ch)
    return _incumbent(sys, ch, policy, pi, ex2_1)


def coordinate_sweep(
    sys: SystemParams,
    ch: ChannelParams,
    cfg: OptimizerConfig,
    policy: np.ndarray,
) -> tuple[np.ndarray, float]:
    """One outer iteration: best single-coordinate replacement of a policy.

    Computes the recursion tables under the incumbent, scores every slot's
    candidates by their exact cost change against the frozen tables, and
    adopts the single-coordinate modification with the lowest cost.  Ties
    among modifications go to the smallest slot index; the incumbent is kept
    unless the winner improves it by at least cfg.eps_cost relative, which
    makes a converged policy an exact fixed point of this function.  Only
    the adopted slot's power changes, and the returned cost is the exact
    cost of the returned policy.
    """
    policy = np.array(policy, dtype=float)
    ex2_1 = sys.sigma_x2 if cfg.ex2_1 is None else cfg.ex2_1
    inc = _incumbent(sys, ch, policy, policy_to_success(policy, ch), ex2_1)
    nxt = _step(sys, ch, cfg, ex2_1, inc)
    if nxt is not None:
        inc = nxt
    return inc.policy, inc.cost


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

    The incumbent's policy, success vector, tables and cost carry over from
    one iteration to the next, so an iteration runs one backward and one
    forward pass, for the policy it adopts.  The result equals a loop of
    :func:`coordinate_sweep` bit for bit.
    """
    k_max = max(200, 10 * sys.T) if cfg.k_max is None else cfg.k_max
    if cfg.init == "zero":
        policy = np.zeros(sys.T)
    else:
        policy = np.full(sys.T, ch.p_max)
        policy[-1] = 0.0
    ex2_1 = sys.sigma_x2 if cfg.ex2_1 is None else cfg.ex2_1
    pi = policy_to_success(policy, ch)
    history = [expected_cost(sys, ch, pi, ex2_1)]
    inc = _incumbent(sys, ch, policy, pi, ex2_1)
    converged = False
    iterations = 0
    for iterations in range(1, k_max + 1):
        nxt = _step(sys, ch, cfg, ex2_1, inc)
        converged = nxt is None
        if not converged:
            inc = nxt
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

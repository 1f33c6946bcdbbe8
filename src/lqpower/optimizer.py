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
descends monotonically.  This is the only descent rule; optimize_policies
runs it over many scenarios at once, and optimize_policy is its batch of one.
A batch holds one incumbent per scenario as a row of (S, W) float64 tables,
W the longest horizon: the policy, its pi and powers, its fbar and ex2
tables.  Each row keeps its scenario's own SystemParams and ChannelParams,
which derive their constants (a^2, c, r k^2, theta, pi_max) once, and
beside them its exact cost and cost history.  At the start the cost is
expected_cost's, and the row's tables take one backward and one forward
pass, checked as a move's are.  Each iteration scores all rows still
descending with one set of array operations; then each row adopts its own
move: writing slot t* reruns, in place on the row, the backward pass from
t* down to slot 0 and the forward pass from t* to T-1, T slot-steps
bit-equal to full tables, plus O(T) array work.  The moved slot's pi comes
from the same np.exp as policy_to_success and pi_max, so a move to the cap
stays within it.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.special import lambertw

from .model import (
    ChannelParams,
    RecursionTables,
    SystemParams,
    _as_python,
    _fill_tables,
    _float,
    _is_integer,
    _is_real,
    _power,
    _shown,
    _total_cost,
    _update_tables,
    _weights,
    expected_cost,
    policy_to_success,
    success_to_power,
)

__all__ = [
    "OptimizerConfig",
    "OptimizationTrace",
    "stationary_success",
    "slot_candidates",
    "optimize_policies",
    "optimize_policy",
]

# Relative cost threshold below which two candidate policies count as tied;
# ties go to the smallest slot index (and to the incumbent over any modification).
TIE_TOL = 1e-12

_E_MINUS_2 = float(np.exp(-2.0))
_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the outer improvement loop."""

    k_max: int | None = None  # maximum outer iterations; None -> max(200, 10 T)
    eps_cost: float = 1e-10   # relative improvement quantum; a sweep keeps
                              # the incumbent below it, which stops the loop
    ex2_1: float | None = None  # initial second moment E[x_1^2]; None -> sigma_x2
    init: str = "zero"        # starting policy: "zero" or "full"

    def __post_init__(self):
        if not (self.k_max is None or (_is_integer(self.k_max) and self.k_max >= 1)):
            raise ValueError(
                f"opt.k_max must be null or an integer >= 1 (got {_shown(self.k_max)})")
        if not (_is_real(self.eps_cost) and 0 < _float(self.eps_cost) < math.inf):
            raise ValueError(
                f"opt.eps_cost must be a finite number > 0 (got {_shown(self.eps_cost)!r})")
        if not (self.ex2_1 is None
                or _is_real(self.ex2_1) and 0 <= _float(self.ex2_1) < math.inf):
            raise ValueError(f"opt.ex2_1 must be null or a finite number >= 0 "
                             f"(got {_shown(self.ex2_1)!r})")
        if self.init not in ("zero", "full"):
            raise ValueError(f"opt.init must be 'zero' or 'full' (got {self.init!r})")
        _as_python(self)


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


def _root(A: np.ndarray, theta: np.ndarray, slope_e2, pi_max: np.ndarray) -> np.ndarray:
    """stationary_success over slopes A, with theta, theta e^2/4 and pi_max
    given per entry of A: the root in (e^-2, pi_max), NaN where there is none."""
    roots = np.full(A.shape, np.nan)
    # Lambert W's branch 0, only where the slope at e^-2 is negative
    neg = A + slope_e2 < 0.0
    pi0 = np.exp(2.0 * lambertw(-0.5 * np.sqrt(-theta[neg] / A[neg]), 0, 1e-8).real)
    roots[neg] = np.where(pi0 < pi_max[neg], pi0, np.nan)
    return roots


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
    roots = _root(A, np.full(A.shape, ch.theta), ch.theta * math.e**2 / 4.0,
                  np.full(A.shape, ch.pi_max))
    if roots.ndim:
        return roots
    return None if math.isnan(roots) else float(roots)


def _constants(scenarios, W: int) -> tuple[np.ndarray, ...]:
    """The scorer's per-scenario constants: r k^2, c = b^2 k^2 + 2abk and the
    power's slope theta/(pi' ln^2 pi') at pi' = min(e^-2, pi_max) as (S, 1)
    columns; theta, its slope theta e^2/4 at e^-2 exactly and pi_max as
    (S, W) tables, for the entries a mask picks."""
    rows = []
    for sys, ch in scenarios:
        _, c, _, rk2, _ = sys._coeffs
        theta, pi_max = ch.theta, ch.pi_max
        pi_edge = min(_E_MINUS_2, pi_max)
        rows.append((rk2, c, theta / (pi_edge * math.log(pi_edge) ** 2),
                     theta, theta * math.e**2 / 4.0, pi_max))
    columns = np.array(rows).reshape(-1, 6).T[:, :, None]  # six (S, 1), even at S = 0
    return (*columns[:3], *(np.repeat(col, W, axis=1) for col in columns[3:]))


def _candidates(consts, fbar, ex2, pi, power) -> tuple[np.ndarray, ...]:
    """Second candidate v of every slot of (S, W) tables, 0 where it does not
    descend, and the exact cost changes d0, d1 of moving the slot alone to 0
    and to v."""
    rk2, c, slope_edge, theta, slope_e2, pi_max = consts
    tail = rk2 + c * fbar[:, 1:]
    # a slot whose state is 0 almost surely moves no cost through it, even
    # where its tail factor has overflowed
    A = np.multiply(ex2, tail, out=np.zeros_like(tail), where=ex2 > 0.0)
    # a slope past the largest float ranks its moves first or last, and
    # staying put still changes nothing (0 times an infinite A is nan); the
    # cost of a move taken is recomputed exactly
    np.minimum(np.maximum(A, -_MAX, out=A), _MAX, out=A)
    down = A + slope_edge < 0.0
    d0 = 0.0 - pi * A - power  # +0.0, not -0.0, at a silent slot
    v, d1 = np.zeros_like(A), d0.copy()
    A_down, theta, pi_max = A[down], theta[down], pi_max[down]
    v[down] = v_down = np.fmin(_root(A_down, theta, slope_e2[down], pi_max), pi_max)
    d1[down] = (v_down - pi[down]) * A_down - theta / np.log(v_down) - power[down]
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
    [v], [d0], [d1] = _candidates(_constants([(sys, ch)], len(pi)), tables.fbar[None],
                                  tables.ex2[None], pi[None], _power(pi, ch)[None])
    return np.stack([np.zeros_like(pi), v], 1), np.stack([d0, d1], 1)


class _Row:
    """Row i of a _Batch: its scenario's own sys and ch, which hold its
    constants, its own slots of the tables, as views, its cost history and
    its k_max; once the start has set pi, also the cost weights
    q + r k^2 pi_t of its slots, which a move keeps current."""

    __slots__ = ("sys", "ch", "policy", "pi", "power", "fbar", "ex2", "weight",
                 "history", "k_max")

    def __init__(self, batch: _Batch, i: int, sys: SystemParams, ch: ChannelParams,
                 k_max: int):
        T = sys.T
        self.sys, self.ch, self.history, self.k_max = sys, ch, [], k_max
        self.policy, self.pi, self.power = (
            batch.policy[i, :T], batch.pi[i, :T], batch.power[i, :T])
        self.fbar, self.ex2 = batch.fbar[i, :T + 1], batch.ex2[i, :T]

    def trace(self, converged: bool) -> OptimizationTrace:
        return OptimizationTrace(policy=self.policy.copy(), success=self.pi.copy(),
                                 cost_history=np.asarray(self.history),
                                 iterations=len(self.history) - 1, converged=converged)


class _Batch:
    """The incumbents of S scenarios, one row each of (S, W) tables.

    W is the longest horizon.  Row i's scenario, scenarios[i] = (sys, ch),
    owns the first T slots of its row (fbar: T + 1 entries); rows[i] holds
    them as views beside sys, ch, the cost history and the k_max, and
    cost[i] holds the row's exact cost.  The scorer reads the constants of
    every row as columns, consts, taken from sys and ch once.  Slots past a
    row's T, and every slot of a row that has left, hold ex2 = fbar = 0 and
    power -inf: A is 0 there, so they never descend, and
    d0 = 0 - pi A - power = +inf keeps them out of the scan.  outcomes[i] is
    row i's trace once it has left at a fixed point or at its k_max, or the
    ValueError it raised; None while it descends.
    """

    def __init__(self, scenarios, policies, cfg: OptimizerConfig):
        S, W = len(scenarios), max((sys.T for sys, _ in scenarios), default=0)
        self.eps_cost = cfg.eps_cost
        self.consts = _constants(scenarios, W)
        self.policy, self.pi, self.ex2 = np.zeros((S, W)), np.zeros((S, W)), np.zeros((S, W))
        self.power, self.fbar = np.full((S, W), -np.inf), np.zeros((S, W + 1))
        self.cost = np.zeros((S, 1))
        self.outcomes: list[OptimizationTrace | ValueError | None] = [None] * S
        self.rows, self.active = [], []
        for i, ((sys, ch), policy) in enumerate(zip(scenarios, policies)):
            k_max = max(200, 10 * sys.T) if cfg.k_max is None else cfg.k_max
            row = _Row(self, i, sys, ch, k_max)
            self.rows.append(row)
            ex2_1 = sys.sigma_x2 if cfg.ex2_1 is None else cfg.ex2_1
            try:
                pi = policy_to_success(policy, ch)
                cost = expected_cost(sys, ch, pi, ex2_1)  # moments checked before tails
                row.pi[:], row.ex2[0] = pi, ex2_1
                _fill_tables(sys, row.pi, row.fbar, row.ex2)
            except ValueError as exc:
                self._leave(i, exc)
                continue
            row.policy[:], row.power[:] = policy, _power(pi, ch)
            row.weight = _weights(sys, pi)
            self.cost[i] = cost
            row.history.append(cost)
            self.active.append(i)

    def _leave(self, i: int, outcome) -> None:
        """Row i leaves with its outcome; its tables stop taking part."""
        self.outcomes[i] = outcome
        self.fbar[i], self.ex2[i], self.power[i] = 0.0, 0.0, -np.inf

    def step(self) -> None:
        """Move every active row by its best single-coordinate replacement, if any.

        Scores every slot's candidates by their exact cost change against
        its row's tables, all rows at once.  Ties among a row's modifications
        go to the smallest slot index; a row leaves, converged, at a fixed
        point, where its winner does not improve its cost by at least
        cfg.eps_cost relative.  Otherwise only the winning slot t is written and
        checked, and the row's tables rerun from it in place, T slot-steps
        in all; a row leaves unconverged at its k_max.  Run this under
        np.errstate(over="ignore", invalid="ignore"): _candidates ranks a
        slope that overflows, and a table or cost that does raises.
        """
        v, d0, d1 = _candidates(self.consts, self.fbar, self.ex2, self.pi, self.power)
        slot_cost = self.cost + np.minimum(d0, d1)
        # a later slot displaces the running winner only when strictly better
        # beyond the tie tolerance, so only a strict prefix minimum can
        rows, later = np.nonzero(
            slot_cost[:, 1:] < np.fmin.accumulate(slot_cost, axis=1)[:, :-1])
        later += 1
        later_cost = slot_cost[rows, later].tolist()
        rows, later, first = rows.tolist(), later.tolist(), slot_cost[:, 0].tolist()
        j, n, active = 0, len(rows), []
        for i in self.active:
            t, best_cost = 0, first[i]
            bar = best_cost - TIE_TOL * abs(best_cost)
            while j < n and rows[j] == i:
                if later_cost[j] < bar:
                    t, best_cost = later[j], later_cost[j]
                    bar = best_cost - TIE_TOL * abs(best_cost)
                j += 1
            row = self.rows[i]
            history = row.history
            cost = history[-1]
            if not best_cost < cost - self.eps_cost * abs(cost):
                history.append(cost)
                self._leave(i, row.trace(True))
                continue
            sys, ch, pi = row.sys, row.ch, row.pi
            p = success_to_power(float(v[i, t]) if d1[i, t] < d0[i, t] else 0.0, ch)
            # policy_to_success's np.exp, as pi_max's: p <= p_max keeps pi <= pi_max
            pi_t = np.exp(-ch.theta / p) if p > 0 else 0.0
            _, _, q, rk2, _ = sys._coeffs
            row.policy[t], pi[t], row.weight[t] = p, pi_t, q + rk2 * pi_t
            row.power[t] = -ch.theta / np.log(pi_t) if pi_t > 0 else 0.0
            try:
                _update_tables(sys, pi, row.fbar, row.ex2, t)
                cost = _total_cost(row.weight, row.ex2, pi, row.power)
            except ValueError as exc:
                self._leave(i, exc)
                continue
            history.append(cost)
            self.cost[i, 0] = cost
            if len(history) > row.k_max:
                self._leave(i, row.trace(False))
            else:
                active.append(i)
        self.active = active


def _delivered(outcomes):
    """The traces in order, warning for each that stopped at its k_max, up to
    the first ValueError, which is raised."""
    for outcome in outcomes:
        if isinstance(outcome, ValueError):
            raise outcome
        if not outcome.converged:  # it stopped at k_max = its iterations
            warnings.warn(
                f"optimizer stopped after {outcome.iterations} iterations at "
                f"k_max = {outcome.iterations} without reaching a fixed point "
                f"(T = {len(outcome.policy)})",
                RuntimeWarning, stacklevel=2)
        yield outcome


def optimize_policies(
    scenarios: Iterable[tuple[SystemParams, ChannelParams]], cfg: OptimizerConfig
) -> Iterator[OptimizationTrace]:
    """Run the full iterative improvement of many scenarios as one batch.

    scenarios holds (sys, ch) pairs.  Every scenario runs optimize_policy's
    descent, bit for bit, but each iteration scores the candidates of all
    scenarios still descending in one set of array operations.  The whole
    batch runs before this returns; the iterator then yields the traces in
    input order, emits a scenario's k_max warning as it yields its trace,
    and raises the ValueError of the first scenario (in input order) whose
    moments, tail factors or cost overflowed when it reaches it, as
    optimize_policy called on each scenario in turn would.
    """
    scenarios = list(scenarios)
    policies = []
    for sys, ch in scenarios:
        policy = np.zeros(sys.T) if cfg.init == "zero" else np.full(sys.T, ch.p_max)
        policy[-1] = 0.0
        policies.append(policy)
    batch = _Batch(scenarios, policies, cfg)
    with np.errstate(over="ignore", invalid="ignore"):  # see _Batch.step
        while batch.active:
            batch.step()
    return _delivered(batch.outcomes)


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
    its cost by cfg.eps_cost relative, whichever start the run took.  This
    is optimize_policies over one scenario.
    """
    [trace] = optimize_policies([(sys, ch)], cfg)
    return trace

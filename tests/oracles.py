"""Independent test-side oracles and random scenario generators.

The direct sum/product transcriptions here deliberately use naive 1-based
triple loops so they share no code path with the library's recursions.  The
analytic cost slope and the exhaustive 2^T enumeration of erasure patterns
check the library's cost and tables from other sides.  `coordinate_sweep`
runs one iteration of the library's descent from any policy, so tests can
step it and check its fixed points.  The Monte Carlo references generate the
whole block of 2T + 1 draws of every replication up front and roll it out
slot by slot, one replication at a time or in chunks, as the library once
did.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

import lqpower.simulator
from lqpower import (
    ChannelParams,
    OptimizerConfig,
    RecursionTables,
    SimConfig,
    SimReport,
    SystemParams,
    compute_tables,
    expected_cost,
    policy_to_success,
    success_to_power,
)
from lqpower.model import _checked, _power
from lqpower.optimizer import TIE_TOL, _incumbent, _step

# Largest horizon accepted by the enumeration oracle (2**T erasure patterns).
MAX_ENUMERATION_HORIZON = 14


def _pad(pi):
    """1-based view: pi1[t] = pi_t for t = 1..T."""
    return np.concatenate([[np.nan], np.asarray(pi, dtype=float)])


def fbar_direct(sys: SystemParams, pi, s: int) -> float:
    """Tail factor for 0-based slot s as an explicit sum of products."""
    T = sys.T
    q, rk2, c, a2 = sys.q, sys.r * sys.k**2, sys.closed_loop_coeff, sys.a**2
    pi1 = _pad(pi)
    t = s + 1
    total = q + rk2 * pi1[t]
    for ell in range(t + 1, T + 1):
        prod = 1.0
        for i in range(t, ell):
            prod *= a2 + c * pi1[i]
        total += (q + rk2 * pi1[ell]) * prod
    return total


def fs_direct(sys: SystemParams, pi, s: int) -> float:
    """Perturbation tail factor for 0-based slot s as an explicit triple sum."""
    T = sys.T
    q, rk2, c, a2 = sys.q, sys.r * sys.k**2, sys.closed_loop_coeff, sys.a**2
    pi1 = _pad(pi)
    t = s  # the tail covers 1-based slots t+1 .. T
    total = 0.0
    for ell in range(t + 1, T + 1):
        inner = 0.0
        for i in range(t, ell):
            prod = 1.0
            for r in range(i + 1, ell):
                prod *= a2 + c * pi1[r]
            inner += prod
        total += (q + rk2 * pi1[ell]) * inner
    return total


def cost_direct(sys: SystemParams, ch: ChannelParams, pi, ex2_1=None) -> float:
    """Expected cost as the explicit three-part sum plus transmit energy."""
    T = sys.T
    q, rk2, c, a2 = sys.q, sys.r * sys.k**2, sys.closed_loop_coeff, sys.a**2
    pi1 = _pad(pi)
    m0 = sys.sigma_x2 if ex2_1 is None else ex2_1
    total = m0 * (q + rk2 * pi1[1])
    for t in range(2, T + 1):
        prod = 1.0
        for i in range(1, t):
            prod *= a2 + c * pi1[i]
        total += m0 * (q + rk2 * pi1[t]) * prod
    for t in range(2, T + 1):
        inner = 0.0
        for i in range(1, t):
            prod = 1.0
            for r in range(i + 1, t):
                prod *= a2 + c * pi1[r]
            inner += prod
        total += sys.sigma_d2 * (q + rk2 * pi1[t]) * inner
    for t in range(1, T + 1):
        if pi1[t] > 0:
            total += -ch.theta / np.log(pi1[t])
    return total


def reference_tables(sys: SystemParams, pi, ex2_1: float):
    """(fbar, fs, ex2) by the recursions written over numpy scalars.

    Indexes numpy arrays element by element, as the library's backward and
    forward passes once did; those passes now run over Python floats and
    must return the same bits.
    """
    pi = np.asarray(pi, dtype=float)
    T = len(pi)
    c = sys.closed_loop_coeff
    rk2 = sys.r * sys.k**2
    fbar = np.zeros(T + 1)
    fs = np.zeros(T + 1)
    for t in range(T - 1, -1, -1):
        fbar[t] = (sys.q + rk2 * pi[t]) + (sys.a**2 + c * pi[t]) * fbar[t + 1]
        fs[t] = fbar[t] + fs[t + 1]
    ex2 = np.empty(T)
    ex2[0] = ex2_1
    for t in range(T - 1):
        ex2[t + 1] = (sys.a**2 + c * pi[t]) * ex2[t] + sys.sigma_d2
    return fbar, fs, ex2


def fd_slope(sys, ch, pi, t, ex2_1=None, h=1e-6) -> float:
    """Central finite difference of the expected cost in slot t's probability."""
    hi = np.array(pi, dtype=float)
    lo = np.array(pi, dtype=float)
    hi[t] += h
    lo[t] -= h
    return (expected_cost(sys, ch, hi, ex2_1)
            - expected_cost(sys, ch, lo, ex2_1)) / (2.0 * h)


def random_system(rng, t_min=1, t_max=10) -> SystemParams:
    return SystemParams(
        a=rng.uniform(0.6, 1.3),
        b=rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5),
        k=rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0),
        q=rng.uniform(0.2, 3.0),
        r=rng.uniform(0.05, 2.0),
        sigma_x2=rng.uniform(0.1, 2.0),
        sigma_d2=0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.5),
        T=int(rng.integers(t_min, t_max + 1)),
    )


def random_channel(rng, min_pi_max=0.0) -> ChannelParams:
    while True:
        ch = ChannelParams(
            gamma=rng.uniform(0.3, 3.0),
            sigma2=rng.uniform(0.3, 3.0),
            gbar=rng.uniform(0.3, 3.0),
            p_max=rng.uniform(0.5, 5.0),
        )
        if ch.pi_max >= min_pi_max:
            return ch


def random_success(rng, ch, T, zero_frac=0.3) -> np.ndarray:
    pi = rng.uniform(0.0, ch.pi_max, T)
    pi[rng.random(T) < zero_frac] = 0.0
    return pi


def interior_success(rng, ch, T) -> np.ndarray:
    """Success vector bounded away from 0, 1 and the cap (for FD checks)."""
    lo = max(0.03, 0.05 * ch.pi_max)
    return rng.uniform(lo, 0.97 * ch.pi_max, T)


def reference_candidates(sys, ch, tables, t, pi_t) -> tuple[float, ...]:
    """Candidate set of slot t, its stationary point by bisection.

    Silence alone where the slope is nonnegative over the whole range.
    """
    A = tables.ex2[t] * (
        sys.r * sys.k**2 + sys.closed_loop_coeff * tables.fbar[t + 1])

    def slope(p):
        return A + ch.theta / (p * math.log(p) ** 2)

    lo, hi = math.exp(-2.0), ch.pi_max
    if slope(min(lo, hi)) >= 0.0:
        return (0.0,)
    if hi <= lo or slope(hi) <= 0.0:
        return (0.0, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return (0.0, 0.5 * (lo + hi))


def single_slot_costs(sys: SystemParams, ch: ChannelParams, pi, ex2_1, grid):
    """Exact cost of every single-slot move of pi onto a grid of values.

    Entry (t, i) is the expected cost of pi with slot t alone set to
    grid[i].  The forward second-moment recursion runs over all T x len(grid)
    trial vectors at once, one numpy row each.
    """
    pi = np.asarray(pi, dtype=float)
    grid = np.asarray(grid, dtype=float)
    T = len(pi)
    trials = np.repeat(pi[None, None, :], T, axis=0).repeat(len(grid), axis=1)
    trials[np.arange(T), :, np.arange(T)] = grid
    rk2, c, a2 = sys.r * sys.k**2, sys.closed_loop_coeff, sys.a**2
    moment = np.full(trials.shape[:2], float(ex2_1))
    cost = np.zeros(trials.shape[:2])
    for t in range(T):
        p = trials[:, :, t]
        cost += (sys.q + rk2 * p) * moment
        moment = (a2 + c * p) * moment + sys.sigma_d2
    with np.errstate(divide="ignore"):  # -theta/ln(0) = 0: no power
        energy = -ch.theta / np.log(trials)
    return cost + energy.sum(axis=2)


def reference_sweep(
    sys: SystemParams, ch: ChannelParams, cfg: OptimizerConfig, policy
) -> tuple[np.ndarray, float]:
    """One outer iteration by full re-evaluation of every candidate.

    The O(T^2) reference for the library's coordinate sweep: every
    single-slot replacement is scored by a full expected_cost, with the same
    tie rule (the first candidate of a slot, the smallest slot and the
    incumbent win ties) and the same cfg.eps_cost stop.
    """
    pi = policy_to_success(policy, ch)
    ex2_1 = sys.sigma_x2 if cfg.ex2_1 is None else cfg.ex2_1
    tables = compute_tables(sys, ch, pi, ex2_1)
    incumbent_cost = expected_cost(sys, ch, pi, ex2_1)

    best_t, best_v, best_cost = None, None, math.inf
    for t in range(sys.T):
        slot_v, slot_cost = None, math.inf
        for v in reference_candidates(sys, ch, tables, t, pi[t]):
            if v == pi[t]:
                trial_cost = incumbent_cost
            else:
                trial = pi.copy()
                trial[t] = v
                trial_cost = expected_cost(sys, ch, trial, ex2_1)
            if trial_cost < slot_cost:
                slot_v, slot_cost = v, trial_cost
        if best_t is None or slot_cost < best_cost - TIE_TOL * abs(best_cost):
            best_t, best_v, best_cost = t, slot_v, slot_cost
    if best_cost < incumbent_cost - cfg.eps_cost * abs(incumbent_cost):
        new_policy = np.array(policy, dtype=float)
        new_policy[best_t] = success_to_power(best_v, ch)
        return new_policy, best_cost
    return np.array(policy, dtype=float), incumbent_cost


def coordinate_sweep(
    sys: SystemParams,
    ch: ChannelParams,
    cfg: OptimizerConfig,
    policy: np.ndarray,
) -> tuple[np.ndarray, float]:
    """One iteration of the library's descent, started from any policy.

    Builds the incumbent's tables and cost, then takes one step of
    optimize_policy's loop: the best single-coordinate replacement, or the
    incumbent itself at a fixed point.  Returns the policy and its exact
    cost; a converged policy comes back unchanged.
    """
    policy = np.array(policy, dtype=float)
    ex2_1 = sys.sigma_x2 if cfg.ex2_1 is None else cfg.ex2_1
    inc = _incumbent(sys, ch, policy, ex2_1)
    _step(sys, ch, cfg, inc)
    return inc.policy, inc.cost


def cost_slope(
    sys: SystemParams,
    ch: ChannelParams,
    tables: RecursionTables,
    t: int,
    pi_t: float,
) -> float:
    """Partial derivative of the expected cost in slot t's success probability.

    Returns ex2[t] * (r k^2 + (2abk + b^2 k^2) fbar[t+1]) + theta/(pi_t ln^2 pi_t)
    for 0-based slot t, using the sentinel fbar[T] = 0 at the terminal slot.
    The tables must have been computed for the success vector being perturbed.
    Undefined at pi_t in {0, 1} (logarithm singularity).
    """
    if tables.ex2 is None:
        raise ValueError("tables.ex2 missing: run the forward pass first")
    T = len(tables.ex2)
    if not 0 <= t < T:
        raise ValueError(f"slot index must lie in [0, {T - 1}] (got {t})")
    if not 0.0 < pi_t < 1.0:
        raise ValueError(
            f"slope undefined at pi_t = {pi_t}: needs 0 < pi_t < 1")
    tail = sys.r * sys.k**2 + sys.closed_loop_coeff * tables.fbar[t + 1]
    log_pi = math.log(pi_t)
    return tables.ex2[t] * tail + ch.theta / (pi_t * log_pi**2)


# ----------------------------------------------------------------------------
# Enumeration oracle
# ----------------------------------------------------------------------------

def expected_cost_enumerated(
    sys: SystemParams,
    ch: ChannelParams,
    pi: np.ndarray,
    ex2_1: float | None = None,
) -> float:
    """Expected cost by exhaustive enumeration of all 2^T erasure patterns.

    Independent oracle for :func:`expected_cost`: every z in {0,1}^T is
    weighted by prod_t pi_t^z_t (1-pi_t)^(1-z_t), and the conditional
    expectation over the Gaussian initial state and perturbations is taken
    exactly by propagating second moments through the closed-loop gains
    (a + b k z_t).  Refuses horizons above MAX_ENUMERATION_HORIZON.
    """
    pi = np.asarray(pi, dtype=float)
    _checked(pi, "success", ch)
    if len(pi) != sys.T:
        raise ValueError(f"success vector has length {len(pi)}, expected T = {sys.T}")
    T = sys.T
    if T > MAX_ENUMERATION_HORIZON:
        raise ValueError(
            f"enumeration limited to T <= {MAX_ENUMERATION_HORIZON} (got T = {T})")
    m0 = sys.sigma_x2 if ex2_1 is None else ex2_1
    if m0 < 0:
        raise ValueError(f"ex2_1 must be >= 0 (got {m0})")

    # z[s, t] = bit t of pattern s
    patterns = np.arange(2**T, dtype=np.uint32)
    z = (patterns[:, None] >> np.arange(T, dtype=np.uint32)[None, :]) & 1

    weights = np.prod(np.where(z == 1, pi[None, :], 1.0 - pi[None, :]), axis=1)
    rk2 = sys.r * sys.k**2
    moment = np.full(2**T, float(m0))
    cond_cost = np.zeros(2**T)
    for t in range(T):
        zt = z[:, t]
        cond_cost += (sys.q + rk2 * zt) * moment
        moment = (sys.a + sys.b * sys.k * zt) ** 2 * moment + sys.sigma_d2
    return float(np.dot(weights, cond_cost)) + float(_power(pi, ch)[pi > 0].sum())


# ----------------------------------------------------------------------------
# Monte Carlo references: whole blocks of draws
# ----------------------------------------------------------------------------

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)   # SplitMix64 stream increment
_WEYL = _U64(0xD1342543DE82EF95)     # odd per-draw increment within a stream
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_U53_SCALE = 1.0 / (1 << 53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: bijective 64-bit avalanche mix."""
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _stream_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """Well-mixed 64-bit key of each replication stream."""
    s = _U64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        return _mix64(s + (indices.astype(_U64) + _U64(1)) * _GOLDEN)


def _uniform_block(
    seed: int, start: int, stop: int, n_draws: int, first_draw: int = 0
) -> np.ndarray:
    """Uniforms in (0, 1) for replications start..stop-1, n_draws each.

    Row i - start holds draws j = first_draw..first_draw+n_draws-1 of
    replication i; entry (i, j) depends only on (seed, i, j).
    """
    keys = _stream_keys(seed, np.arange(start, stop, dtype=np.int64))
    ctr = (np.arange(first_draw, first_draw + n_draws, dtype=np.int64).astype(_U64)
           + _U64(1)) * _WEYL
    with np.errstate(over="ignore"):
        bits = _mix64(keys[:, None] + ctr[None, :])
    return (bits >> _U64(11)).astype(np.float64) * _U53_SCALE + 2.0**-54


class ReplicationStream:
    """Random stream of one replication: draw j depends only on (seed, index, j)."""

    def __init__(self, seed: int, index: int):
        self.seed = int(seed)
        self.index = int(index)
        self._pos = 0

    def uniform(self, size: int) -> np.ndarray:
        """Next `size` uniforms in (0, 1)."""
        u = _uniform_block(self.seed, self.index, self.index + 1, size,
                           first_draw=self._pos)[0]
        self._pos += size
        return u


def _erasures(
    u: np.ndarray, p_t: float, pi_t: float, ch: ChannelParams, channel_model: str
) -> np.ndarray:
    """Reception indicators from the slot's channel uniforms."""
    if channel_model == "bernoulli":
        return u < pi_t
    g = -ch.gbar * np.log(u)  # exponential gain, mean gbar
    return g * p_t / ch.sigma2 >= ch.gamma


def simulate_replication(
    sys: SystemParams,
    ch: ChannelParams,
    policy: np.ndarray,
    stream: ReplicationStream,
    sim: SimConfig | None = None,
    record: bool = False,
):
    """Roll out one closed-loop replication; returns its realized cost.

    Consumes exactly 2T + 1 uniforms from `stream` in a fixed schedule
    (initial state, T channel draws, T perturbation draws) regardless of
    configuration, so replication layouts agree across channel models.  With
    record=True also returns a dict of the x, z, u trajectories.
    """
    if sim is None:
        sim = SimConfig()
    p = np.asarray(policy, dtype=float)
    _checked(p, "policy", ch)
    T = sys.T
    if len(p) != T:
        raise ValueError(f"policy has length {len(p)}, expected T = {T}")
    pi = policy_to_success(p, ch)

    u = stream.uniform(2 * T + 1)
    if sim.initial_state == "fixed":
        x = sim.x1
    else:
        x = math.sqrt(sys.sigma_x2) * float(ndtri(u[0]))
    sigma_d = math.sqrt(sys.sigma_d2)
    rk2 = sys.r * sys.k**2

    cost = 0.0
    traj_x, traj_z, traj_u = [], [], []
    for t in range(T):
        z = bool(_erasures(u[1 + t], p[t], pi[t], ch, sim.channel_model))
        xz = x if z else 0.0
        cost += sys.q * x * x + rk2 * xz * xz + p[t]
        if record:
            traj_x.append(x)
            traj_z.append(z)
            traj_u.append(sys.k * xz)
        d = sigma_d * float(ndtri(u[1 + T + t])) if sigma_d > 0 else 0.0
        x = sys.a * x + sys.b * sys.k * xz + d
    if record:
        return cost, {
            "x": np.asarray(traj_x),
            "z": np.asarray(traj_z),
            "u": np.asarray(traj_u),
        }
    return cost


def reference_monte_carlo(
    sys: SystemParams,
    ch: ChannelParams,
    policy: np.ndarray,
    sim: SimConfig,
    return_samples: bool = False,
) -> SimReport:
    """Average `sim.n_samples` independent replications of a policy.

    The library's Monte Carlo as it was before it drew columns on demand:
    each chunk of replications builds its whole (n x 2T+1) block of draws
    and reads it column by column.  The chunk size is the library's.
    """
    p = np.asarray(policy, dtype=float)
    _checked(p, "policy", ch)
    T = sys.T
    if len(p) != T:
        raise ValueError(f"policy has length {len(p)}, expected T = {T}")
    pi = policy_to_success(p, ch)
    n = sim.n_samples
    sigma_d = math.sqrt(sys.sigma_d2)
    sigma_x = math.sqrt(sys.sigma_x2)
    rk2 = sys.r * sys.k**2
    chunk = lqpower.simulator._CHUNK

    count = 0
    mean = 0.0
    m2 = 0.0
    state_sum = np.zeros(T)
    input_sum = np.zeros(T)
    all_samples = [] if return_samples else None

    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        u = _uniform_block(sim.seed, lo, hi, 2 * T + 1)
        if sim.initial_state == "fixed":
            x = np.full(hi - lo, float(sim.x1))
        else:
            x = sigma_x * ndtri(u[:, 0])
        cost = np.zeros(hi - lo)
        for t in range(T):
            z = _erasures(u[:, 1 + t], p[t], pi[t], ch, sim.channel_model)
            xz = np.where(z, x, 0.0)
            state = sys.q * x * x
            inp = rk2 * xz * xz
            cost += state + inp + p[t]
            state_sum[t] += state.sum()
            input_sum[t] += inp.sum()
            d = sigma_d * ndtri(u[:, 1 + T + t]) if sigma_d > 0 else 0.0
            x = sys.a * x + sys.b * sys.k * xz + d

        # merge the chunk into the running moments (parallel combination)
        c_n = hi - lo
        c_mean = float(cost.mean())
        c_m2 = float(np.sum((cost - c_mean) ** 2))
        delta = c_mean - mean
        total = count + c_n
        mean += delta * c_n / total
        m2 += c_m2 + delta**2 * count * c_n / total
        count = total
        if return_samples:
            all_samples.append(cost)

    if count > 1:
        std_err = math.sqrt(m2 / (count - 1)) / math.sqrt(count)
        std_err_valid = True
    else:
        std_err = 0.0
        std_err_valid = False
    per_slot = np.column_stack([state_sum / count, input_sum / count, p])
    return SimReport(
        mean_cost=mean,
        std_err=std_err,
        per_slot=per_slot,
        n_samples=count,
        std_err_valid=std_err_valid,
        samples=np.concatenate(all_samples) if return_samples else None,
    )

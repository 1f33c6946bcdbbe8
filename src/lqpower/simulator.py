"""Seedable Monte Carlo rollout of the closed loop under a power policy.

Each replication draws an initial state, walks x[t+1] = a x[t] + b u[t] + d[t]
with u[t] = k x[t] z[t], and accumulates q x^2 + r u^2 + p per slot.  The
erasure indicator z[t] comes from one of two interchangeable channel models:
a direct Bernoulli draw with the success probability implied by the slot
power, or an explicit exponential channel gain compared against the SNR
threshold.  Both realize the same success law.

Randomness is counter-based: draw j of replication i is a pure function of
(seed, i, j), produced by a SplitMix64-style mixer and mapped through exact
inverse CDFs.  Replications therefore depend only on their own index, never
on execution order, batch size, or thread assignment.  The rollout runs a
chunk of replications at once and makes each column of draws (draw j of
every replication in the chunk) when a slot reads it, and only the columns
that are read; the perturbation of the last slot only moves the state past
the horizon and is never drawn.  Several policies compared with common
random numbers share one rollout and one set of draws: each column is made
once per chunk and every policy advances its own state over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .model import ChannelParams, SystemParams, policy_to_success

__all__ = [
    "SimConfig",
    "SimReport",
    "monte_carlo_cost",
    "monte_carlo_costs",
    "baseline_policy",
]

_CHANNEL_MODELS = ("bernoulli", "gain_threshold")
_INITIAL_STATES = ("gaussian", "fixed")

_CHUNK = 1 << 15

_U64 = np.uint64
_U64_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = _U64(0x9E3779B97F4A7C15)   # SplitMix64 stream increment
_WEYL_INT = 0xD1342543DE82EF95       # odd per-draw increment within a stream
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_U53_SCALE = 1.0 / (1 << 53)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run configuration."""

    n_samples: int = 10000
    seed: int = 0
    channel_model: str = "bernoulli"    # or "gain_threshold"
    initial_state: str = "gaussian"     # x1 ~ N(0, sigma_x2), or "fixed"
    x1: float = 1.0                     # initial state when fixed

    def __post_init__(self):
        if not (isinstance(self.n_samples, (int, np.integer)) and self.n_samples >= 1):
            raise ValueError(
                f"sim.n_samples must be an integer >= 1 (got {self.n_samples})")
        if self.channel_model not in _CHANNEL_MODELS:
            raise ValueError(
                f"sim.channel_model must be one of {_CHANNEL_MODELS} "
                f"(got {self.channel_model!r})")
        if self.initial_state not in _INITIAL_STATES:
            raise ValueError(
                f"sim.initial_state must be one of {_INITIAL_STATES} "
                f"(got {self.initial_state!r})")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"sim.seed must be an integer (got {self.seed!r})")
        if not math.isfinite(self.x1):
            raise ValueError(f"sim.x1 must be finite (got {self.x1})")


@dataclass
class SimReport:
    """Aggregated Monte Carlo cost statistics for one policy.

    per_slot has one row per slot with columns (mean q x_t^2, mean r u_t^2,
    p_t); mean_cost equals the grand total of per_slot up to rounding.
    std_err is the standard error of mean_cost; with a single replication it
    is undefined and reported as 0.0 with std_err_valid = False.
    """

    mean_cost: float
    std_err: float
    per_slot: np.ndarray
    n_samples: int
    std_err_valid: bool = True
    samples: np.ndarray | None = None


# ----------------------------------------------------------------------------
# Counter-based random streams
# ----------------------------------------------------------------------------

def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place: bijective 64-bit avalanche mix."""
    z ^= z >> _U64(30)
    z *= _MIX1
    z ^= z >> _U64(27)
    z *= _MIX2
    z ^= z >> _U64(31)
    return z


def _stream_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """Well-mixed 64-bit key of each replication stream."""
    s = _U64(int(seed) & _U64_MASK)
    return _mix64(s + (indices.astype(_U64) + _U64(1)) * _GOLDEN)


def _uniform_column(keys: np.ndarray, j: int) -> np.ndarray:
    """Draw j of every stream in `keys`: one uniform in (0, 1) per replication.

    The bits are mix64(key + (j + 1) WEYL); their top 53 are scaled into
    (0, 1), so the draw depends only on (seed, i, j).
    """
    z = _mix64(keys + _U64((j + 1) * _WEYL_INT & _U64_MASK))
    z >>= _U64(11)
    u = z.astype(np.float64)
    u *= _U53_SCALE
    u += 2.0**-54
    return u


# ----------------------------------------------------------------------------
# Rollout
# ----------------------------------------------------------------------------

def monte_carlo_costs(
    sys: SystemParams,
    ch: ChannelParams,
    policies,
    sim: SimConfig,
    return_samples: bool = False,
) -> list[SimReport]:
    """Average `sim.n_samples` replications of each policy over common draws.

    All policies share one rollout and one set of draws: per chunk, each
    column is made once, and only if some policy reads it, and every policy
    advances its own state over it.  Each report is bit for bit the one the
    policy gets alone, since a policy's arithmetic does not depend on the
    others.  Replication i reads draw j of its stream (seed, i) in a fixed
    layout: j = 0 is the initial state, j = 1..T the channels of slots 1..T
    and j = T+1..2T their perturbations.  A draw that is not read is skipped,
    never shifted onto another: a fixed initial state, sigma_d2 = 0, a slot
    in which no policy sends, and the last perturbation, which only moves
    the state past the horizon.  So each replication's cost depends only on
    (seed, i), not on n_samples or the chunking.  Replications run in
    chunks whose moments are merged by the parallel mean/variance
    combination; that merge rounds differently for other chunk sizes, so
    mean_cost and std_err depend on the chunk size in their last bits.

    Raises ValueError naming T and the policy's index when a policy's mean
    cost, its standard error or a per-slot mean is not finite (a state or a
    cost overflowed).
    """
    T = sys.T
    ps, pis = [], []
    for i, policy in enumerate(policies):
        p = np.asarray(policy, dtype=float)
        pi = policy_to_success(p, ch)  # validates p
        if len(p) != T:
            raise ValueError(
                f"policy {i} has length {len(p)}, expected T = {T}")
        ps.append(p)
        pis.append(pi)
    m = len(ps)
    # pi_t = 0 receives nothing on either channel model (a gain-threshold
    # reception would need -ln u >= theta/p_t > 745, and -ln u <= 54 ln 2),
    # so a slot in which no policy sends draws no channel
    sending = [any(pi[t] > 0.0 for pi in pis) for t in range(T)]
    n = sim.n_samples
    sigma_d = math.sqrt(sys.sigma_d2)
    sigma_x = math.sqrt(sys.sigma_x2)
    q, a = sys.q, sys.a
    rk2 = sys.r * sys.k**2
    bk = sys.b * sys.k
    gain = sim.channel_model == "gain_threshold"

    count = 0
    mean = [0.0] * m
    m2 = [0.0] * m
    state_sum = np.zeros((m, T))
    input_sum = np.zeros((m, T))
    all_samples = [[] for _ in range(m)]

    # an overflowing state or cost makes the statistics raise below
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            keys = _stream_keys(sim.seed, np.arange(lo, hi, dtype=np.int64))
            if sim.initial_state == "fixed":
                xs = [np.full(hi - lo, float(sim.x1))] * m
            else:
                xs = [sigma_x * ndtri(_uniform_column(keys, 0))] * m
            costs = [np.zeros(hi - lo) for _ in range(m)]
            for t in range(T):
                last = t == T - 1
                if sending[t]:
                    c = _uniform_column(keys, 1 + t)
                    if gain:   # exponential gains -gbar ln u, mean gbar
                        c = np.log(c, out=c)
                        c *= -ch.gbar
                for k in range(m):
                    x = xs[k]
                    state = q * x * x
                    state_sum[k, t] += state.sum()
                    if not last:
                        x_next = a * x
                    if pis[k][t] > 0.0:
                        if gain:
                            z = c * ps[k][t]
                            z /= ch.sigma2
                            z = z >= ch.gamma
                        else:
                            z = c < pis[k][t]
                        # x * z differs from "x where z, else 0" only at a
                        # state that is not finite, which makes the mean raise
                        xz = x * z
                        inp = rk2 * xz * xz
                        input_sum[k, t] += inp.sum()
                        state += inp
                        if not last:
                            xz *= bk
                            x_next += xz
                    state += ps[k][t]
                    costs[k] += state
                    if not last:
                        xs[k] = x_next
                if sigma_d > 0 and not last:
                    d = ndtri(_uniform_column(keys, 1 + T + t))
                    d *= sigma_d
                    for x in xs:   # each policy's own x_next, made above
                        x += d

            # merge the chunk into the running moments (parallel combination)
            c_n = hi - lo
            total = count + c_n
            for k, cost in enumerate(costs):
                c_mean = float(cost.mean())
                c_m2 = float(np.sum((cost - c_mean) ** 2))
                delta = c_mean - mean[k]
                mean[k] += delta * c_n / total
                m2[k] += c_m2 + delta**2 * count * c_n / total
                if return_samples:
                    all_samples[k].append(cost)
            count = total

    reports = []
    for k, p in enumerate(ps):
        std_err = (math.sqrt(m2[k] / (count - 1)) / math.sqrt(count)
                   if count > 1 else 0.0)
        per_slot = np.column_stack([state_sum[k] / count, input_sum[k] / count, p])
        if not (math.isfinite(mean[k]) and math.isfinite(std_err)
                and np.isfinite(per_slot).all()):
            raise ValueError(
                f"Monte Carlo cost statistics are not finite (T = {T}, "
                f"policy {k}): a state or a cost overflowed")
        reports.append(SimReport(
            mean_cost=mean[k],
            std_err=std_err,
            per_slot=per_slot,
            n_samples=count,
            std_err_valid=count > 1,
            samples=np.concatenate(all_samples[k]) if return_samples else None,
        ))
    return reports


def monte_carlo_cost(
    sys: SystemParams,
    ch: ChannelParams,
    policy: np.ndarray,
    sim: SimConfig,
    return_samples: bool = False,
) -> SimReport:
    """Average `sim.n_samples` independent replications of one policy.

    The one-policy call of `monte_carlo_costs`, whose docstring gives the
    draw layout and the determinism it keeps.  Raises ValueError when the
    mean cost, its standard error or a per-slot mean is not finite.
    """
    return monte_carlo_costs(sys, ch, [policy], sim, return_samples)[0]


def baseline_policy(kind: str, ch: ChannelParams, T: int) -> np.ndarray:
    """Reference policies: transmit at the cap every slot, or never."""
    if T < 1:
        raise ValueError(f"T must be >= 1 (got {T})")
    if kind == "full_power":
        return np.full(T, ch.p_max)
    if kind == "open_loop":
        return np.zeros(T)
    raise ValueError(f"unknown baseline {kind!r}: use 'full_power' or 'open_loop'")

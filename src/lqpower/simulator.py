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
on execution order, batch size, or thread assignment, and the vectorised
batch path of :func:`monte_carlo_cost` reproduces :func:`simulate_replication`
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .model import ChannelParams, SystemParams, policy_to_success, validate_policy

__all__ = [
    "SimConfig",
    "SimReport",
    "ReplicationStream",
    "simulate_replication",
    "monte_carlo_cost",
    "baseline_policy",
]

_CHANNEL_MODELS = ("bernoulli", "gain_threshold")
_INITIAL_STATES = ("gaussian", "fixed")

_CHUNK = 1 << 15

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)   # SplitMix64 stream increment
_WEYL = _U64(0xD1342543DE82EF95)     # odd per-draw increment within a stream
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


# ----------------------------------------------------------------------------
# Rollouts
# ----------------------------------------------------------------------------

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
    validate_policy(p, ch)
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


def monte_carlo_cost(
    sys: SystemParams,
    ch: ChannelParams,
    policy: np.ndarray,
    sim: SimConfig,
    return_samples: bool = False,
) -> SimReport:
    """Average `sim.n_samples` independent replications of a policy.

    Deterministic given (seed, config); replication i of the vectorised batch
    is identical to simulate_replication with ReplicationStream(seed, i).
    Aggregation merges per-chunk moments with the standard parallel
    mean/variance combination, so the result is independent of chunking.
    """
    p = np.asarray(policy, dtype=float)
    validate_policy(p, ch)
    T = sys.T
    if len(p) != T:
        raise ValueError(f"policy has length {len(p)}, expected T = {T}")
    pi = policy_to_success(p, ch)
    n = sim.n_samples
    sigma_d = math.sqrt(sys.sigma_d2)
    sigma_x = math.sqrt(sys.sigma_x2)
    rk2 = sys.r * sys.k**2

    count = 0
    mean = 0.0
    m2 = 0.0
    state_sum = np.zeros(T)
    input_sum = np.zeros(T)
    all_samples = [] if return_samples else None

    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
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


def baseline_policy(kind: str, ch: ChannelParams, T: int) -> np.ndarray:
    """Reference policies: transmit at the cap every slot, or never."""
    if T < 1:
        raise ValueError(f"T must be >= 1 (got {T})")
    if kind == "full_power":
        return np.full(T, ch.p_max)
    if kind == "open_loop":
        return np.zeros(T)
    raise ValueError(f"unknown baseline {kind!r}: use 'full_power' or 'open_loop'")

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
on execution order, batch size, or process assignment.  The rollout runs a
chunk of replications at once, and every policy and scenario of a batch
reads one cache of the chunk's columns of draws (draw j of every
replication in the chunk): a column is made at first read, held until the
last, never written, and a column that nothing reads is never made.  A run
of 2^16 replications or more deals its chunks over up to one process per
usable CPU (forked helpers beside this one), merged here in chunk order:
the same bits on any number of CPUs.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .model import (ChannelParams, SystemParams, _as_python, _is_integer, _require_finite,
                    _shown, policy_to_success)

__all__ = [
    "SimConfig",
    "SimReport",
    "monte_carlo_cost",
    "monte_carlo_batch",
    "baseline_policy",
]

_CHANNEL_MODELS = ("bernoulli", "gain_threshold")
_INITIAL_STATES = ("gaussian", "fixed")

_CHUNK = 1 << 15
_FORK_MIN = 1 << 16   # two default chunks: a smaller run stays in process

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
        if not (_is_integer(self.n_samples) and self.n_samples >= 1):
            raise ValueError(
                f"sim.n_samples must be an integer >= 1 (got {_shown(self.n_samples)})")
        if self.channel_model not in _CHANNEL_MODELS:
            raise ValueError(
                f"sim.channel_model must be one of {_CHANNEL_MODELS} "
                f"(got {self.channel_model!r})")
        if self.initial_state not in _INITIAL_STATES:
            raise ValueError(
                f"sim.initial_state must be one of {_INITIAL_STATES} "
                f"(got {self.initial_state!r})")
        if not (_is_integer(self.seed) and 0 <= int(self.seed) <= _U64_MASK):
            raise ValueError(f"sim.seed must be an integer in [0, 2**64 - 1] "
                             f"(got {_shown(self.seed)!r})")
        _require_finite(self, "sim", ("x1",))
        _as_python(self)


@dataclass
class SimReport:
    """Aggregated Monte Carlo cost statistics for one policy.

    per_slot has one row per slot with columns (mean q x_t^2, mean r u_t^2,
    p_t); mean_cost equals the grand total of per_slot up to rounding.  It
    is None when the rollout was asked for no per-slot sums.  std_err is the
    standard error of mean_cost; with a single replication it is undefined
    and reported as 0.0 with std_err_valid = False.
    """

    mean_cost: float
    std_err: float
    per_slot: np.ndarray | None
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
    """Well-mixed 64-bit key of each replication stream; seed is a u64."""
    s = _U64(int(seed))
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

class _Draws:
    """The draw columns of one chunk, each made once for all its readers.

    A uniform column j is `_uniform_column(keys, j)`; a normal column j is
    the exact inverse CDF (ndtri) of uniform column j, so making it reads
    that uniform once.  `left` counts, per (kind, j), the reads the chunk's
    scenarios will make.  A column is made at first read, held until the
    last, never written: its readers make their own arrays from it."""

    def __init__(self, keys: np.ndarray, left: Counter):
        self.keys, self.left, self.held = keys, left, {}

    def take(self, kind: str, j: int) -> np.ndarray:
        """Column j of `kind`; a normal one reads its uniform when made."""
        column = self.held.pop((kind, j), None)
        if column is None:
            column = (_uniform_column(self.keys, j) if kind == "uniform"
                      else ndtri(self.take("uniform", j)))
        self.left[kind, j] -= 1
        if self.left[kind, j]:
            self.held[kind, j] = column
        return column


class _Scenario:
    """One scenario's policies, the draw columns it reads, and the running
    moments of each policy's cost.  Validates the policies."""

    def __init__(self, sys: SystemParams, ch: ChannelParams, policies,
                 sim: SimConfig, return_samples: bool, per_slot: bool):
        T = sys.T
        self.ps, self.pis = [], []   # each policy's powers and pis as lists of floats
        for i, policy in enumerate(policies):
            p = np.asarray(policy, dtype=float)
            pi = policy_to_success(p, ch)  # validates p
            if len(p) != T:
                raise ValueError(f"policy {i} has length {len(p)}, expected T = {T}")
            self.ps.append(p.tolist())
            self.pis.append(pi.tolist())
        m = len(self.ps)
        self.sys, self.ch = sys, ch
        # pi_t = 0 receives nothing on either channel model (a gain-threshold
        # reception would need -ln u >= theta/p_t > 745, and -ln u <= 54 ln 2),
        # so a slot in which no policy sends draws no channel
        self.sending = [any(pi[t] > 0.0 for pi in self.pis) for t in range(T)]
        self.channel_draws = [1 + t for t in range(T) if self.sending[t]]
        self.sigma_d = math.sqrt(sys.sigma_d2)
        self.sigma_x = math.sqrt(sys.sigma_x2)
        # the normal columns read per chunk: x1, then the perturbations of
        # slots 1..T-1 (the last one only moves the state past the horizon)
        self.normal_draws = [*([0] if sim.initial_state == "gaussian" else []),
                             *(range(T + 1, 2 * T) if self.sigma_d > 0 else [])]
        self.return_samples = return_samples
        self.count, self.mean, self.m2 = 0, [0.0] * m, [0.0] * m
        # [0] and [1] per policy and slot: the sums over replications of q x^2
        # and r u^2; None when no report carries them
        self.slot_sums = np.zeros((2, m, T)) if per_slot else None
        self.all_samples = [[] for _ in range(m)]

    def moments(self, costs: list[np.ndarray]) -> tuple[list, list]:
        """Per policy, one chunk's mean cost and sum of squared deviations."""
        means = [float(cost.mean()) for cost in costs]
        return means, [float(np.sum((cost - c) ** 2)) for cost, c in zip(costs, means)]

    def merge(self, size: int, means, m2s, slot_sums, costs) -> None:
        """Merge the next chunk's moments (parallel mean/variance combination),
        per-slot sums and costs.  A square that overflows is inf: reports() names it."""
        count, mean, m2 = self.count, self.mean, self.m2
        total = count + size
        for k, c_m2 in enumerate(m2s):
            delta = means[k] - mean[k]
            mean[k] += delta * size / total
            # the term is 0.0 at the first chunk; a float64 square is bit-equal
            # to the Python float's, but overflows to inf where that one raises
            if count:
                c_m2 += float(np.float64(delta)**2 * count * size / total)
            m2[k] += c_m2
            if costs is not None:
                self.all_samples[k].append(costs[k])
        if slot_sums is not None:
            self.slot_sums += slot_sums
        self.count = total

    def reports(self) -> list[SimReport]:
        """One report per policy; raises where its statistics are not finite."""
        T, count = self.sys.T, self.count
        reports = []
        for k, p in enumerate(self.ps):
            std_err = (math.sqrt(self.m2[k] / (count - 1)) / math.sqrt(count)
                       if count > 1 else 0.0)
            per_slot = None
            if self.slot_sums is not None:
                per_slot = np.column_stack([*(self.slot_sums[:, k] / count), p])
            if not (math.isfinite(self.mean[k]) and math.isfinite(std_err)
                    and (per_slot is None or np.isfinite(per_slot).all())):
                raise ValueError(
                    f"Monte Carlo cost statistics are not finite (T = {T}, "
                    f"policy {k}): a state or a cost overflowed")
            samples = np.concatenate(self.all_samples[k]) if self.return_samples else None
            reports.append(SimReport(self.mean[k], std_err, per_slot, count,
                                     std_err_valid=count > 1, samples=samples))
        return reports


def _rollout(live, sim: SimConfig, los) -> list[list[tuple]]:
    """Per chunk of `los` (replications lo..lo + _CHUNK), per scenario of `live`:
    the `merge` arguments after the size.  One call serves all of a process's
    chunks: a call per chunk freed every array on return, and paging the heap
    back in made 6.5 times the page faults on 1e6 replications."""
    normal = Counter(("normal", j) for s in live for j in s.normal_draws)
    # making a normal column reads its uniform once
    reads = normal + Counter([("uniform", j) for s in live for j in s.channel_draws]
                             + [("uniform", j) for _, j in normal])
    n = sim.n_samples
    gain = sim.channel_model == "gain_threshold"
    add = np.add.reduce   # a float64 array's sum, as ndarray.sum takes it
    out = []
    with np.errstate(over="ignore", invalid="ignore"):   # reports() names an overflow
        for lo in los:
            hi = min(lo + _CHUNK, n)
            keys = _stream_keys(sim.seed, np.arange(lo, hi, dtype=np.int64))
            draws = _Draws(keys, reads.copy())
            chunk = []
            for s in live:
                sys, ch, ps, pis = s.sys, s.ch, s.ps, s.pis
                per_slot = s.slot_sums is not None
                T, m = sys.T, len(ps)
                slot_sums = np.zeros((2, m, T)) if per_slot else None
                q, a, sigma_d, rk2 = sys.q, sys.a, s.sigma_d, sys._coeffs[3]
                bk = sys.b * sys.k
                if sim.initial_state == "fixed":
                    xs = [np.full(hi - lo, float(sim.x1))] * m
                else:
                    xs = [s.sigma_x * draws.take("normal", 0)] * m
                costs = [np.zeros(hi - lo) for _ in range(m)]
                for t in range(T):   # the last slot's x_next is never read
                    if s.sending[t]:
                        c = draws.take("uniform", 1 + t)
                        if gain:   # exponential gains -gbar ln u, mean gbar
                            c = np.log(c)
                            c *= -ch.gbar
                    for k in range(m):
                        x = xs[k]
                        state = q * x * x
                        if per_slot:
                            slot_sums[0, k, t] = add(state)
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
                            if per_slot:
                                slot_sums[1, k, t] = add(inp)
                            state += inp
                            xz *= bk
                            x_next += xz
                        # state is +0 or more (or nan): adding a power of 0 is a no-op
                        if ps[k][t] != 0.0:
                            state += ps[k][t]
                        costs[k] += state
                        xs[k] = x_next
                    if sigma_d > 0 and t < T - 1:   # the last perturbation is not drawn
                        d = draws.take("normal", 1 + T + t) * sigma_d
                        for x in xs:   # each policy's own x_next, made above
                            x += d
                chunk.append((*s.moments(costs), slot_sums,
                              costs if s.return_samples else None))
            out.append(chunk)
    return out


def _helper(conn, *args) -> None:
    """Send `_rollout(*args)` or its exception; exit flushing no inherited buffer."""
    try:
        conn.send(_rollout(*args))
    except BaseException as exc:   # the parent re-raises it
        conn.send(exc)
    finally:
        os._exit(0)


def _chunks(live, sim: SimConfig, los) -> list[list[tuple]]:
    """`_rollout` of every chunk of `los`, in chunk order.  From _FORK_MIN
    replications on, in a non-daemon process of one thread with W > 1 usable
    CPUs (at most one per chunk), this process rolls out chunks 0, W, 2W, ...
    and forked helper w chunks w, w + W, ...  A helper that exits without a
    result raises ChildProcessError; no helper outlives the call."""
    # every platform with sched_getaffinity can fork
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    # a fork copies this thread alone: a lock that another thread holds stays held
    if sim.n_samples < _FORK_MIN or cpus < 2 or threading.active_count() > 1:
        return _rollout(live, sim, los)
    import multiprocessing   # here: its import costs about 12 ms
    if multiprocessing.current_process().daemon:   # a pool's worker may have no children
        return _rollout(live, sim, los)
    context, helpers, W = multiprocessing.get_context("fork"), [], min(cpus, len(los))
    try:
        for w in range(1, W):
            receiver, sender = context.Pipe(duplex=False)
            helper = context.Process(target=_helper,
                                     args=(sender, live, sim, los[w::W]))
            helper.start()
            sender.close()   # so that the receiver reads EOF once the helper exits
            helpers.append((helper, receiver))
        parts = [_rollout(live, sim, los[0::W])]
        for helper, receiver in helpers:   # recv before join: a result can fill the pipe
            try:
                parts.append(receiver.recv())
            except EOFError:
                helper.join()
                raise ChildProcessError(f"a Monte Carlo helper exited (code "
                                        f"{helper.exitcode}) without its result") from None
            if isinstance(parts[-1], BaseException):
                raise parts[-1]
    finally:
        for helper, receiver in helpers:
            helper.terminate()
            helper.join()
            receiver.close()
    return [parts[i % W][i // W] for i in range(len(los))]


def monte_carlo_batch(runs, sim: SimConfig, return_samples: bool = False,
                      per_slot: bool = True) -> list[list[SimReport]]:
    """Average `sim.n_samples` replications of each policy of each scenario.

    `runs` holds (sys, ch, policies) triples; the result holds one list of
    reports per triple, one report per policy.  All of them share one
    rollout over common draws.  Replication i reads draw j of its stream
    (seed, i) in a fixed layout: j = 0 is the initial state, j = 1..T the
    channels of slots 1..T and j = T+1..2T their perturbations.  A draw
    that is not read is skipped, never shifted onto another: a fixed
    initial state, sigma_d2 = 0, a slot in which no policy of the scenario
    sends, and the last perturbation, which only moves the state past the
    horizon.  So each replication's cost depends only on (seed, i), not on
    n_samples, the chunking or the other scenarios.

    Per chunk of replications, each scenario in turn advances its policies
    over the chunk, all reading the chunk's one cache of draw columns
    (_Draws).  Each report is bit for bit the one its policy gets alone,
    since a policy's arithmetic does not depend on the others.  The chunks'
    moments are merged in chunk order by the parallel mean/variance
    combination, which rounds differently for other chunk sizes: mean_cost
    and std_err depend on the chunk size in their last bits, never on the
    number of processes that rolled the chunks out (see _chunks).

    With per_slot=False the rollout keeps no per-slot sums and each
    report's per_slot is None; mean_cost, std_err and samples are the same
    bits either way.

    Raises the first failure in input order, as one scenario at a time
    would: a ValueError naming the policy's index for a policy that is not
    valid or not of length T, or (naming T too) whose mean cost, standard
    error or, with per_slot, per-slot mean is not finite: a state, a cost
    or a square overflowed.  The per-slot sums can overflow across chunks
    while the mean and std_err stay finite, so that case raises only with
    per_slot (within a chunk the mean, of terms >= 0, overflows as well).
    """
    scenarios, error = [], None
    for sys, ch, policies in runs:
        try:
            scenarios.append(_Scenario(sys, ch, policies, sim, return_samples, per_slot))
        except ValueError as exc:
            error = exc
            break
    live = [s for s in scenarios if s.ps]   # a scenario without policies reads nothing
    los = range(0, sim.n_samples, _CHUNK)
    chunks = _chunks(live, sim, los) if live else []
    # the per-slot sums and the squares of the merge may overflow: reports() raises
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, chunk in zip(los, chunks):
            for s, outcome in zip(live, chunk):
                s.merge(min(_CHUNK, sim.n_samples - lo), *outcome)
    reports = [s.reports() for s in scenarios]
    if error is not None:
        raise error
    return reports


def monte_carlo_cost(sys: SystemParams, ch: ChannelParams, policy: np.ndarray,
                     sim: SimConfig, return_samples: bool = False) -> SimReport:
    """Average `sim.n_samples` independent replications of one policy.

    The call of `monte_carlo_batch` with one scenario and one policy; its
    docstring gives the draw layout and the determinism it keeps.  Raises
    ValueError when the mean cost, its standard error or a per-slot mean is
    not finite.
    """
    return monte_carlo_batch([(sys, ch, [policy])], sim, return_samples)[0][0]


def baseline_policy(kind: str, ch: ChannelParams, T: int) -> np.ndarray:
    """Reference policies: transmit at the cap every slot, or never."""
    if T < 1:
        raise ValueError(f"T must be >= 1 (got {T})")
    if kind == "full_power":
        return np.full(T, ch.p_max)
    if kind == "open_loop":
        return np.zeros(T)
    raise ValueError(f"unknown baseline {kind!r}: use 'full_power' or 'open_loop'")

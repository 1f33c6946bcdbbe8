"""Plant, channel and cost model for remote LQ control over a lossy link.

A scalar plant x[t+1] = a*x[t] + b*u[t] + d[t] reports its state to a remote
controller through a packet-erasure channel.  Slot t is received with
probability pi_t = exp(-theta/p_t), where p_t is the transmit power and
theta = gamma*sigma2/gbar collapses the Rayleigh-fading channel constants.
On success the controller applies u[t] = k*x[t]; on a drop u[t] = 0.

This module holds the parameter containers, the power <-> success-probability
mapping, the exact expected combined cost (control + transmission energy)
and the backward/forward recursion tables behind the per-slot optimizer.

The two recursions are O(T) loops over Python floats: the backward pass
gives the tail factors, the forward pass the state second moments, and the
cost follows from the second moments without a further pass.  A table or
cost that is no longer finite (an unstable plant over a long horizon)
raises ValueError naming T and the slot where it overflowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemParams",
    "ChannelParams",
    "RecursionTables",
    "power_to_success",
    "success_to_power",
    "policy_to_success",
    "validate_success_vector",
    "validate_policy",
    "expected_cost",
    "cost_from_moments",
    "backward_tables",
    "forward_second_moments",
    "compute_tables",
]

# ----------------------------------------------------------------------------
# Parameter containers
# ----------------------------------------------------------------------------

def _require_finite(params, section: str, names: tuple[str, ...]) -> None:
    """Reject NaN and infinite values, naming the key."""
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{section}.{name} must be finite (got {value})")


@dataclass(frozen=True)
class SystemParams:
    """Plant, feedback-gain and cost-weight parameters (defaults: fig2 nominal)."""

    a: float = 1.1          # plant coefficient
    b: float = -1.0         # input coefficient
    k: float = 1.0          # static feedback gain (u = k*x on success)
    q: float = 1.0          # state cost weight, > 0
    r: float = 0.5          # input cost weight, > 0
    sigma_x2: float = 1.0   # variance of the initial state x_1
    sigma_d2: float = 0.0   # variance of the additive perturbation d_t
    T: int = 30             # horizon, >= 1

    def __post_init__(self):
        _require_finite(self, "sys", ("a", "b", "k", "q", "r", "sigma_x2", "sigma_d2"))
        if not self.q > 0:
            raise ValueError(f"sys.q must be > 0 (got {self.q})")
        if not self.r > 0:
            raise ValueError(f"sys.r must be > 0 (got {self.r})")
        if not (isinstance(self.T, (int, np.integer)) and self.T >= 1):
            raise ValueError(f"sys.T must be an integer >= 1 (got {self.T})")
        if self.sigma_x2 < 0:
            raise ValueError(f"sys.sigma_x2 must be >= 0 (got {self.sigma_x2})")
        if self.sigma_d2 < 0:
            raise ValueError(f"sys.sigma_d2 must be >= 0 (got {self.sigma_d2})")

    @property
    def closed_loop_coeff(self) -> float:
        """Coefficient of pi in the second-moment factor a^2 + coeff*pi."""
        return self.b**2 * self.k**2 + 2.0 * self.a * self.b * self.k


@dataclass(frozen=True)
class ChannelParams:
    """Wireless channel parameters under the SNR-threshold reception model.

    A packet sent with power p is decoded iff g*p/sigma2 >= gamma, with the
    power gain g exponentially distributed with mean gbar (Rayleigh fading).
    Only the ratio theta = gamma*sigma2/gbar enters the mathematics; the three
    constants are kept separate for configuration fidelity.
    """

    gamma: float = 1.0      # SNR decoding threshold
    sigma2: float = 1.0     # communication noise variance
    gbar: float = 1.0       # mean channel power gain
    p_max: float = 3.0      # transmit power cap

    def __post_init__(self):
        _require_finite(self, "ch", ("gamma", "sigma2", "gbar", "p_max"))
        for name in ("gamma", "sigma2", "gbar", "p_max"):
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"ch.{name} must be > 0 (got {getattr(self, name)})")

    @property
    def theta(self) -> float:
        """Derived ratio gamma*sigma2/gbar; never stored independently."""
        return self.gamma * self.sigma2 / self.gbar

    @property
    def pi_max(self) -> float:
        """Largest achievable success probability, exp(-theta/p_max)."""
        return math.exp(-self.theta / self.p_max)


@dataclass
class RecursionTables:
    """Per-slot value tables for one success vector (0-based slot arrays).

    fbar[t] is the tail cost factor multiplying E[x_t^2] for the tail that
    starts at slot t; fs[t] is the matching perturbation-driven tail factor.
    Both have length T + 1 with a trailing 0.0 sentinel so slot-T formulas
    need no special case.  ex2[t] = E[x_t^2] (length T), filled by the
    forward pass; None when only the backward pass has run.
    """

    fbar: np.ndarray
    fs: np.ndarray
    ex2: np.ndarray | None = None


# ----------------------------------------------------------------------------
# Power <-> success probability mapping
# ----------------------------------------------------------------------------

def power_to_success(p: float, ch: ChannelParams) -> float:
    """Success probability exp(-theta/p) of a slot sent with power p.

    p = 0 maps to probability exactly 0 (no transmission, continuous limit).
    """
    if p < 0 or p > ch.p_max:
        raise ValueError(f"power must lie in [0, {ch.p_max}] (got {p})")
    if p == 0:
        return 0.0
    return math.exp(-ch.theta / p)


def success_to_power(pi: float, ch: ChannelParams) -> float:
    """Transmit power -theta/ln(pi) achieving success probability pi.

    Inverse of :func:`power_to_success`; pi = 0 maps to power 0.  Raises if
    pi >= 1 (unreachable) or pi > pi_max (would exceed the power cap).
    """
    if pi < 0 or pi >= 1:
        raise ValueError(f"success probability must lie in [0, 1) (got {pi})")
    if pi > ch.pi_max:
        raise ValueError(
            f"success probability {pi} exceeds pi_max = {ch.pi_max} "
            f"(power cap {ch.p_max})")
    if pi == 0:
        return 0.0
    # pi <= pi_max guarantees the power is within the cap; clamp the ulp of
    # rounding that exp/log round-tripping can spill past it
    return min(-ch.theta / math.log(pi), ch.p_max)


def policy_to_success(p: np.ndarray, ch: ChannelParams) -> np.ndarray:
    """Vectorised power -> success probability over a whole policy."""
    p = np.asarray(p, dtype=float)
    validate_policy(p, ch)
    out = np.zeros_like(p)
    nz = p > 0
    out[nz] = np.exp(-ch.theta / p[nz])
    return out


def validate_policy(p: np.ndarray, ch: ChannelParams) -> None:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("policy must be a 1-d sequence of length T >= 1")
    if np.any(p < 0) or np.any(p > ch.p_max):
        raise ValueError(
            f"policy powers must lie in [0, {ch.p_max}] "
            f"(got range [{p.min()}, {p.max()}])")


def validate_success_vector(pi: np.ndarray, ch: ChannelParams) -> None:
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 1 or pi.size < 1:
        raise ValueError("success vector must be a 1-d sequence of length T >= 1")
    if np.any(pi < 0) or np.any(pi > ch.pi_max):
        raise ValueError(
            f"success probabilities must lie in [0, pi_max = {ch.pi_max}] "
            f"(got range [{pi.min()}, {pi.max()}])")


def _horizon_success(sys: SystemParams, ch: ChannelParams, pi) -> np.ndarray:
    """pi as a float array, checked as a success vector of length T."""
    pi = np.asarray(pi, dtype=float)
    validate_success_vector(pi, ch)
    if len(pi) != sys.T:
        raise ValueError(f"success vector has length {len(pi)}, expected T = {sys.T}")
    return pi


def _transmission_energy(pi: np.ndarray, ch: ChannelParams) -> float:
    """Total transmit energy of the powers implied by pi (0 where pi = 0)."""
    pi = np.asarray(pi, dtype=float)
    nz = pi > 0
    if not np.any(nz):
        return 0.0
    return float(np.sum(-ch.theta / np.log(pi[nz])))


# ----------------------------------------------------------------------------
# Exact expected cost and recursion tables
# ----------------------------------------------------------------------------

def expected_cost(
    sys: SystemParams,
    ch: ChannelParams,
    pi: np.ndarray,
    ex2_1: float | None = None,
) -> float:
    """Exact expected combined cost of a success vector, in closed form.

    Evaluates

        C(pi) = sum_t (q + r k^2 pi_t) E[x_t^2]  +  sum_t p_t

    with E[x_t^2] propagated forward through
    E[x_{t+1}^2] = (a^2 + (b^2 k^2 + 2abk) pi_t) E[x_t^2] + sigma_d2 and
    p_t = -theta/ln(pi_t) (0 where pi_t = 0).  Algebraically identical to
    the expanded sum-of-products form; empty products count as 1.  Raises
    ValueError when a second moment or the cost is not finite.

    Parameters
    ----------
    pi : length-T success vector, each entry in [0, pi_max]
    ex2_1 : initial second moment E[x_1^2]; defaults to sys.sigma_x2, or pass
        x1**2 for a fixed known initial state
    """
    pi = _horizon_success(sys, ch, pi)
    ex2 = forward_second_moments(sys, pi, sys.sigma_x2 if ex2_1 is None else ex2_1)
    return cost_from_moments(sys, ch, pi, ex2)


def cost_from_moments(
    sys: SystemParams, ch: ChannelParams, pi: np.ndarray, ex2: np.ndarray
) -> float:
    """Expected cost of success vector pi from its second moments ex2.

    The last step of :func:`expected_cost`, for callers that already hold
    the forward pass of pi (such as ``RecursionTables.ex2``); the result is
    bit-equal to ``expected_cost`` of the same pi.
    """
    rk2 = sys.r * sys.k**2
    control = float(np.sum((sys.q + rk2 * pi) * ex2))
    cost = control + _transmission_energy(pi, ch)
    if not math.isfinite(cost):
        raise ValueError(f"expected cost is not finite (T = {sys.T})")
    return cost


def forward_second_moments(
    sys: SystemParams, pi: np.ndarray, ex2_1: float
) -> np.ndarray:
    """State second moments E[x_t^2], t = 0..T-1 (0-based), by forward pass.

    ex2[0] = ex2_1 and ex2[t+1] = (a^2 + c*pi_t) ex2[t] + sigma_d2 with
    c = b^2 k^2 + 2abk.  The loop runs over Python floats; each step is the
    same two products and two sums in the same order as over numpy scalars.
    Raises ValueError naming the first slot whose moment is not finite.
    """
    ex2 = _forward_pass(sys, pi, ex2_1)
    # inf and nan carry through every later step: the last moment is
    # finite only if all are
    if not math.isfinite(ex2[-1]):
        t = next(t for t, v in enumerate(ex2) if not math.isfinite(v))
        raise ValueError(
            f"second moment E[x_t^2] is not finite at slot t = {t + 1} "
            f"of T = {len(ex2)}")
    return np.array(ex2)


def _forward_pass(sys: SystemParams, pi: np.ndarray, ex2_1: float) -> list[float]:
    """The loop of :func:`forward_second_moments`, without its check."""
    if ex2_1 < 0:
        raise ValueError(f"ex2_1 must be >= 0 (got {ex2_1})")
    pi = np.asarray(pi, dtype=float)
    a2, c, sigma_d2 = float(sys.a**2), float(sys.closed_loop_coeff), float(sys.sigma_d2)
    m = float(ex2_1)
    ex2 = [m]
    for p in pi[:-1].tolist():
        m = (a2 + c * p) * m + sigma_d2
        ex2.append(m)
    return ex2


def backward_tables(
    sys: SystemParams,
    ch: ChannelParams,
    pi: np.ndarray,
    ex2_1: float | None = None,
) -> RecursionTables:
    """Tail cost tables fbar and fs of a success vector, by backward pass.

    fbar[t] = (q + r k^2 pi_t) + (a^2 + c*pi_t) fbar[t+1] and
    fs[t] = fbar[t] + fs[t+1], run from t = T-1 down to 0 against the
    trailing sentinels fbar[T] = fs[T] = 0.  At the terminal slot this gives
    fbar[T-1] = q + r k^2 pi_{T-1}, which reduces to q whenever the last
    slot does not transmit (the optimal terminal choice).  The loop runs
    over Python floats in the same operation order as over numpy scalars.
    Raises ValueError naming the slot where a tail factor first stops being
    finite.  Given the initial second moment ex2_1, it raises only where a
    non-finite tail factor meets a nonzero second moment: over a state that
    is 0 almost surely the tail factors can overflow and the cost stay
    finite.
    """
    pi = _horizon_success(sys, ch, pi)
    a2, c, q = float(sys.a**2), float(sys.closed_loop_coeff), float(sys.q)
    rk2 = float(sys.r * sys.k**2)
    f = s = 0.0
    fbar, fs = [f], [s]   # built from slot T down to slot 0
    for p in reversed(pi.tolist()):
        f = (q + rk2 * p) + (a2 + c * p) * f
        s = f + s
        fbar.append(f)
        fs.append(s)
    # inf and nan carry through every later step: fs[0] is finite only if
    # every fbar and fs is, and the non-finite ones are those of the
    # 0-based slots 0 .. T - i
    if not math.isfinite(s):
        i = next(i for i, v in enumerate(fs) if not math.isfinite(v))
        if ex2_1 is None or any(_forward_pass(sys, pi, ex2_1)[:sys.T - i + 1]):
            raise ValueError(
                f"tail factor is not finite at slot t = {sys.T - i + 1} "
                f"of T = {sys.T}")
    return RecursionTables(fbar=np.array(fbar[::-1]), fs=np.array(fs[::-1]))


def compute_tables(
    sys: SystemParams, ch: ChannelParams, pi: np.ndarray, ex2_1: float
) -> RecursionTables:
    """Backward and forward passes together, as one table set.

    Validates pi once (in the backward pass); raises ValueError when a
    second moment is not finite, or a tail factor at a slot whose second
    moment is nonzero.
    """
    tables = backward_tables(sys, ch, pi, ex2_1)
    tables.ex2 = forward_second_moments(sys, pi, ex2_1)
    return tables

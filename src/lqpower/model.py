"""Plant, channel and cost model for remote LQ control over a lossy link.

A scalar plant x[t+1] = a*x[t] + b*u[t] + d[t] reports its state to a remote
controller through a packet-erasure channel.  Slot t is received with
probability pi_t = exp(-theta/p_t), where p_t is the transmit power and
theta = gamma*sigma2/gbar collapses the Rayleigh-fading channel constants.
On success the controller applies u[t] = k*x[t]; on a drop u[t] = 0.

This module holds the parameter containers, the power <-> success-probability
mapping (one np.exp(-theta/p), which also takes p_max to pi_max), the exact
expected combined cost (control + transmission energy) and the
backward/forward recursion tables behind the per-slot optimizer.  Every
policy or success vector passed in crosses one boundary, _checked: a
nonempty 1-d array, of length T where T applies, with each slot in
[0, p_max] or [0, pi_max]; its error names the first slot out of range.

The two recursions are O(T) loops over Python floats: the backward pass
gives the tail factors, the forward pass the state second moments, and the
cost follows from the second moments without a further pass.  Each pass is
a kernel that takes a start slot and its start value and returns the run of
Python floats from there; the tables are float64 arrays everywhere else, and
a rerun from one slot writes its run into them by a slice assignment.  A
table or cost that is no longer finite (an unstable plant over a long
horizon) raises ValueError naming T and the slot where it overflowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SystemParams",
    "ChannelParams",
    "RecursionTables",
    "power_to_success",
    "success_to_power",
    "policy_to_success",
    "expected_cost",
    "backward_tables",
    "forward_second_moments",
    "compute_tables",
]

# ----------------------------------------------------------------------------
# Parameter containers
# ----------------------------------------------------------------------------

def _is_integer(value) -> bool:
    """An int or a numpy integer, but not a bool, which Python counts as an int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An int, a float or a numpy real, but not a bool, which Python counts as an int."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _float(value) -> float:
    """float(value) of a real value; an int too large for a float is +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class _Text(str):
    """A message fragment that formats as itself under str() and repr()."""

    __repr__ = str.__str__


def _shown(value):
    """value for an error message, or, for an int too long for str() (over
    sys.get_int_max_str_digits() digits), its size, which str() can print."""
    if isinstance(value, int):
        try:
            str(value)
        except ValueError:
            n = abs(value)
            # 2**(bits - 1) <= n < 2**bits: n has the digits of 2**(bits - 1) or one more
            digits = int((n.bit_length() - 1) * math.log10(2)) + 1
            digits += n >= 10**digits
            return _Text(f"{'a negative' if value < 0 else 'an'} int of {digits} digits")
    return value


def _as_python(params) -> None:
    """Store each numpy number field of frozen, checked params as a Python
    float or int: numpy 2 keeps float32 arithmetic with a Python float in
    float32, and an int8 or int64 product wraps around."""
    for name, value in vars(params).items():   # only values change: iterating stays valid
        if isinstance(value, np.integer):
            object.__setattr__(params, name, int(value))
        elif isinstance(value, np.floating):
            object.__setattr__(params, name, float(value))


def _require_finite(params, section: str, names: tuple[str, ...], bound: str = "") -> None:
    """Reject booleans, non-numbers, NaN and infinite values (ints too large
    for a float among them) and, given the bound "> 0" or ">= 0", values
    whose float is outside it, naming the key."""
    for name in names:
        value = getattr(params, name)
        if not _is_real(value):
            raise ValueError(f"{section}.{name} must be a real number (got {value!r})")
        x = _float(value)
        if not math.isfinite(x):
            raise ValueError(f"{section}.{name} must be finite (got {_shown(value)})")
        if bound and not (x > 0 or bound == ">= 0" and x == 0):
            raise ValueError(f"{section}.{name} must be {bound} (got {value})")


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
        _require_finite(self, "sys", ("a", "b", "k"))
        _require_finite(self, "sys", ("q", "r"), "> 0")
        _require_finite(self, "sys", ("sigma_x2", "sigma_d2"), ">= 0")
        if not (_is_integer(self.T) and self.T >= 1):
            raise ValueError(f"sys.T must be an integer >= 1 (got {_shown(self.T)})")
        _as_python(self)
        for name in ("a", "b", "k"):
            try:  # the model squares them; a Python float's square raises
                float(getattr(self, name)) ** 2
            except OverflowError:
                raise ValueError(f"sys.{name} = {getattr(self, name)} is out of "
                                 f"range: its square overflows") from None
        # the recursions weigh every slot by r k^2 and c; an infinite one
        # meets a silent slot's pi = 0 as inf * 0 = nan
        _, c, _, rk2, _ = self._coeffs
        if not math.isfinite(rk2):
            raise ValueError(f"sys: r k^2 = {self.r} * {self.k}^2 is out of range: "
                             f"the product overflows")
        if not math.isfinite(c):
            raise ValueError(f"sys: c = b^2 k^2 + 2abk is out of range at a = {self.a}, "
                             f"b = {self.b}, k = {self.k}: it overflows")

    @property
    def closed_loop_coeff(self) -> float:
        """Coefficient of pi in the second-moment factor a^2 + coeff*pi."""
        return self.b**2 * self.k**2 + 2.0 * self.a * self.b * self.k

    @cached_property
    def _coeffs(self) -> tuple[float, float, float, float, float]:
        """(a^2, c, q, r k^2, sigma_d2) as Python floats: what the recursion
        kernels, the cost weights, the descent and the rollout read."""
        return (float(self.a**2), float(self.closed_loop_coeff), float(self.q),
                float(self.r * self.k**2), float(self.sigma_d2))


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
        _require_finite(self, "ch", ("gamma", "sigma2", "gbar", "p_max"), "> 0")
        _as_python(self)
        # pi_max is 0 also for an infinite theta; outside (0, 1) the cap's
        # power -theta/ln(pi_max) is inf or 0
        if not 0 < self.pi_max < 1:
            raise ValueError(f"ch: theta/p_max = {self.theta / self.p_max} is out of "
                             f"range: pi_max = exp(-theta/p_max) rounds to {self.pi_max:g}")

    @cached_property
    def theta(self) -> float:
        """Derived ratio gamma*sigma2/gbar; not a field."""
        return self.gamma * self.sigma2 / self.gbar

    @cached_property
    def pi_max(self) -> float:
        """Largest success probability: policy_to_success's image of p_max."""
        return float(np.exp(-self.theta / self.p_max))


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
    return float(policy_to_success([p], ch)[0])


def success_to_power(pi: float, ch: ChannelParams) -> float:
    """Transmit power -theta/ln(pi) achieving success probability pi.

    Inverse of :func:`power_to_success`; pi = 0 maps to power 0 and pi_max
    to p_max exactly.  Raises unless 0 <= pi <= pi_max.
    """
    pi_max = ch.pi_max
    if not 0 <= pi <= pi_max:
        raise ValueError(
            f"success probability must lie in [0, pi_max = {pi_max}] "
            f"(power cap {ch.p_max}; got {pi})")
    if pi == 0:
        return 0.0
    if pi == pi_max:  # the log of a pi_max near 1 lands tens of ulps below p_max
        return ch.p_max
    # math.log, not np.log, which moves written powers by an ulp; the clamp
    # catches a pi just below pi_max that rounds to a power above the cap
    return min(-ch.theta / math.log(pi), ch.p_max)


def policy_to_success(p: np.ndarray, ch: ChannelParams) -> np.ndarray:
    """The power -> success map, np.exp(-theta/p) (0 at p = 0), over a policy."""
    p = _checked(p, "policy", ch)
    out = np.zeros_like(p)
    with np.errstate(over="ignore"):  # a subnormal p: -theta/p = -inf, pi = 0
        out[p > 0] = np.exp(-ch.theta / p[p > 0])
    return out


_VECTORS = {"policy": ("policy", "policy powers", "p_max"),
            "success": ("success vector", "success probabilities", "pi_max")}


def _checked(x, kind: str, ch: ChannelParams | None = None,
             T: int | None = None) -> np.ndarray:
    """x as a 1-d float array, checked to be nonempty, of length T when T is
    given and, when ch is, in [0, cap] in every slot (so never NaN), the cap
    being ch.p_max for kind "policy" and ch.pi_max for kind "success"."""
    name, entries, cap_name = _VECTORS[kind]
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"{name} must be a 1-d sequence of length T >= 1")
    if T is not None and x.size != T:
        raise ValueError(f"{name} has length {x.size}, expected T = {T}")
    if ch is not None:
        cap = getattr(ch, cap_name)
        ok = (0 <= x) & (x <= cap)
        if not ok.all():
            t = int(np.argmin(ok))
            raise ValueError(f"{entries} must lie in [0, {cap_name} = {cap}] "
                             f"(slot t = {t + 1} of T = {x.size} is {x[t]})")
    return x


def _power(pi: np.ndarray, ch: ChannelParams) -> np.ndarray:
    """Transmit power -theta/ln pi_t implied by every pi_t, 0 where pi_t = 0."""
    power = np.zeros_like(pi)
    power[pi > 0] = -ch.theta / np.log(pi[pi > 0])
    return power


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
    pi = _checked(pi, "success", ch, sys.T)
    ex2 = forward_second_moments(sys, pi, sys.sigma_x2 if ex2_1 is None else ex2_1)
    with np.errstate(over="ignore", invalid="ignore"):  # _total_cost names it
        return _total_cost(_weights(sys, pi), ex2, pi, _power(pi, ch))


def _weights(sys: SystemParams, pi: np.ndarray) -> np.ndarray:
    """q + r k^2 pi_t, the cost's weight of E[x_t^2], in every slot."""
    _, _, q, rk2, _ = sys._coeffs
    return q + rk2 * pi


def _total_cost(weight: np.ndarray, ex2: np.ndarray, pi: np.ndarray, power) -> float:
    """The cost of pi from its weights, _weights(pi), its second moments ex2
    and its powers, _power(pi), raising where it is not finite: call it with
    numpy's overflow and invalid-value warnings quieted."""
    control = float(np.add.reduce(weight * ex2))
    cost = control + float(np.add.reduce(power[pi > 0]))
    if not math.isfinite(cost):
        raise ValueError(f"expected cost is not finite (T = {len(pi)})")
    return cost


def _backward(sys: SystemParams, pi: np.ndarray, f: float, top: int) -> list[float]:
    """fbar[top], fbar[top-1], ..., fbar[0]: the backward recursion from
    f = fbar[top+1]."""
    a2, c, q, rk2, _ = sys._coeffs
    run = []
    for p in pi[top::-1].tolist():
        f = (q + rk2 * p) + (a2 + c * p) * f
        run.append(f)
    return run


def _forward(sys: SystemParams, pi: np.ndarray, m: float, bottom: int) -> list[float]:
    """ex2[bottom+1], ..., ex2[T-1]: the forward recursion from m = ex2[bottom]."""
    a2, c, _, _, sigma_d2 = sys._coeffs
    run = []
    for p in pi[bottom:-1].tolist():
        m = (a2 + c * p) * m + sigma_d2
        run.append(m)
    return run


def _check(tail: np.ndarray | None, ex2: np.ndarray | None) -> None:
    """Raise naming where a tail table (fbar or fs) overflows at a nonzero moment
    (at any moment, without ex2) or, failing that, where a moment overflows."""
    # inf and nan carry through every later step: tail[0] and ex2[-1] tell
    if tail is not None and not math.isfinite(tail[0]):
        t = np.flatnonzero(~np.isfinite(tail))[-1]
        if ex2 is None or ex2[:t + 1].any():
            raise ValueError(
                f"tail factor is not finite at slot t = {t + 1} of T = {len(tail) - 1}")
    if ex2 is not None and not math.isfinite(ex2[-1]):
        t = np.flatnonzero(~np.isfinite(ex2))[0]
        raise ValueError(
            f"second moment E[x_t^2] is not finite at slot t = {t + 1} "
            f"of T = {len(ex2)}")


def _update_tables(sys: SystemParams, pi: np.ndarray, fbar: np.ndarray,
                   ex2: np.ndarray, t: int) -> None:
    """Rerun the backward pass from slot t and the forward one from t, and check.

    After a change of pi_t alone this gives compute_tables's fbar and ex2
    bit for bit in T slot-steps.
    """
    fbar[t::-1] = _backward(sys, pi, float(fbar[t + 1]), t)
    ex2[t + 1:] = _forward(sys, pi, float(ex2[t]), t)
    _check(fbar, ex2)


def _fill_tables(sys: SystemParams, pi: np.ndarray, fbar: np.ndarray,
                 ex2: np.ndarray) -> None:
    """Fill fbar and ex2 in place from fbar[T] = 0 and ex2[0] = E[x_1^2]:
    the backward pass from slot T-1, the forward one from slot 0, and the
    check of _update_tables."""
    fbar[sys.T - 1::-1] = _backward(sys, pi, 0.0, sys.T - 1)
    ex2[1:] = _forward(sys, pi, float(ex2[0]), 0)
    _check(fbar, ex2)


def _moments(sys: SystemParams, pi: np.ndarray, ex2_1: float) -> np.ndarray:
    """ex2 over the whole horizon from E[x_1^2] = ex2_1, not yet checked for
    overflow."""
    if not (_is_real(ex2_1) and 0 <= _float(ex2_1) < math.inf):
        raise ValueError(f"ex2_1 must be a finite number >= 0 (got {_shown(ex2_1)})")
    ex2 = np.empty(len(pi))
    ex2[0] = ex2_1
    ex2[1:] = _forward(sys, pi, float(ex2_1), 0)
    return ex2


def _tables(sys: SystemParams, pi: np.ndarray, ex2_1: float | None) -> RecursionTables:
    """fbar and fs of a checked pi by the backward pass, ex2 by the forward
    one unless ex2_1 is None, checked together."""
    fbar = np.zeros(sys.T + 1)
    fbar[sys.T - 1::-1] = _backward(sys, pi, 0.0, sys.T - 1)
    ex2 = None if ex2_1 is None else _moments(sys, pi, ex2_1)
    with np.errstate(over="ignore"):  # an inf tail is named by _check
        fs = np.cumsum(fbar[::-1])[::-1]  # sequential, as fs[t] = fbar[t] + fs[t+1]
    _check(fs, ex2)
    return RecursionTables(fbar=fbar, fs=fs, ex2=ex2)


def forward_second_moments(
    sys: SystemParams, pi: np.ndarray, ex2_1: float
) -> np.ndarray:
    """State second moments E[x_t^2], t = 0..T-1 (0-based), by forward pass.

    ex2[0] = ex2_1 and ex2[t+1] = (a^2 + c*pi_t) ex2[t] + sigma_d2 with
    c = b^2 k^2 + 2abk.  The loop runs over Python floats; each step is the
    same two products and two sums in the same order as over numpy scalars.
    Raises ValueError naming the first slot whose moment is not finite.
    """
    ex2 = _moments(sys, _checked(pi, "success"), ex2_1)
    _check(None, ex2)
    return ex2


def backward_tables(
    sys: SystemParams, ch: ChannelParams, pi: np.ndarray
) -> RecursionTables:
    """Tail cost tables fbar and fs of a success vector, by backward pass.

    fbar[t] = (q + r k^2 pi_t) + (a^2 + c*pi_t) fbar[t+1], run from t = T-1
    down to 0 against the trailing sentinel fbar[T] = 0, and
    fs[t] = fbar[t] + fs[t+1] with fs[T] = 0.  At the terminal slot this gives
    fbar[T-1] = q + r k^2 pi_{T-1}, which reduces to q whenever the last
    slot does not transmit (the optimal terminal choice).  The loop runs
    over Python floats in the same operation order as over numpy scalars.
    Raises ValueError naming the slot where a tail factor first stops being
    finite.
    """
    return _tables(sys, _checked(pi, "success", ch, sys.T), None)


def compute_tables(
    sys: SystemParams, ch: ChannelParams, pi: np.ndarray, ex2_1: float
) -> RecursionTables:
    """Backward and forward passes together, as one table set.

    Validates pi once; raises ValueError when a second moment is not
    finite, or a tail factor at a slot whose second moment is nonzero: over
    a state that is 0 almost surely the tail factors can overflow and the
    cost stay finite.
    """
    return _tables(sys, _checked(pi, "success", ch, sys.T), ex2_1)

"""Span tracer for the traced benchmark run.

Wraps every public function of the five ``lqpower`` modules (``cli``,
``experiments``, ``optimizer``, ``model``, ``simulator``) so that each call
becomes a span.  Spans are not stored one by one: a ``long_horizon``
operation makes over a hundred thousand of them, so each span only adds to
its function's call count, total time and self time (total minus the time
of the traced calls it made), and to a (caller, callee) call count.  A few
hooks derive work counters (recursion slot-steps, Monte Carlo slot-steps,
optimizer iterations) from the arguments and results of those same calls.

A wrapper replaces the function at its defining module attribute and at
every ``lqpower`` module attribute that imported it, and ``restore`` puts
the originals back.  A function that a later version of the package removes
simply never produces a span, so its counts read 0.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "experiments", "optimizer", "model", "simulator")


def _arg_getter(fn, name: str):
    """Fetch argument `name` of a call to fn, or None if fn has no such one."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if name not in params:
        return None
    pos = params.index(name)

    def get(args, kwargs):
        return args[pos] if pos < len(args) else kwargs.get(name)
    return get


def _hooks(fn, span: str):
    """Work counters of one span: (on_call, on_return) or Nones.

    on_call(args, kwargs, counters) and on_return(args, kwargs, result,
    counters) add to the shared Counter.
    """
    if span in ("model.forward_second_moments", "model.backward_tables"):
        pi = _arg_getter(fn, "pi")
        if pi:
            def on_call(a, k, c):
                c["model.slot_steps"] += len(pi(a, k))
            return on_call, None
    if span == "simulator.monte_carlo_cost":
        policy, sim = _arg_getter(fn, "policy"), _arg_getter(fn, "sim")
        if policy and sim:
            def on_call(a, k, c):
                n, T = sim(a, k).n_samples, len(policy(a, k))
                c["simulator.slot_steps"] += n * T
                c["simulator.uniform_bytes"] += n * (2 * T + 1) * 8
            return on_call, None
    if span == "optimizer.optimize_policy":
        def on_return(a, k, res, c):
            c["optimizer.iterations"] += getattr(res, "iterations", 0)
            c["optimizer.unconverged"] += getattr(res, "converged", True) is False
        return None, on_return
    if span == "optimizer.coordinate_sweep":
        policy = _arg_getter(fn, "policy")
        if policy:
            def on_return(a, k, res, c):
                c["optimizer.useful_sweeps"] += not np.array_equal(res[0], policy(a, k))
            return None, on_return
    return None, None


class Tracer:
    """Aggregated spans of the traced calls made while installed."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.edges = Counter()      # (caller span, callee span) -> calls
        self.counters = Counter()
        self._stack = []            # per open span: [name, time in traced callees]
        self._patched = []          # (module, attribute, original)

    def _wrap(self, span: str, fn):
        stack, stat, edges, counters = self._stack, self.stats[span], self.edges, self.counters
        on_call, on_return = _hooks(fn, span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs, counters)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                    edges[stack[-1][0], span] += 1
            if on_return is not None:
                on_return(args, kwargs, result, counters)
            return result
        return wrapper

    def install(self, package: str = "lqpower") -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._patched.append((mod, name, obj))

    def restore(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- readouts ---------------------------------------------------------

    def calls(self, span: str) -> int:
        return self.stats[span][0] if span in self.stats else 0

    def total_s(self, span: str) -> float:
        return self.stats[span][1] if span in self.stats else 0.0

    def self_s(self, span: str) -> float:
        return self.stats[span][2] if span in self.stats else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for name, s in self.stats.items()
                   if name.startswith(layer + "."))

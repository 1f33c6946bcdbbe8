"""Energy-efficient transmit-power policies for remote LQ control.

Computes, analyzes and empirically validates per-slot transmit-power
schedules that minimize the combined control-plus-transmission-energy cost
of a scalar plant reporting its state over a lossy wireless link.
"""

from .model import (
    ChannelParams,
    RecursionTables,
    SystemParams,
    backward_tables,
    compute_tables,
    expected_cost,
    forward_second_moments,
    policy_to_success,
    power_to_success,
    success_to_power,
)
from .optimizer import (
    OptimizationTrace,
    OptimizerConfig,
    optimize_policies,
    optimize_policy,
    slot_candidates,
    stationary_success,
)
from .simulator import (
    SimConfig,
    SimReport,
    baseline_policy,
    monte_carlo_batch,
    monte_carlo_cost,
)

__version__ = "0.1.0"

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
    "OptimizerConfig",
    "OptimizationTrace",
    "stationary_success",
    "slot_candidates",
    "optimize_policies",
    "optimize_policy",
    "SimConfig",
    "SimReport",
    "monte_carlo_cost",
    "monte_carlo_batch",
    "baseline_policy",
    "__version__",
]

"""Set-up probe: time importing lqpower and generating one workload's inputs.

    python3 perfbench/probe_setup.py WORKLOAD SEED SIZE WORKDIR

Prints one JSON line: the seconds taken (net of speed sampling), those
seconds at the host's nominal speed, and the speed.  ``run.py`` starts it in
a fresh interpreter several times per run, so that ``setup_s`` includes the
package's import cost (numpy and scipy among it), which a single warm
process pays only once.  The speed sampler runs its Python part only, as
importing numpy is part of what is timed.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from hostspeed import SpeedSampler  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, size, work = argv
    with SpeedSampler(parts=("python",)) as sampler:
        t0 = time.perf_counter()
        import lqpower.cli  # noqa: F401
        workloads.build(workload, int(seed), Path(work), size)
        dt = time.perf_counter() - t0
    print(json.dumps({"seconds": dt - sampler.spent, "scaled": sampler.scaled(dt),
                      "speed": sampler.speed()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

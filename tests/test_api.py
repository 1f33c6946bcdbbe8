import importlib
import re
from pathlib import Path

import pytest

import lqpower

MODULES = ("model", "optimizer", "simulator", "experiments", "cli")
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", [""] + [f".{name}" for name in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"lqpower{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"lqpower{module}.{name}"


@pytest.mark.parametrize("name", ["coordinate_sweep", "cost_slope",
                                  "expected_cost_enumerated"])
def test_test_oracles_are_not_exported(name):
    for module in [""] + [f".{m}" for m in MODULES]:
        mod = importlib.import_module(f"lqpower{module}")
        assert name not in getattr(mod, "__all__", ()), f"lqpower{module}"
        assert not hasattr(mod, name), f"lqpower{module}"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) >= 3 and "+/-" in printed[-1]

import importlib
import inspect
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


def test_package_re_exports_each_module_list():
    from lqpower import model, optimizer, simulator
    assert lqpower.__all__ == [*model.__all__, *optimizer.__all__, *simulator.__all__,
                               "__version__"]
    for mod in (model, optimizer, simulator):
        for name in mod.__all__:
            assert getattr(lqpower, name) is getattr(mod, name), name


@pytest.mark.parametrize("module", ["model", "optimizer", "simulator", "experiments"])
def test_every_public_function_and_class_is_listed(module):
    mod = importlib.import_module(f"lqpower.{module}")
    public = [name for name, obj in vars(mod).items()
              if (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__ and not name.startswith("_")]
    assert public and set(public) <= set(mod.__all__)


def test_every_experiments_constant_is_listed():
    # the CLI's sweep help reads SWEEP_PARAMETERS
    from lqpower import experiments
    # MISSING, imported from dataclasses, is upper-case but no tuple or dict
    constants = [name for name, obj in vars(experiments).items()
                 if name.isupper() and not name.startswith("_")
                 and isinstance(obj, (tuple, dict))]
    assert "SWEEP_PARAMETERS" in constants
    assert set(constants) <= set(experiments.__all__)

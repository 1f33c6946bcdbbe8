"""tools/same_bytes.py, the check that two source trees give the CLI's
results byte for byte."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
_spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)

COMMAND = ("optimize --preset fig2 --plot",)


def test_a_tree_against_itself(capsys):
    assert same_bytes.compare(SRC, SRC, COMMAND) == 0
    assert capsys.readouterr().out == "same: optimize --preset fig2 --plot (exit 0, 3 files)\n"


def test_a_changed_file_is_named(tmp_path, capsys):
    change = tmp_path / "src"
    shutil.copytree(SRC / "lqpower", change / "lqpower",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = change / "lqpower" / "experiments.py"
    module.write_text(module.read_text().replace('"iteration,cost"', '"iteration,J"'))
    assert same_bytes.compare(SRC, change, COMMAND) == 1
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS: optimize --preset fig2 --plot (exit 0, 3 files)",
        "    file trace.csv: bytes differ"]


def test_every_part_of_a_run_is_compared():
    parent = {"exit status": 0, "stdout": "OUT/a.csv\nOUT/b.csv\n", "stderr": "",
              "files": {"a.csv": b"1", "b.csv": b"2"}}
    change = {"exit status": 1, "stdout": "OUT/a.csv\n", "stderr": "error: x\n",
              "files": {"a.csv": b"3", "c.csv": b"2"}}
    assert same_bytes.differences(parent, parent) == []
    assert same_bytes.differences(parent, change) == [
        "exit status: 0 -> 1",
        "stdout:", "--- parent", "+++ change", "@@ -1,2 +1 @@", " OUT/a.csv", "-OUT/b.csv",
        "stderr:", "--- parent", "+++ change", "@@ -0,0 +1 @@", "+error: x",
        "file a.csv: bytes differ",
        "file b.csv: written by the parent only",
        "file c.csv: written by the change only"]


def test_bad_arguments(tmp_path, capsys):
    assert same_bytes.main([str(SRC)]) == 2
    assert same_bytes.main([str(SRC), str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "error: give two directories that each hold the lqpower package"

"""Check that two source trees give the CLI's results byte for byte.

    python tools/same_bytes.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the lqpower package,
such as the src/ of two checkouts.  Each command of COMMANDS runs once per
tree, as ``python -m lqpower ... --out DIR`` in a fresh interpreter whose
PYTHONPATH is that tree alone, in a new working directory with a new output
directory.  The two runs must write the same files with the same bytes, and
give the same exit status, stdout and stderr; in stdout and stderr the
output directory reads OUT.  Every difference is printed.  The exit status
is 0 when there is none, 1 when there is one, and 2 on bad arguments.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    "figure fig2 --plot",
    "figure fig3 --plot",
    "figure fig4 --plot",
    "optimize --preset fig2 --plot",
    "optimize --plot",
    "compare --preset fig4 --horizons 2:5 --samples 2000 --plot",
    "compare --horizons 0:2 --plot",   # exits 1
    "simulate --preset fig4 --samples 100000",
    "simulate --preset fig4 --samples 1000000",   # forks where two CPUs are usable
    "sweep --preset fig3 --param sigma_d2 --values 0,0.05",
)


def run(src: Path, command: str, work: Path) -> dict:
    """One CLI run of `command` on the package in `src`, under `work`."""
    work.mkdir()
    out = work / "out"
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    proc = subprocess.run([sys.executable, "-m", "lqpower", *command.split(),
                           "--out", str(out)],
                          cwd=work, env=env, capture_output=True, text=True)
    files = {}
    if out.is_dir():
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit status": proc.returncode,
            "stdout": proc.stdout.replace(str(out), "OUT"),
            "stderr": proc.stderr.replace(str(out), "OUT"),
            "files": files}


def differences(parent: dict, change: dict) -> list[str]:
    """Each way the two runs differ, as lines to print."""
    lines = []
    if parent["exit status"] != change["exit status"]:
        lines.append(f"exit status: {parent['exit status']} -> {change['exit status']}")
    for stream in ("stdout", "stderr"):
        if parent[stream] != change[stream]:
            lines.append(f"{stream}:")
            lines += difflib.unified_diff(parent[stream].splitlines(),
                                          change[stream].splitlines(),
                                          "parent", "change", lineterm="")
    files_p, files_c = parent["files"], change["files"]
    for name in sorted(files_p.keys() | files_c.keys()):
        if name not in files_c:
            lines.append(f"file {name}: written by the parent only")
        elif name not in files_p:
            lines.append(f"file {name}: written by the change only")
        elif files_p[name] != files_c[name]:
            lines.append(f"file {name}: bytes differ")
    return lines


def compare(parent_src: Path, change_src: Path, commands=COMMANDS) -> int:
    """Run every command on both trees; print each difference; count them."""
    count = 0
    for command in commands:
        with tempfile.TemporaryDirectory() as tmp:
            runs = [run(src, command, Path(tmp) / label) for label, src in
                    (("parent", parent_src), ("change", change_src))]
        found = differences(*runs)
        count += len(found)
        print(f"{'DIFFERS' if found else 'same'}: {command} "
              f"(exit {runs[0]['exit status']}, {len(runs[0]['files'])} files)")
        for line in found:
            print(f"    {line}")
    return count


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    trees = [Path(a) for a in argv]
    if len(trees) != 2 or not all((t / "lqpower" / "__init__.py").is_file()
                                  for t in trees):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("error: give two directories that each hold the lqpower package",
              file=sys.stderr)
        return 2
    count = compare(*trees)
    print(f"{count} difference(s) in {len(COMMANDS)} commands")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())

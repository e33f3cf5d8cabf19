"""Run the same CLI commands in two checkouts and report every command whose output differs.

    python3 tools/same_output.py --parent ../parent --change .

Each command runs once per checkout as `python -m luinv.cli ...`, with
PYTHONPATH=<checkout>/src, PYTHONDONTWRITEBYTECODE=1 and COLUMNS=80, from
one shared temporary directory that holds the state files, so both sides
read the same files by the same paths.  The commands are:
- the cli workload's commands for seeds 1-3, from perfbench/workloads.py of
  the --change checkout, imported and never written;
- the CLI examples of the README;
- `--help`, no arguments, `dims --bogus`, `dims --k 3 --m 2000` and
  `dims --k 5 --local-dims 2,2 --m 3`;
- the character tables at and past the degree bound (`char-table --m 16`
  and `--m 17`) and `dims --local-dims` at its row cutoffs: a dimension
  of 1 or of m, and m = 0;
- the census class walks `orbits --tuple-length 1` at m = 7, 8, 9 and
  the refused 10, the longer walks `--tuple-length 2 --m 5` and
  `--tuple-length 5 --m 3`, and `subgroups --rank 3 --max-index 4`;
- `transform`, `eval --invariant I` and `--invariant higher --m 2` on
  states with 1-dimensional subsystems (PADDED).
One line is printed per command whose stdout, stderr or exit code differs,
naming which of them do, and a last line on stderr tallies the change's exit
codes; the exit status is 1 if any command differs.
"""

from __future__ import annotations

import argparse
import collections
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile

import numpy as np

SIDES = ("parent", "change")
SEEDS = (1, 2, 3)
FIXED = [
    ["--help"], [], ["dims", "--bogus"], ["dims", "--k", "3", "--m", "2000"],
    ["dims", "--k", "5", "--local-dims", "2,2", "--m", "3"],
    ["char-table", "--m", "16"], ["char-table", "--m", "17"],
    ["dims", "--local-dims", "2,3,16", "--m", "16"], ["dims", "--local-dims", "1,16", "--m", "16"],
    ["dims", "--local-dims", "2,2", "--m", "0"],
    ["orbits", "--tuple-length", "1", "--m", "7"], ["orbits", "--tuple-length", "1", "--m", "8"],
    ["orbits", "--tuple-length", "1", "--m", "9"], ["orbits", "--tuple-length", "1", "--m", "10"],
    ["orbits", "--tuple-length", "2", "--m", "5"], ["orbits", "--tuple-length", "5", "--m", "3"],
    ["subgroups", "--rank", "3", "--max-index", "4"],
]
# dims of the padded states, and the subsets that eval reads on each: with
# and without a 1-dimensional member.
PADDED = {
    "pad1213": ((1, 2, 1, 3), ["", "2,4", "1,2", "1,3"]),
    "pad6x22": ((1,) * 6 + (2, 2), ["", "7,8", "1,7", "1,2"]),
    "pad2122": ((2, 1, 2, 2), ["", "1,3", "3,4", "1,2"]),
    "pad12": ((1,) * 12, ["", "1,2", "11,12"]),
}


def write_pure_state(path: str, dims: tuple[int, ...], seed: int) -> None:
    """A random pure state in the text format of luinv.states.read_state_file."""
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    coeffs /= np.linalg.norm(coeffs)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"pure\ndims {' '.join(map(str, dims))}\n")
        handle.writelines(f"{c.real!r} {c.imag!r}\n" for c in map(complex, coeffs))


def readme_commands(root: str) -> list[list[str]]:
    """The argv of every `luinv ...` line in the README's CLI block."""
    with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
        blocks = re.findall(r"```(\w*)\n(.*?)```", handle.read(), re.S)
    (body,) = [body for kind, body in blocks if not kind and "luinv dims" in body]
    lines = [line.partition(" # ")[0] for line in body.splitlines() if line.strip()]
    return [shlex.split(line)[1:] for line in lines]


def build_commands(change: str, directory: str) -> list[list[str]]:
    """Write every state file under directory and return the command list.
    The README's examples read bell.state and ghz4.state from directory."""
    sys.path.insert(0, os.path.join(change, "perfbench"))
    import workloads

    commands = []
    for seed in SEEDS:
        workloads.write_state_files(os.path.join(directory, f"seed{seed}"), seed)
        commands += [argv for argv, _, _ in workloads.cli_commands(os.path.join(directory, f"seed{seed}"), seed)]
    workloads.write_state_files(directory, SEEDS[0])
    commands += readme_commands(change) + FIXED
    for seed, (name, (dims, subsets)) in enumerate(PADDED.items()):
        path = os.path.join(directory, f"{name}.state")
        write_pure_state(path, dims, seed)
        commands.append(["transform", "--state", path])
        for subset in subsets:
            commands.append(["eval", "--invariant", "I", "--state", path, "--subset", subset])
            commands.append(["eval", "--invariant", "higher", "--state", path, "--subset", subset, "--m", "2"])
    return commands


def run_command(checkout: str, argv: list[str], cwd: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one `python -m luinv.cli` process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1", COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-m", "luinv.cli", *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout, proc.stderr


def differences(commands, parent_results, change_results) -> list[str]:
    """One line per command whose exit code, stdout or stderr differs."""
    lines = []
    for argv, parent, change in zip(commands, parent_results, change_results):
        fields = [name for name, a, b in zip(("exit code", "stdout", "stderr"), parent, change) if a != b]
        if fields:
            lines.append(f"{shlex.join(['luinv', *argv])}: differs in {', '.join(fields)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the changed checkout")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with tempfile.TemporaryDirectory() as directory:
        commands = build_commands(roots["change"], directory)
        results = {side: [run_command(roots[side], c, directory) for c in commands] for side in SIDES}
    lines = differences(commands, results["parent"], results["change"])
    for line in lines:
        print(line)
    codes = collections.Counter(code for code, _, _ in results["change"])
    tally = ", ".join(f"{count} exit {code}" for code, count in sorted(codes.items()))
    print(f"{len(commands)} commands, {len(lines)} differ; the change gave {tally}", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

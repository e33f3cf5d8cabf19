"""Run the benchmark in alternating pairs on two checkouts and write BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --pr 12 \\
        --seeds 1-10 --seconds 55 --claimed library:peak_rss_mib \\
        --change-note "what the change does" --trace-seed 81

For each workload, library and cli, and every seed, `python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0` runs once from the root of each
checkout, one after the other: the parent first for odd seeds, the change
first for even ones, so that drift of a shared host does not favour one
side.  A checkout that holds src/luinv/__pycache__ is refused before any
run: its bytecode would spare that side the compiling that the other
does.  Each run's last stdout line is its result.  The file holds every
pair and, per end-to-end metric, both sides' medians and inclusive quartiles
(statistics.quantiles), the number of pairs in which the change was lower,
and the change of the median relative to the parent's; with --claimed, that
metric's summary also holds the verdict `claim_met`.  Then come one traced
30-s run per workload and side (--trace 1, seed --trace-seed) and one Tier-1
pytest run per side, its summary line tallied by outcome.  It also records
each side's line count of src/luinv/*.py.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
WORKLOADS = ("library", "cli")
TRACE_SECONDS = 30
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
OUTCOMES = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)\b")


def bench_argv(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]


def run_bench(checkout: str, argv: list[str]) -> dict:
    """The result line of one benchmark run, its metrics flattened to values."""
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    flat = {key: result[key] for key in ("correct", "attempted", "failed")}
    flat.update((name, metric["value"]) for name, metric in result["metrics"].items())
    return flat


def run_tier1(checkout: str) -> dict:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH="src" + (os.pathsep + path if path else ""))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, capture_output=True, text=True, env=env)
    seconds = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = tally(tail)
    return {
        "tests": sum(counts.values()),
        "passed": counts.get("passed", 0),
        "exit_code": proc.returncode,
        "pytest_s": round(seconds, 2),
    }


def src_lines(checkout: str) -> int:
    """Lines of the package's modules, src/luinv/*.py."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "luinv", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def tally(tail: str) -> dict:
    """Tests per outcome in pytest's summary line, "error" and "errors" as one."""
    counts = {}
    for n, word in OUTCOMES.findall(tail):
        word = "error" if word.startswith("error") else word
        counts[word] = counts.get(word, 0) + int(n)
    return counts


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[dict], metrics: list[str]) -> dict:
    summary = {}
    for name in metrics:
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        summary[name] = {
            "parent_median": parent_median,
            "parent_quartiles": quartiles(parent),
            "change_median": change_median,
            "change_quartiles": quartiles(change),
            "change_lower_in": f"{sum(c < p for p, c in zip(parent, change))}/{len(pairs)}",
            "median_change": (change_median - parent_median) / parent_median if parent_median else None,
        }
    return summary


def claim_met(parent: list[float], change: list[float]) -> bool:
    """The rule for claiming a gain on a lower-is-better metric: the change
    lower in at least nine tenths of the pairs, ties counting for neither,
    and its median below the parent's by more than the parent's quartile
    spread."""
    lower = sum(c < p for p, c in zip(parent, change))
    q1, q3 = quartiles(parent)
    return 10 * lower >= 9 * len(parent) and statistics.median(parent) - statistics.median(change) > q3 - q1


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the changed checkout")
    parser.add_argument("--pr", required=True, help="suffix of the output file, BENCH_<pr>.json")
    parser.add_argument("--out-dir", default=".", help="where BENCH_<pr>.json is written")
    parser.add_argument("--seeds", required=True, type=seed_range, help="first-last, at least two seeds, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument(
        "--claimed", help="library|cli:metric the change claims to improve, an end_to_end metric"
    )
    parser.add_argument("--change-note", default="", help="one line saying what the change does")
    parser.add_argument("--trace-seed", required=True, type=int, help="seed of the traced runs")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error(f"--seeds needs at least two seeds for quartiles, got {args.seeds}")
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, root in roots.items():
        if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
            parser.error(f"--{side} {root} has no perfbench/run.py")
        stale = os.path.join(root, "src", "luinv", "__pycache__")
        if os.path.isdir(stale):
            parser.error(f"--{side} {root} holds bytecode from an earlier run: {stale}")
    if args.claimed:
        claimed_workload, _, metric = args.claimed.partition(":")
        with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            names = [entry["name"] for entry in json.load(fh)["end_to_end"]]
        if claimed_workload not in WORKLOADS or metric not in names:
            parser.error(
                f"--claimed must be <{'|'.join(WORKLOADS)}>:<an end_to_end metric of the --change "
                f"BENCHMARK.json: {'|'.join(names)}>, got {args.claimed!r}"
            )

    out = {
        "change": args.change_note,
        "command": (
            f"python3 perfbench/run.py --workload <{'|'.join(WORKLOADS)}> --seed <seed> "
            f"--seconds {args.seconds:g} --trace 0"
        ),
        "run_seconds": args.seconds,
        "host": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, Python {platform.python_version()}",
        "method": (
            f"{len(args.seeds)} pairs per workload, parent commit and change each run from its own checkout; "
            "the parent ran first in odd-seed pairs, the change in even-seed pairs; "
            "quartiles are the inclusive method of statistics.quantiles"
        ),
        "src_lines": {side: src_lines(root) for side, root in roots.items()},
    }
    if args.claimed:
        out["claimed"] = {"workload": claimed_workload, "metric": metric}
    out["workloads"] = {}
    for workload in WORKLOADS:
        pairs = []
        for seed in args.seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                log(f"{workload} seed {seed}: {side}")
                pair[side] = run_bench(roots[side], bench_argv(workload, seed, args.seconds, 0))
            pairs.append(pair)
        metrics = [k for k in pairs[0]["parent"] if k not in ("correct", "attempted", "failed")]
        summary = summarize(pairs, metrics)
        if args.claimed and workload == claimed_workload:
            summary[metric]["claim_met"] = claim_met(
                [pair["parent"][metric] for pair in pairs], [pair["change"][metric] for pair in pairs]
            )
        out["workloads"][workload] = {"seeds": args.seeds, "pairs": pairs, "summary": summary}
    out["traced"] = {}
    for workload in WORKLOADS:
        argv = bench_argv(workload, args.trace_seed, TRACE_SECONDS, 1)
        traced = {"command": " ".join(["python3", *argv[1:]]), "first": "parent"}
        for side in SIDES:
            log(f"traced {workload}: {side}")
            traced[side] = run_bench(roots[side], argv)
        out["traced"][workload] = traced
    tier1 = {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"}
    for side in SIDES:
        log(f"tier-1: {side}")
        tier1[side] = run_tier1(roots[side])
    out["tier1"] = tier1
    path = os.path.join(args.out_dir, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    log(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

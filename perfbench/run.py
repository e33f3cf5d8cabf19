"""Benchmark of luinv: two closed-loop workloads from one client.

    python3 perfbench/run.py --workload library --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is taken from `src` with
PYTHONPATH=src, and the CLI is reached as `python -m luinv.cli`.  Every
process is started by this one, one after another, and each is waited for
before the next starts.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join("src", "luinv")
WORK_DIR = os.path.join(".bench_build", "perfbench")
SETUP_PROBES = 3  # extra set-ups per run, so setup_s is a median of several
START_PROBES = 5  # interpreter and import probes per traced run
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Spawner:
    """Starts one process at a time and measures it from outside: wall time
    from spawn to reaping, and its peak RSS from wait4."""

    def __init__(self, work_dir: str) -> None:
        self.env = child_env()
        self.stderr_path = os.path.join(work_dir, "stderr.txt")

    def __call__(self, argv: list[str]) -> tuple[int, str, str, float, float, int]:
        """(exit code, stdout, stderr, start, seconds, peak RSS in KiB)."""
        with open(self.stderr_path, "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env, text=True)
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            err.seek(0)
            return proc.returncode, out, err.read(), start, seconds, usage.ru_maxrss

    def worker(self, *args: str) -> tuple[dict, float]:
        """Run worker.py; (the JSON it printed last, its spawn time)."""
        code, out, err, start, _, _ = self([sys.executable, os.path.join(HERE, "worker.py"), *args])
        if code != 0:
            raise RuntimeError(f"worker {args} exited {code}:\n{err}")
        return json.loads(out.splitlines()[-1]), start


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, report: dict) -> None:
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.errors += report["errors"]
        if report["error_count"] > len(report["errors"]):
            self.errors.append(f"... {report['error_count'] - len(report['errors'])} more")

    def line(self, metrics: dict) -> str:
        for error in self.errors[:20]:
            print(f"check failed: {error}", file=sys.stderr)
        return json.dumps(
            {
                "correct": not self.errors,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )


def rounds(seconds: float, one_round) -> None:
    """Run whole rounds while the next, at the pace of the last, still ends
    within `seconds`; always at least one."""
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now - start + (now - begin) > seconds:
            return


def setup_probes(spawn: Spawner, worker_args: list[str]) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        report, start = spawn.worker(*worker_args, "--setup-only")
        out.append(report["ready"] - start)
    return out


def start_probes(spawn: Spawner) -> dict:
    """Bare interpreter start and in-process `import luinv.cli`, in ms."""
    interp, imports = [], []
    timer = "import time; t = time.perf_counter(); import luinv.cli; print(time.perf_counter() - t)"
    for _ in range(START_PROBES):
        interp.append(spawn([sys.executable, "-c", "pass"])[4])
        code, out, err, *_ = spawn([sys.executable, "-c", timer])
        if code != 0:
            raise RuntimeError(f"import luinv.cli failed:\n{err}")
        imports.append(float(out))
    return {
        "cli.interp_ms": (statistics.median(interp) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(imports) * 1e3, "ms"),
    }


def layer_medians(reports: list[dict]) -> dict:
    names = reports[0]["layers"]
    return {n: (statistics.median(r["layers"][n][0] for r in reports), names[n][1]) for n in names}


def run_library(spawn: Spawner, args, work_dir: str) -> str:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    tally = Tally()
    if args.trace:
        plain, traced = [], []
        spans = os.path.join(work_dir, f"spans-{args.workload}.jsonl")

        def pair():
            for extra, into in ((["--trace", "0"], plain), (["--trace", "1", "--spans", spans], traced)):
                report = spawn.worker(*base, *extra)[0]
                tally.add(report)
                into.append(report)

        rounds(args.seconds, pair)
        if traced[-1]["svd_cols"]:
            print(f"rank-oracle SVD columns per call: {traced[-1]['svd_cols']}", file=sys.stderr)
        metrics = layer_medians(traced)
        metrics.update(start_probes(spawn))
        metrics["cli.main_ms"] = (0.0, "ms")
        metrics["trace_overhead_s"] = (
            statistics.median(r["wall"] for r in traced) - statistics.median(r["wall"] for r in plain),
            "s",
        )
        return tally.line(metrics)

    setups = setup_probes(spawn, base)
    walls, latencies, rss = [], [], []

    def one():
        report, start = spawn.worker(*base, "--trace", "0")
        tally.add(report)
        setups.append(report["ready"] - start)
        walls.append(report["wall"])
        latencies.append(report["done"] - start)
        rss.append(report["rss_kib"])

    rounds(args.seconds, one)
    return tally.line(end_to_end(setups, walls, latencies, rss))


def end_to_end(setups, walls, latencies, rss_kib) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mib": (statistics.median(rss_kib) / 1024.0, "MiB"),
        "proc_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "proc_p80_ms": (percentile(latencies, 80) * 1e3, "ms"),
    }


def run_cli(spawn: Spawner, args, work_dir: str) -> str:
    state_dir = os.path.join(work_dir, "states")
    base = ["--workload", "cli", "--seed", str(args.seed), "--dir", state_dir]
    commands = workloads.cli_commands(state_dir, args.seed)
    tally = Tally()
    if args.trace:
        spawn.worker(*base, "--setup-only")
        reports = []

        def traced():
            report = spawn.worker(*base, "--spans", os.path.join(work_dir, "spans-cli.jsonl"))[0]
            tally.add(report)
            reports.append(report)

        rounds(args.seconds, traced)
        metrics = layer_medians(reports)
        metrics.update(start_probes(spawn))
        metrics["cli.main_ms"] = (statistics.median(statistics.median(r["main_s"]) for r in reports) * 1e3, "ms")
        metrics["trace_overhead_s"] = (
            statistics.median(sum(r["traced_s"]) - sum(r["main_s"]) for r in reports),
            "s",
        )
        return tally.line(metrics)

    setups = setup_probes(spawn, base)
    walls, latencies, rss = [], [], []

    def one():
        report, start = spawn.worker(*base, "--setup-only")
        setups.append(report["ready"] - start)
        outputs, peaks = [], []
        begin = time.perf_counter()
        for argv, _, _ in commands:
            code, out, _, _, seconds, peak = spawn([sys.executable, "-m", "luinv.cli", *argv])
            outputs.append((code, out))
            latencies.append(seconds)
            peaks.append(peak)
        walls.append(time.perf_counter() - begin)
        rss.append(max(peaks))
        failed, errors = 0, []
        for (argv, want_code, check), (code, out) in zip(commands, outputs):
            bad, found = checks.cli_outcome(argv, code, want_code, out, check)
            failed += bad
            errors += found
        tally.add({"attempted": len(commands), "failed": failed, "errors": errors, "error_count": len(errors)})

    rounds(args.seconds, one)
    return tally.line(end_to_end(setups, walls, latencies, rss))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["library", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        print(f"perfbench: no {SRC} here; run from the root of a luinv checkout", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        spawn = Spawner(work_dir)
        if args.workload == "cli":
            line = run_cli(spawn, args, work_dir)
        else:
            line = run_library(spawn, args, work_dir)
    finally:
        keep = [f for f in os.listdir(work_dir) if f.startswith("spans-")]
        for name in keep:
            os.replace(os.path.join(work_dir, name), os.path.join(WORK_DIR, name))
        shutil.rmtree(work_dir)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

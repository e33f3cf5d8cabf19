"""One fresh interpreter of the benchmark: set-up, one timed round, checks.

    python3 perfbench/worker.py --workload library --seed 1 --trace 0
    python3 perfbench/worker.py --workload cli --seed 1 --dir D --setup-only

`run.py` starts this with PYTHONPATH=src and reads the JSON object it
prints last.  `ready` and `done` are `time.perf_counter()` readings, which
on Linux share one monotonic clock with the parent, so the parent can
time set-up from before it spawned this process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

import luinv

import checks
import workloads
from tracer import Tracer, memo_caches

MAX_REPORTED_ERRORS = 20


def _run_checks(thunks) -> list[str]:
    errors = []
    for thunk in thunks:
        try:
            errors += thunk()
        except workloads.Skipped:
            pass
    return errors


def library_round(seed: int, trace: bool, setup_only: bool, spans_path: str | None) -> dict:
    workload = workloads.Library(luinv, seed)
    ready = time.perf_counter()
    if setup_only:
        return {"ready": ready}
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    ops = workload.operations()
    results = workloads.Results()
    failed = 0
    if tracer:
        tracer.recording = True
    start = time.perf_counter()
    for key, op in ops:
        try:
            results[key] = op(results)
        except Exception:  # a failed operation is counted, and the round goes on
            failed += 1
            print(f"operation {key} failed:\n{traceback.format_exc()}", file=sys.stderr)
    done = time.perf_counter()
    if tracer:
        tracer.recording = False
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    errors = _run_checks(workload.checks(results))
    out = {
        "ready": ready,
        "done": done,
        "wall": done - start,
        "rss_kib": rss_kib,
        "attempted": len(ops),
        "failed": failed,
        "errors": errors[:MAX_REPORTED_ERRORS],
        "error_count": len(errors),
    }
    if tracer:
        out["layers"] = tracer.summary()
        out["svd_cols"] = tracer.svd_cols
        if spans_path:
            tracer.dump(spans_path)
    return out


def _cli_pass(main, commands, caches) -> tuple[list[float], int, list[str]]:
    """Run every command through main(argv) in this process, each with
    empty memos as in a fresh process; returns per-command seconds, the
    failed count and check errors."""
    times, failed, errors = [], 0, []
    for argv, want_code, check in commands:
        for cache in caches:
            cache.cache_clear()
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code
        times.append(time.perf_counter() - start)
        bad, found = checks.cli_outcome(argv, code, want_code, out.getvalue(), check)
        failed += bad
        errors += found
    return times, failed, errors


def cli_trace(seed: int, directory: str, spans_path: str | None) -> dict:
    import luinv.cli

    commands = workloads.cli_commands(directory, seed)
    caches = memo_caches()
    _cli_pass(luinv.cli.main, commands, caches)  # warm-up, discarded
    plain, _, plain_errors = _cli_pass(luinv.cli.main, commands, caches)
    tracer = Tracer()
    tracer.install()
    tracer.recording = True
    traced, failed, errors = _cli_pass(luinv.cli.main, commands, caches)
    tracer.recording = False
    errors += plain_errors
    if spans_path:
        tracer.dump(spans_path)
    return {
        "main_s": plain,
        "traced_s": traced,
        "attempted": len(commands),
        "failed": failed,
        "errors": errors[:MAX_REPORTED_ERRORS],
        "error_count": len(errors),
        "layers": tracer.summary(),
        "svd_cols": tracer.svd_cols,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["library", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--dir", help="state-file directory (cli)")
    parser.add_argument("--spans", help="file the traced round's spans are written to")
    args = parser.parse_args()
    if args.workload == "cli":
        if args.setup_only:
            workloads.write_state_files(args.dir, args.seed)
            out = {"ready": time.perf_counter()}
        else:
            out = cli_trace(args.seed, args.dir, args.spans)
    else:
        out = library_round(args.seed, bool(args.trace), args.setup_only, args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

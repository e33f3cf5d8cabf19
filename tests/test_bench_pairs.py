"""The pair runner's argument checks and its summaries, on canned input;
no benchmark or pytest run is started."""

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools"))

import bench_pairs  # noqa: E402


@pytest.fixture
def no_runs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("started a process")

    monkeypatch.setattr(bench_pairs.subprocess, "run", refuse)


def test_seed_range():
    assert bench_pairs.seed_range("1-10") == list(range(1, 11))
    assert bench_pairs.seed_range("3-4") == [3, 4]
    assert bench_pairs.seed_range("5") == [5]
    assert bench_pairs.seed_range("10-1") == []


def checkouts(tmp_path, *options):
    """bench_pairs argv over two empty checkouts with perfbench/run.py and a
    BENCHMARK.json naming two end-to-end metrics."""
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
        benchmark = {
            "end_to_end": [{"name": "wall_s"}, {"name": "peak_rss_mib"}],
            "per_layer": [{"name": "cli.main_ms"}],
        }
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return [
        "bench_pairs.py", "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--pr", "0", "--out-dir", str(tmp_path), "--trace-seed", "1", *options,
    ]


@pytest.mark.parametrize("seeds", ["5", "10-1", "3-3"])
def test_fewer_than_two_seeds_is_a_usage_error(monkeypatch, capsys, tmp_path, no_runs, seeds):
    monkeypatch.setattr(sys, "argv", checkouts(tmp_path, "--seeds", seeds))
    with pytest.raises(SystemExit) as info:
        bench_pairs.main()
    assert info.value.code == 2
    assert "--seeds needs at least two seeds" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_0.json").exists()


@pytest.mark.parametrize(
    "claimed", ["foo", "library:", "library:nope", "gpu:wall_s", "cli:cli.main_ms", ":wall_s"]
)
def test_unknown_claim_is_a_usage_error(monkeypatch, capsys, tmp_path, no_runs, claimed):
    monkeypatch.setattr(sys, "argv", checkouts(tmp_path, "--seeds", "1-2", "--claimed", claimed))
    with pytest.raises(SystemExit) as info:
        bench_pairs.main()
    assert info.value.code == 2
    assert "--claimed must be <library|cli>:<an end_to_end metric" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_0.json").exists()


@pytest.mark.parametrize("side", ["parent", "change"])
def test_checkout_with_bytecode_is_a_usage_error(monkeypatch, capsys, tmp_path, no_runs, side):
    monkeypatch.setattr(sys, "argv", checkouts(tmp_path, "--seeds", "1-2"))
    stale = tmp_path / side / "src" / "luinv" / "__pycache__"
    stale.mkdir(parents=True)
    with pytest.raises(SystemExit) as info:
        bench_pairs.main()
    assert info.value.code == 2
    assert f"--{side} {tmp_path / side} holds bytecode from an earlier run: {stale}" in capsys.readouterr().err
    assert stale.is_dir()
    assert not (tmp_path / "BENCH_0.json").exists()


def test_known_claim_reaches_the_first_run(monkeypatch, tmp_path, no_runs):
    argv = checkouts(tmp_path, "--seeds", "1-2", "--claimed", "cli:peak_rss_mib")
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(AssertionError, match="started a process"):
        bench_pairs.main()


def test_record_holds_each_sides_package_lines(monkeypatch, tmp_path):
    # src/luinv/*.py counts; a data file beside them does not.
    sources = {"parent": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"}, "change": {"a.py": "x = 1\n"}}
    argv = checkouts(tmp_path, "--seeds", "1-2")
    for side, files in sources.items():
        package = tmp_path / side / "src" / "luinv"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
        (package / "notes.txt").write_text("not code\n")
    run = {"correct": True, "attempted": 1, "failed": 0, "wall_s": 1.0}
    monkeypatch.setattr(bench_pairs, "run_bench", lambda checkout, argv: run)
    monkeypatch.setattr(bench_pairs, "run_tier1", lambda checkout: {"tests": 1})
    monkeypatch.setattr(sys, "argv", argv)
    assert bench_pairs.main() == 0
    record = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert record["src_lines"] == {"parent": 3, "change": 1}


def test_claim_verdict_and_a_traced_run_per_workload(monkeypatch, tmp_path):
    # The change reads 1.0 lower in both pairs; the parent's quartiles are 10.25 and 10.75.
    runs = []

    def fake_run(checkout, argv):
        runs.append((os.path.basename(checkout), argv[3], argv[-1]))
        wall = {"2": 10.0, "3": 11.0}.get(argv[5], 0.0) - checkout.endswith("change")
        return {"correct": True, "attempted": 1, "failed": 0, "wall_s": wall, "peak_rss_mib": 1.0}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    monkeypatch.setattr(bench_pairs, "run_tier1", lambda checkout: {"tests": 1})
    monkeypatch.setattr(sys, "argv", checkouts(tmp_path, "--seeds", "2-3", "--claimed", "cli:wall_s"))
    assert bench_pairs.main() == 0
    record = json.loads((tmp_path / "BENCH_0.json").read_text())
    summaries = {w: record["workloads"][w]["summary"] for w in ("library", "cli")}
    assert summaries["cli"]["wall_s"]["claim_met"] is True
    assert "claim_met" not in summaries["cli"]["peak_rss_mib"]
    assert all("claim_met" not in entry for entry in summaries["library"].values())
    assert set(record["traced"]) == {"library", "cli"}
    traced = [(side, workload) for side, workload, trace in runs if trace == "1"]
    assert traced == [("parent", "library"), ("change", "library"), ("parent", "cli"), ("change", "cli")]
    assert record["traced"]["cli"]["command"].startswith("python3 perfbench/run.py --workload cli --seed 1 ")


@pytest.mark.parametrize(
    "parent, change, met",
    [
        ([10.0] * 9 + [10.4], [9.0] * 9 + [10.4], True),  # 9/10 lower, the tie counting for neither
        ([10.0] * 8 + [10.4] * 2, [9.0] * 8 + [10.4] * 2, False),  # 8/10 lower
        ([9.0, 9.5, 10.0, 10.5, 11.0], [7.9, 8.4, 8.9, 9.4, 9.9], True),  # medians 1.1 apart, quartiles 1.0
        ([9.0, 9.5, 10.0, 10.5, 11.0], [8.0, 8.5, 9.0, 9.5, 10.0], False),  # 1.0 apart: not past the spread
        ([1.0, 2.0], [1.5, 1.5], False),
    ],
    ids=["nine-of-ten", "eight-of-ten", "median-past-spread", "median-within-spread", "one-of-two"],
)
def test_claim_met(parent, change, met):
    assert bench_pairs.claim_met(parent, change) is met


def test_summarize():
    pairs = [
        {"parent": {"wall_s": p}, "change": {"wall_s": c}}
        for p, c in [(1.0, 0.5), (2.0, 2.5), (3.0, 1.5), (4.0, 3.5), (5.0, 4.5)]
    ]
    summary = bench_pairs.summarize(pairs, ["wall_s"])["wall_s"]
    assert summary == {
        "parent_median": 3.0,
        "parent_quartiles": [2.0, 4.0],
        "change_median": 2.5,
        "change_quartiles": [1.5, 3.5],
        "change_lower_in": "4/5",
        "median_change": pytest.approx(-1 / 6),
    }
    zero = [{"parent": {"x": 0}, "change": {"x": 1}}] * 2
    assert bench_pairs.summarize(zero, ["x"])["x"]["median_change"] is None


@pytest.mark.parametrize(
    "tail, counts",
    [
        ("418 passed in 11.36s", {"passed": 418}),
        ("410 passed, 3 skipped in 9.80s", {"passed": 410, "skipped": 3}),
        (
            "2 failed, 400 passed, 1 skipped, 1 xfailed, 1 xpassed, 5 warnings, 1 error in 9.0s",
            {"failed": 2, "passed": 400, "skipped": 1, "xfailed": 1, "xpassed": 1, "error": 1},
        ),
        ("3 errors in 0.50s", {"error": 3}),
        ("", {}),
    ],
    ids=["passed", "skipped", "every-outcome", "errors", "empty"],
)
def test_tally_counts_every_outcome(tail, counts):
    assert bench_pairs.tally(tail) == counts


def test_tier1_record_counts_skipped_tests(monkeypatch):
    def fake_run(argv, **kwargs):
        assert argv == bench_pairs.TIER1
        return subprocess.CompletedProcess(argv, 0, stdout="....s\n410 passed, 3 skipped in 9.80s\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    record = bench_pairs.run_tier1(".")
    assert (record["tests"], record["passed"], record["exit_code"]) == (413, 410, 0)

"""The output comparer of tools/same_output.py: one checkout against itself
reports nothing, and a changed stderr line is reported."""

import os
import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])
sys.path.insert(0, os.path.join(ROOT, "tools"))

import same_output  # noqa: E402


def test_a_checkout_against_itself_differs_nowhere(tmp_path):
    path = str(tmp_path / "padded.state")
    same_output.write_pure_state(path, (1, 2, 1, 3), 0)
    commands = [
        ["dims", "--k", "3", "--m", "2"],
        ["dims", "--bogus"],
        ["dims", "--k", "3", "--m", "2000"],
        ["eval", "--invariant", "I", "--state", path, "--subset", "1,2"],
    ]
    results = [[same_output.run_command(ROOT, argv, str(tmp_path)) for argv in commands] for _ in range(2)]
    assert [code for code, _, _ in results[0]] == [0, 2, 3, 0]
    assert results[0][0][1] == "4\n"
    assert results[0][3][1] == "0.000000000\n"  # a subset with a 1-dimensional member
    assert same_output.differences(commands, *results) == []


def test_a_changed_stderr_line_is_reported():
    commands = [["dims", "--k", "3", "--m", "2"], ["dims", "--bogus"]]
    parent = [(0, "4\n", ""), (2, "", "usage: luinv\nluinv: error: bogus\n")]
    change = [(0, "4\n", ""), (2, "", "usage: luinv\nluinv: error: other\n")]
    assert same_output.differences(commands, parent, change) == ["luinv dims --bogus: differs in stderr"]
    assert same_output.differences(commands, parent, [(1, "5\n", "")] + change[1:])[0] == (
        "luinv dims --k 3 --m 2: differs in exit code, stdout"
    )

"""The README's CLI and Library examples, run as written, with every value
their comments state."""

import re
import shlex
from pathlib import Path

import luinv
from luinv.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```(\w*)\n(.*?)```", README, re.S)
STATED = re.compile(r"\([^)]*\)|-?\d+(?:\.\d+)?")


def _block(lang: str, marker: str) -> list[str]:
    (body,) = [body for kind, body in BLOCKS if kind == lang and marker in body]
    return [line for line in body.splitlines() if line.strip()]


def test_readme_cli_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # bell.state by hand; ghz4.state by the README's own state-file example.
    luinv.write_state_file("bell.state", luinv.ghz_state(2))
    exec("\n".join(_block("python", "write_state_file")), {})
    checked = []
    for line in _block("", "luinv dims"):
        command, _, comment = line.partition(" # ")
        argv = shlex.split(command)
        assert argv[0] == "luinv"
        assert main(argv[1:]) == 0, command
        out = capsys.readouterr().out
        assert out, command
        stated = re.search(r"prints (\S+)", comment)
        if stated:
            assert out == stated.group(1) + "\n", command
            checked.append(stated.group(1))
    assert checked == ["4"]


def test_readme_library_block():
    namespace = {}
    names = {name: getattr(luinv, name) for name in luinv.__all__}
    checked = []
    for line in _block("python", "luinv.stable_dimension"):
        code, _, comment = line.partition(" # ")
        if not comment:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        stated = eval(STATED.match(comment.strip()).group())
        if isinstance(stated, float):
            assert abs(value - stated) <= 1e-12, code
        else:
            assert value == stated, code
        if " = " in comment:  # the comment names the route it equals
            assert value == eval(comment.split(" = ", 1)[1], names), code
        checked.append(stated)
    assert checked == [11, (1, 3, 7, 26), 26, 1.0, 6]

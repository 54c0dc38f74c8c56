"""The README's Library quickstart runs and prints what its comments say,
ratered.__all__ is the API it documents, and its CLI block runs."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import ratered
from ratered import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_prints_its_commented_outputs(capsys):
    code = _quickstart()
    # Each "# -> text" comment is the next printed line; "..." ends the
    # part of text that the line must start with.
    expected = re.findall(r"# -> (.*)", code)
    assert len(expected) == code.count("print(") == 2
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected)
    for line, comment in zip(printed, expected):
        if "..." in comment:
            assert line.startswith(comment.split("...", 1)[0]), (line, comment)
        else:
            assert line == comment


def test_all_is_the_documented_api():
    imported = re.search(r"from ratered import \((.*?)\)", _quickstart(), re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert names and names <= set(ratered.__all__)
    text = README.read_text()
    for name in ratered.__all__:
        exported = getattr(ratered, name)
        # a function is exported only when README documents it, a class as
        # a type that such a function takes, returns or raises
        assert isinstance(exported, type) or name in names or f"`{name}(" in text, name


def test_cli_block_runs_and_writes_its_files(tmp_path, capsys):
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["ratered", "run"], ["ratered", "certify"], ["ratered", "sweep-delta"],
        ["ratered", "oracle-check"]]
    written = [
        {"field_k1.csv", "field_k2.csv", "field_k3.csv", "field_max.csv", "trace.csv",
         "slice_p3_0.csv", "metadata.json"},
        {"certify_report.json"},
        {"sweep_trace.csv", "sweep_trace.svg", "sweep_report.json"},
        {"oracle_report.json"},
    ]
    seen = set()
    for argv, files in zip(commands, written):
        args = [str(tmp_path) + arg[3:] if arg.startswith("out/") else arg
                for arg in argv[1:]]
        assert cli.main(args) == 0, argv
        now = {path.name for path in tmp_path.iterdir()}
        assert now - seen == files, argv
        seen = now
    assert "error" not in capsys.readouterr().err

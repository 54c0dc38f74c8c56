"""The README's Library quickstart runs and prints what its comments say,
and ratered.__all__ is the API it documents."""

from __future__ import annotations

import re
from pathlib import Path

import ratered

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

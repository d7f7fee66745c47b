"""The public package: its documented examples and its exception classes."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import opflow
from opflow import ConfigError, DataError, cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_runs_on_the_fixture(fixtures_dir, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert '"news.jsonl"' in block
    exec(block.replace('"news.jsonl"', repr(str(fixtures_dir / "corpus.jsonl"))), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "2016-06-10 2016-07-18 0.842"


def test_readme_command_lines_parse():
    # a flag an example uses that the parser no longer knows fails here
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    commands = [
        shlex.split(line, comments=True)
        for line in "".join(blocks).replace("\\\n", " ").splitlines()
        if line.startswith("opflow ")
    ]
    assert len(commands) == 6
    assert {words[1] for words in commands} == set(cli.COMMANDS)
    parser = cli.build_parser()
    for words in commands:
        parser.parse_args(words[1:])


def test_each_exit_status_has_one_exception_class():
    # cli.main picks the exit status by class, so no module subclasses the two
    for info in pkgutil.iter_modules(opflow.__path__):
        module = importlib.import_module(f"opflow.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls not in (ConfigError, DataError):
                assert not issubclass(cls, (ConfigError, DataError)), f"{module.__name__}.{name}"

"""The README's code must at least import what it names, and its CLI
examples must parse with the current flags."""

import re
import shlex
from pathlib import Path

import stabledyn
from stabledyn.cli import _preprocess, build_parser
from stabledyn.systems import SYSTEMS

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading, lang=""):
    text = README.read_text()
    section = text[text.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_example_imports_resolve():
    block = _block("## Library", "python")
    imports = [ln for ln in block.splitlines() if ln.startswith(("import ", "from "))]
    assert imports
    exec("\n".join(imports), {})


def test_every_exported_name_resolves():
    # a stale entry in __all__ breaks `from stabledyn import *` and nothing else
    missing = [name for name in stabledyn.__all__ if not hasattr(stabledyn, name)]
    assert not missing
    exec("from stabledyn import *", {})


def test_cli_examples_parse():
    block = _block("## CLI").replace("\\\n", " ")
    commands = [ln for ln in block.splitlines() if ln.startswith("stabledyn ")]
    assert len(commands) == 6
    parser, _ = build_parser()
    for line in commands:
        args = parser.parse_args(_preprocess(shlex.split(line)[1:]))
        assert args.command == line.split()[1]


def test_reference_systems_list_the_library_table():
    line = next(ln for ln in README.read_text().splitlines()
                if ln.startswith("Reference systems:"))
    assert re.findall(r"`([^`]+)`", line) == list(SYSTEMS)

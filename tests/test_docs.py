"""The README: every form and template it shows parses, its Python API
list names exactly the package exports, its CLI table lists exactly the
options of each subcommand, and each command it shows prints what it
shows."""

import argparse
import re
import shlex
from importlib import resources
from pathlib import Path

import loft
from loft import parse_logic_form, print_logic_form
from loft.cli import build_parser, main
from loft.templates import parse_template

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE_RE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
# a whole line, or a double-quoted string, spelled name { ... }
EXAMPLE_RE = re.compile(r'^\s*([A-Za-z_]+ \{.*\})\s*$|"([A-Za-z_]+ \{[^"]*\})"', re.M)
PLACEHOLDER_RE = re.compile(r"\b(COL|OBJ|ORD)_\d+\b")
# the bullet list of the "Python API" section, up to the next heading
API_RE = re.compile(r"^## Python API\n.*?\n(- .*?)^#", re.M | re.S)
# a row of the "CLI reference" table: | `loft <command> <usage>` | ... |
CLI_ROW_RE = re.compile(r"^\| `loft ([\w-]+)([^`]*)` \|", re.M)
# a shown command, `$ loft <args>` with backslash-continued lines, and the
# lines it prints up to the next blank line, command or fence
COMMAND_RE = re.compile(r"^\$ loft ((?:.*\\\n)*.*)\n((?:[^$`\n].*\n)*)", re.M)


def readme_examples():
    examples = []
    for block in FENCE_RE.findall(README.read_text(encoding="utf-8")):
        for line, quoted in EXAMPLE_RE.findall(block):
            examples.append(line or quoted)
    return examples


def test_readme_examples_parse():
    examples = readme_examples()
    templates = [text for text in examples if PLACEHOLDER_RE.search(text)]
    forms = [text for text in examples if text not in templates]
    assert len(forms) >= 4 and len(templates) >= 1
    for text in forms:
        assert print_logic_form(parse_logic_form(text)) == text
    for text in templates:
        assert parse_template(text).canonical() == text


def test_readme_lists_exactly_the_exports():
    bullets = API_RE.search(README.read_text(encoding="utf-8")).group(1)
    listed = re.findall(r"`(\w+)`", bullets)
    assert sorted(listed) == sorted(loft.__all__)


def test_readme_cli_table_lists_exactly_the_options():
    listed = {
        command: sorted(set(re.findall(r"--[\w-]+", usage)))
        for command, usage in CLI_ROW_RE.findall(README.read_text(encoding="utf-8"))
    }
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    defined = {
        command: sorted(
            option for action in sub._actions for option in action.option_strings
            if option.startswith("--") and option != "--help"
        )
        for command, sub in subparsers.choices.items()
    }
    assert listed == defined


def test_readme_commands_print_what_the_readme_shows(capsys):
    # the Quick start runs them on the demo copy of the bundled corpus
    corpus = str(resources.files("loft.data").joinpath("sample_corpus.jsonl"))
    commands = COMMAND_RE.findall(README.read_text(encoding="utf-8"))
    assert [shlex.split(command)[0] for command, _ in commands] == [
        "execute", "execute", "realize"]
    for command, printed in commands:
        argv = shlex.split(command.replace("\\\n", " "))
        assert main([corpus if arg == "demo/corpus.jsonl" else arg for arg in argv]) == 0
        assert capsys.readouterr().out == printed, command

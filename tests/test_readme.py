"""The README's examples, run.

Each ```python block of README.md is a doctest session, and each
`$ milnor ...` line of a console block is a CLI call whose output is the
lines under it; running them keeps the documented API, commands and
their printed results in step with the code.
"""

import doctest
import pathlib
import re
import shlex

import pytest

from milnor import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
FENCED = re.findall(r"^```(\w*)\n(.*?)^```$", TEXT, flags=re.DOTALL | re.MULTILINE)
BLOCKS = [block for language, block in FENCED if language == "python"]
#: (arguments, printed text) of each `$ milnor` line of a block with no
#: language: the text runs to the next `$ ` line or the end of the block,
#: without trailing blank lines.
CONSOLE = [(shlex.split(command), output.rstrip("\n") + "\n")
           for language, block in FENCED if not language
           for command, output in re.findall(
               r"^\$ milnor (.*)\n((?:(?!\$ ).*\n)*)", block, flags=re.MULTILINE)]


def test_readme_has_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    test = doctest.DocTestParser().get_doctest(
        BLOCKS[index], {}, "README.md[{}]".format(index), str(README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert test.examples and result.failed == 0


def test_readme_has_console_examples():
    assert [argv[0] for argv, _ in CONSOLE] == ["solve", "isotropy", "glue"]


@pytest.mark.parametrize("argv, printed", CONSOLE,
                         ids=[" ".join(argv) for argv, _ in CONSOLE])
def test_readme_console_example_prints_its_output(argv, printed, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == printed

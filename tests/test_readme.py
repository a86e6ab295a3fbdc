"""The README's Python examples, run as doctests.

Each ```python block of README.md is a doctest session; running them
keeps the documented API and its printed results in step with the code.
"""

import doctest
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


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

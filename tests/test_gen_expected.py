"""The pinned expected values against their independent generator.

tools/gen_expected.py derives every pinned table from standalone formulas,
not through the library; its `build()` must reproduce the committed file.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_committed_expected_values_match_the_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_expected", ROOT / "tools" / "gen_expected.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    committed = (ROOT / "src" / "milnor" / "data" / "expected.json").read_text(
        encoding="utf-8")
    assert tool.build() == committed

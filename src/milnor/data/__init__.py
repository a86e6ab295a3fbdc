"""Pinned reference values for the reproduction subcommands.

expected.json is generated by tools/gen_expected.py, which re-derives
every entry from standalone formulas (it does not call into the library's
main code paths), so `milnor repro` genuinely diffs two routes.
"""

import json
import os


def load_expected():
    # Read through the package's own loader, which also reads from a zip:
    # importlib.resources would load typing, pathlib, zipfile and tempfile.
    path = os.path.join(os.path.dirname(__file__), "expected.json")
    return json.loads(__spec__.loader.get_data(path).decode("utf-8"))

"""Pinned reference values for the reproduction subcommands.

expected.json is generated by tools/gen_expected.py, which re-derives
every entry from standalone formulas (it does not call into the library's
main code paths), so `milnor repro` genuinely diffs two routes.

The file is parsed once per process: load_expected returns the same
mapping on every call. Only this reference side is kept; `milnor repro`
recomputes every entry it compares on every call.
"""

import json
import os

_EXPECTED = None


def load_expected():
    """The pinned values, parsed on the first call and shared by every
    later one. Read-only: a caller that wants a changed copy copies it."""
    global _EXPECTED
    if _EXPECTED is None:
        # Read through the package's own loader, which also reads from a
        # zip: importlib.resources would load typing, pathlib, zipfile and
        # tempfile.
        path = os.path.join(os.path.dirname(__file__), "expected.json")
        _EXPECTED = json.loads(__spec__.loader.get_data(path).decode("utf-8"))
    return _EXPECTED

"""Instrumented stand-in for `python -m milnor.cli ARGS` (traced cli-cold).

Runs the same `milnor.cli.main(ARGS)` and prints the same output, then
writes one tab-separated record to stderr: the tag `clichild` and a JSON
object with its spans (layer, name, start, end in perf_counter seconds,
which on Linux share one monotonic clock with the parent), the number of
loaded modules and whether numpy is among them.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv):
    spans = []
    start = time.perf_counter()
    import milnor.cli as cli
    spans.append(("cli", "import", start, time.perf_counter()))
    load = cli.load_expected

    def timed_load():
        t = time.perf_counter()
        try:
            return load()
        finally:
            spans.append(("data", "load_expected", t, time.perf_counter()))

    cli.load_expected = timed_load
    start = time.perf_counter()
    code = cli.main(argv)
    spans.append(("cli", "main", start, time.perf_counter()))
    sys.stdout.flush()
    record = {"t0": _T0, "spans": spans, "modules": len(sys.modules),
              "numpy": "numpy" in sys.modules}
    print("clichild\t" + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

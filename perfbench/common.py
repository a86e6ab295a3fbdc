"""Records and child-process helpers shared by run.py and the workloads."""

import os
import subprocess
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: One BLAS/OpenMP thread everywhere, in this process and its children.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

Op = namedtuple("Op", "name kind call check")
Op.__doc__ = """One operation: call(tracer) runs it and returns its result
(tracer is None outside the traced pass); check(result) returns a Verdict.
`kind` groups operations for per-kind medians."""


class Verdict(namedtuple("Verdict", "ok defect counts")):
    """ok: the output matched its truth. defect: when not ok, the name of
    the known milnor defect this failure belongs to, or None for an
    unexpected failure. counts: exact counters read off the result."""
    __slots__ = ()

    def __new__(cls, ok, defect=None, counts=None):
        return super().__new__(cls, bool(ok), None if ok else defect,
                               counts or {})


def child_env():
    """Environment for child processes: milnor from ./src, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.update(THREAD_ENV)
    return env


def run_child(argv):
    """Run one child to completion and return its CompletedProcess. The
    benchmark never has more than one child at a time."""
    return subprocess.run(argv, env=child_env(), cwd=str(ROOT),
                          capture_output=True, text=True, timeout=120,
                          check=False)

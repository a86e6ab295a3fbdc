"""milnor benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload labels --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; milnor is imported from ./src. Each
workload is a closed loop: one client, one operation at a time, in one
process (cli-cold runs its operations as child processes, one at a time).
Every output is checked against perfbench/truth.py or another route the
library does not share; failed checks are counted, never dropped.

--trace 0 runs as many whole cycles as fill --seconds at the workload's
nominal pace and reports the end-to-end metrics. Times are scaled to a
nominal host speed by a reference kernel timed between operations
(hostspeed.py); the raw figures are printed beside them.
--trace 1 runs a fixed list of cycles twice, untraced then traced with
spans around every call into a milnor module, checks that the exact
counters agree between the two passes, prints a self-time table and
reports the per-layer metrics. The last stdout line is the JSON result.
"""

import time

import hostspeed

#: Host-speed samples taken just before and just after set-up.
SETUP_SAMPLES = 5
hostspeed.sample(SETUP_SAMPLES)
_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

from common import HERE, ROOT, SRC, THREAD_ENV, Verdict, run_child  # noqa: E402

OUT = ROOT / ".perfbench_out"
os.environ.update(THREAD_ENV)

WORKLOADS = {
    "cli-cold": "wl_cli",
    "labels": "wl_labels",
    "geometry": "wl_geometry",
    "certify": "wl_certify",
}

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"), ("pass_ratio", "ratio"), ("peak_rss_mb", "MB"),
)

#: Per-layer metrics; see perfbench/README.md for each definition.
PER_LAYER = (
    ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.cpu_ms", "ms"),
    ("cli.wait_ms", "ms"), ("cli.modules_loaded", "count"),
    ("cli.numpy_loaded", "flag"), ("cli.handler_ms", "ms"),
    ("data.load_ms", "ms"), ("cli_int_p50_ms", "ms"),
    ("cli_num_p50_ms", "ms"),
    ("liealg.calls", "count"), ("liealg.elems", "count"),
    ("liealg.self_ms", "ms/op"), ("liealg.ns_per_elem", "ns"),
    ("deform.closed_form_planes", "count"),
    ("deform.closed_form_ns_per_plane", "ns"),
    ("deform.oracle_samples", "count"), ("deform.oracle_us_per_sample", "us"),
    ("deform.scan_valid_ratio", "ratio"), ("deform.search_evals", "count"),
    ("deform.search_evals_per_s", "1/s"), ("deform.search_found", "count"),
    ("deform.search_hit_ratio", "ratio"), ("deform.search_self_ms", "ms"),
    ("deform.scipy_ms", "ms/op"), ("search_p50_ms", "ms"),
    ("oracle_p50_ms", "ms"), ("scan_p50_ms", "ms"),
    ("glue.profile_ms", "ms"), ("glue.grid_points", "count"),
    ("glue.cert_ms", "ms"), ("glue.cert_self_ms", "ms"),
    ("glue.clauses_failed", "count"),
    ("bundles.solve_calls", "count"), ("bundles.solutions", "count"),
    ("bundles.solve_us_small", "us"), ("bundles.solve_ms_large", "ms"),
    ("bundles.self_ms", "ms/op"),
    ("classify.calls", "count"), ("classify.us_per_call", "us"),
    ("isotropy.orbit_types_us", "us"), ("isotropy.table42_us", "us"),
    ("isotropy.lift_ms", "ms"), ("isotropy.lift_tuples", "count"),
    ("isotropy.self_ms", "ms/op"),
    ("trace.overhead_ratio", "ratio"),
)

#: Per-point evaluators that glue calls from its own grid loops and no
#: other layer calls; a pass-through wrapper on each would more than
#: double the traced time of a certificate.
UNTRACED = tuple("glue.ProfileFunction." + m for m in (
    "value", "derivative", "second_derivative", "value_sq", "disc_curvature",
    "sample"))

#: Counters that must repeat exactly for the same code, seed and length.
EXACT = ("cli.modules_loaded", "deform.search_evals", "deform.search_found",
         "glue.grid_points", "glue.clauses_failed", "bundles.solutions",
         "isotropy.lift_tuples")


def environment():
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return dict(versions, nproc=os.cpu_count(), cpu=cpu,
                python=platform.python_version(), threads="1 (BLAS/OpenMP)")


# -- the closed loop ----------------------------------------------------------


class Phase:
    """Latencies, verdicts and counters of one pass over the operations."""

    def __init__(self):
        self.starts = []
        self.lat = []
        self.scaled = []
        self.kinds = []
        self.failed = 0
        self.unexpected = []
        self.defects = Counter()
        self.counts = Counter()
        self.cycles = 0

    def record(self, op, start, seconds, verdict):
        self.starts.append(start)
        self.lat.append(seconds)
        self.kinds.append(op.kind)
        self.counts.update(verdict.counts)
        if not verdict.ok:
            self.failed += 1
            if verdict.defect:
                self.defects[verdict.defect] += 1
            else:
                self.unexpected.append(op.name)

    def scale(self):
        """Latencies at nominal host speed; see hostspeed.py."""
        self.scaled = [t * hostspeed.factor(s, s + t)
                       for s, t in zip(self.starts, self.lat)]

    def kind_p50_ms(self, *kinds):
        vals = [t for t, k in zip(self.scaled, self.kinds) if k in kinds]
        return 1e3 * statistics.median(vals) if vals else 0.0

    def kind_total(self, *kinds):
        return sum(t for t, k in zip(self.scaled, self.kinds) if k in kinds)


def run_op(op, phase, tracer=None):
    span = tracer.begin_op(op.kind) if tracer else None
    start = time.perf_counter()
    try:
        result = op.call(tracer)
        error = None
    except Exception as exc:  # a milnor error on a valid input is a failure
        result, error = None, exc
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end_op(span)
    if error is None:
        verdict = op.check(result)
    else:
        verdict = Verdict(False)
        print("error in {}: {!r}".format(op.name, error), file=sys.stderr)
    phase.record(op, start, elapsed, verdict)


def run_cycles(wl, state, cycles, tracer=None):
    """A fixed number of whole cycles. The count never depends on how fast
    the machine is, so two runs of the same code and seed attempt the same
    operations and fail the same ones."""
    phase = Phase()
    while phase.cycles < cycles:
        for op in wl.cycle(state, phase.cycles):
            hostspeed.maybe_sample()
            run_op(op, phase, tracer)
        phase.cycles += 1
    hostspeed.sample()
    phase.scale()
    return phase


def timed_cycles(wl, seconds):
    """Cycles of the timed run: as many as fill `seconds` at the
    workload's nominal pace (CYCLE_S)."""
    return max(1, round(seconds / wl.CYCLE_S))


# -- metrics ------------------------------------------------------------------


def window_rates(lat, window):
    """Throughput of each run of `window` consecutive operations."""
    return [window / sum(lat[i:i + window])
            for i in range(0, len(lat) - window + 1, window)]


def end_to_end(lat, failed, window, setup_s, peak_rss_kb):
    """ops_per_s is the median window throughput, so a few seconds of
    contention from outside the benchmark move it less than a mean would."""
    n = len(lat)
    ordered = sorted(lat)
    tail_index = max(n - 11, 0)
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(window_rates(lat, window)),
        "op_p50_ms": 1e3 * statistics.median(ordered),
        "op_tail_ms": 1e3 * ordered[tail_index],
        "pass_ratio": (n - failed) / n,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }, 100.0 * (tail_index + 1) / n


def setup_probe_times(workload, seed, count):
    """Set-up times, scaled and raw, of `count` fresh processes doing this
    workload's set-up."""
    times = []
    for _ in range(count):
        res = run_child([sys.executable, str(HERE / "run.py"), "--workload",
                         workload, "--seed", str(seed), "--setup-probe"])
        if res.returncode != 0:
            raise RuntimeError("set-up probe failed: " + res.stderr[-500:])
        times.append(tuple(float(x) for x in res.stdout.split()[-2:]))
    return times


def startup_probes():
    """The start-up floor and milnor's import, each in fresh processes."""
    interp = []
    for _ in range(5):
        t = time.perf_counter()
        run_child([sys.executable, "-c", "pass"])
        interp.append(time.perf_counter() - t)
    imports = []
    for _ in range(3):
        res = run_child([sys.executable, "-c",
                         "import time; t = time.perf_counter(); import milnor; "
                         "print(time.perf_counter() - t)"])
        imports.append(float(res.stdout))
    loaded = [clichild_info(run_child(
        [sys.executable, str(HERE / "clichild.py"), "solve", "105", "--json"]))
        for _ in range(2)]
    return {"cli.interp_ms": 1e3 * statistics.median(interp),
            "cli.import_ms": 1e3 * statistics.median(imports),
            "cli.modules_loaded": loaded[0]["modules"],
            "cli.numpy_loaded": int(loaded[0]["numpy"]),
            "modules_repeat": loaded[0]["modules"] == loaded[1]["modules"]}


def clichild_info(res):
    """The record clichild.py writes as the last stderr line."""
    tag, _, payload = res.stderr.rstrip("\n").rpartition("\n")[2].partition("\t")
    if tag != "clichild":
        raise RuntimeError("instrumented CLI child failed: " + res.stderr[-500:])
    return json.loads(payload)


def milnor_layers():
    return {layer: importlib.import_module("milnor." + layer)
            for layer in ("cli", "data", "liealg", "deform", "glue", "bundles",
                          "classify", "isotropy")}


def per_layer(plain, traced, tracer, probes):
    red = tracer.reduce()
    ops = len(traced.lat)
    counts = traced.counts
    notes = tracer.notes

    def calls(name):
        return red.get(name, (0, 0.0, 0.0, 0))[0]

    def incl(name):
        return red.get(name, (0, 0.0, 0.0, 0))[1]

    def own(name):
        return red.get(name, (0, 0.0, 0.0, 0))[2]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    layers = tracer.layer_table(red)

    def layer_self(layer):
        return layers.get(layer, (0, 0.0, 0.0))[2]

    lie_calls, _, lie_self = layers.get("liealg", (0, 0.0, 0.0))
    lie_elems = sum(row[3] for key, row in red.items() if key.startswith("liealg."))
    searches = counts["deform.searches"]
    search_s = plain.kind_total("search")
    cert_calls = calls("glue.nonneg_certificate")
    cert_children = tracer.descendant_time(
        "glue.nonneg_certificate", ("deform", "liealg"))
    out = dict(probes)
    out.update({
        "cli.cpu_ms": ratio(plain.counts["cli.cpu_s"], plain.counts["cli.calls"], 1e3),
        "cli.wait_ms": ratio(plain.counts["cli.wall_s"] - plain.counts["cli.cpu_s"],
                             plain.counts["cli.calls"], 1e3),
        "cli.handler_ms": ratio(incl("cli.main"), calls("cli.main"), 1e3),
        "data.load_ms": ratio(incl("data.load_expected"),
                              calls("data.load_expected"), 1e3),
        "cli_int_p50_ms": plain.kind_p50_ms("int"),
        "cli_num_p50_ms": plain.kind_p50_ms("num"),
        "liealg.calls": lie_calls,
        "liealg.elems": lie_elems,
        "liealg.self_ms": ratio(lie_self, ops, 1e3),
        "liealg.ns_per_elem": ratio(lie_self, lie_elems, 1e9),
        "deform.closed_form_planes": notes["scan_planes"],
        "deform.closed_form_ns_per_plane": ratio(
            notes["scan_s"], notes["scan_planes"], 1e9),
        "deform.oracle_samples": notes["oracle_samples"],
        "deform.oracle_us_per_sample": ratio(
            notes["oracle_s"], notes["oracle_samples"], 1e6),
        "deform.scan_valid_ratio": ratio(notes["scan_valid"], notes["scan_planes"]),
        "deform.search_evals": counts["deform.search_evals"],
        "deform.search_evals_per_s": ratio(counts["deform.search_evals"], search_s),
        "deform.search_found": counts["deform.search_found"],
        "deform.search_hit_ratio": ratio(counts["deform.search_found"], searches),
        "deform.search_self_ms": ratio(own("deform.find_negative_plane"),
                                       calls("deform.find_negative_plane"), 1e3),
        "deform.scipy_ms": ratio(incl("scipy.minimize") + incl("scipy.null_space"),
                                 ops, 1e3),
        "search_p50_ms": plain.kind_p50_ms("search"),
        "oracle_p50_ms": plain.kind_p50_ms("oracle"),
        "scan_p50_ms": plain.kind_p50_ms("scan"),
        "glue.profile_ms": ratio(incl("glue.ProfileFunction.capped_sine"),
                                 calls("glue.ProfileFunction.capped_sine"), 1e3),
        "glue.grid_points": counts["glue.grid_points"],
        "glue.cert_ms": ratio(incl("glue.nonneg_certificate"), cert_calls, 1e3),
        "glue.cert_self_ms": ratio(incl("glue.nonneg_certificate") - cert_children,
                                   cert_calls, 1e3),
        "glue.clauses_failed": counts["glue.clauses_failed"],
        "bundles.solve_calls": calls("bundles.solve_euler"),
        "bundles.solutions": counts["bundles.solutions"],
        "bundles.solve_us_small": ratio(notes["solve_small_s"],
                                        notes["solve_small"], 1e6),
        "bundles.solve_ms_large": ratio(notes["solve_large_s"],
                                        notes["solve_large"], 1e3),
        "bundles.self_ms": ratio(layer_self("bundles"), ops, 1e3),
        "classify.calls": layers.get("classify", (0,))[0],
        "classify.us_per_call": ratio(layers.get("classify", (0, 0.0))[1],
                                      layers.get("classify", (0,))[0], 1e6),
        "isotropy.orbit_types_us": ratio(incl("isotropy.orbit_types"),
                                         calls("isotropy.orbit_types"), 1e6),
        "isotropy.table42_us": ratio(incl("isotropy.table_42"),
                                     calls("isotropy.table_42"), 1e6),
        "isotropy.lift_ms": ratio(incl("isotropy.find_almost_free_lift"),
                                  calls("isotropy.find_almost_free_lift"), 1e3),
        "isotropy.lift_tuples": counts["isotropy.lift_tuples"],
        "isotropy.self_ms": ratio(layer_self("isotropy"), ops, 1e3),
        "trace.overhead_ratio": ratio(sum(plain.scaled), sum(traced.scaled)),
    })
    return out, layers


def _notes():
    """Counters read off results inside the traced phase, for calls the
    benchmark does not make itself (glue's scan, isotropy's solves)."""
    def scan(tr, args, kwargs, result, dur):
        tr.notes["scan_planes"] += result.n_planes
        tr.notes["scan_valid"] += result.n_valid
        tr.notes["scan_s"] += dur

    def oracle(tr, args, kwargs, result, dur):
        samples = kwargs.get("samples", args[1] if len(args) > 1 else 64)
        tr.notes["oracle_samples"] += samples
        tr.notes["oracle_s"] += dur

    def solve(tr, args, kwargs, result, dur):
        k = abs(args[0])
        if k < 10 ** 6:
            tr.notes["solve_small"] += 1
            tr.notes["solve_small_s"] += dur
        elif k >= 10 ** 9:
            tr.notes["solve_large"] += 1
            tr.notes["solve_large_s"] += dur

    return {"deform.scan_min_sectional": scan,
            "deform.DeformedMetric.oracle_agreement": oracle,
            "bundles.solve_euler": solve}


def _liealg_elems():
    import numpy as np

    def elems(args):
        for a in args:
            if type(a) is np.ndarray:
                return a.size // (a.shape[-1] * a.shape[-2]) if a.ndim >= 2 else 1
        return 1

    return {"liealg": elems}


def print_layer_table(workload, layers, ops, overhead):
    total = sum(row[2] for row in layers.values())
    print("self time by layer, workload {} ({} traced ops, "
          "trace.overhead_ratio {:.3f})".format(workload, ops, overhead))
    print("  {:<10} {:>9} {:>12} {:>7}".format("layer", "spans", "self ms/op", "share"))
    for layer in sorted(layers, key=lambda name: -layers[name][2]):
        calls, _, own = layers[layer]
        print("  {:<10} {:>9} {:>12.4f} {:>6.1%}".format(
            layer, calls, 1e3 * own / ops, own / total if total else 0.0))


def trace_cycles(wl, seconds):
    """Cycles per pass of the traced run: both passes, traced one slower,
    fit in about `seconds`. Depends only on `seconds`, so the exact
    counters of two runs with the same seed and length can be compared."""
    return max(1, int(seconds / (2.5 * wl.CYCLE_S)))


def source_digest():
    """Hash of the milnor sources and this benchmark: exact counters are
    only comparable between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted(list((SRC / "milnor").rglob("*.py"))
                       + list((SRC / "milnor").rglob("*.json"))
                       + list(HERE.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def same_as_last_run(name, counters):
    """Compare exact counters with the last run of the same code, seed and
    length, if there was one, and remember these."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "exact-{}.json".format(name)
    key = source_digest()
    if path.is_file():
        last = json.loads(path.read_text())
        if last["key"] == key and last["counters"] != counters:
            print("exact counters differ from the last run: {} vs {}".format(
                last["counters"], counters), file=sys.stderr)
            return False
    path.write_text(json.dumps({"key": key, "counters": counters}, sort_keys=True))
    return True


# -- entry point --------------------------------------------------------------


def measure(args, wl, state, setup):
    """--trace 0: the timed loop and the end-to-end metrics."""
    setups = [setup]
    if wl.IN_PROCESS:
        setups += setup_probe_times(args.workload, args.seed, 4)
    phase = run_cycles(wl, state, timed_cycles(wl, args.seconds))
    who = resource.RUSAGE_SELF if wl.IN_PROCESS else resource.RUSAGE_CHILDREN
    rss_kb = resource.getrusage(who).ru_maxrss
    metrics, pct = end_to_end(phase.scaled, phase.failed, wl.RATE_WINDOW,
                              statistics.median(s for s, _ in setups), rss_kb)
    raw, _ = end_to_end(phase.lat, phase.failed, wl.RATE_WINDOW,
                        statistics.median(r for _, r in setups), rss_kb)
    kernel = hostspeed.samples()
    print("workload {} seed {}: {} ops in {} cycles, {:.1f} s of operations".format(
        args.workload, args.seed, len(phase.lat), phase.cycles, sum(phase.lat)))
    print("host speed: reference kernel p50 {:.1f} us over {} samples, "
          "nominal {:.1f} us".format(1e6 * statistics.median(kernel), len(kernel),
                                     1e6 * hostspeed.NOMINAL_S))
    print("set-up samples, scaled (raw): " + ", ".join(
        "{:.3f} ({:.3f})".format(s, r) for s, r in setups))
    print("raw, unscaled: " + ", ".join(
        "{} {:.4f}".format(k, raw[k]) for k in ("setup_s", "ops_per_s",
                                                 "op_p50_ms", "op_tail_ms")))
    print("op_tail_ms is p{:.2f} of {} samples".format(pct, len(phase.lat)))
    for kind in sorted(set(phase.kinds)):
        print("  {:<12} n={:<6} p50 {:.3f} ms".format(
            kind, phase.kinds.count(kind), phase.kind_p50_ms(kind)))
    units = dict(END_TO_END)
    return phase, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, True


def trace(args, wl, state):
    """--trace 1: an untraced and a traced pass over the same cycles, the
    per-layer metrics and the exact-counter checks."""
    from spans import Tracer
    cycles = trace_cycles(wl, args.seconds)
    probes = startup_probes()
    repeat_ok = probes.pop("modules_repeat")
    plain = run_cycles(wl, state, cycles)
    layers = milnor_layers()
    tracer = Tracer()
    tracer.install(layers, elems=_liealg_elems(), notes=_notes(),
                   extra=[("scipy", layers["deform"], "minimize"),
                          ("scipy", layers["deform"], "null_space")],
                   skip=UNTRACED)
    try:
        traced = run_cycles(wl, state, cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    exact = {k: plain.counts[k] for k in EXACT if k in plain.counts}
    exact_traced = {k: traced.counts[k] for k in EXACT if k in traced.counts}
    passes_ok = exact == exact_traced
    if not passes_ok:
        print("exact counters differ between passes: {} vs {}".format(
            exact, exact_traced), file=sys.stderr)
    exact["cli.modules_loaded"] = probes["cli.modules_loaded"]
    runs_ok = same_as_last_run("{}-seed{}-{}s".format(
        args.workload, args.seed, args.seconds), exact)
    values, by_layer = per_layer(plain, traced, tracer, probes)
    print_layer_table(args.workload, by_layer, len(traced.lat),
                      values["trace.overhead_ratio"])
    OUT.mkdir(exist_ok=True)
    path = OUT / "spans-{}-seed{}.tsv.gz".format(args.workload, args.seed)
    tracer.write(path)
    print("{} spans written to {}".format(len(tracer.start), path.relative_to(ROOT)))
    print("exact counters: " + json.dumps(exact, sort_keys=True))
    traced.unexpected += plain.unexpected
    units = dict(PER_LAYER)
    report = {k: {"value": values[k], "unit": units[k]} for k in units}
    return traced, report, passes_ok and runs_ok and repeat_ok


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up seconds and exit")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "milnor" / "__init__.py").is_file():
        print("error: no milnor source at {}; run from the root of a "
              "checkout".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = importlib.import_module(WORKLOADS[args.workload])
    state = wl.setup(args.seed)
    setup_end = time.perf_counter()
    hostspeed.sample(SETUP_SAMPLES)
    raw_setup = setup_end - _T0
    setup = (raw_setup * hostspeed.factor(_T0, setup_end), raw_setup)
    if args.setup_probe:
        print(*setup)
        return 0

    print("environment: " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        phase, report, counters_ok = trace(args, wl, state)
    else:
        phase, report, counters_ok = measure(args, wl, state, setup)
    for name, count in sorted(phase.defects.items()):
        print("known defect {}: {} failed operations".format(name, count))
    for name in phase.unexpected:
        print("UNEXPECTED failure: " + name)
    print(json.dumps({
        "correct": not phase.unexpected and counters_ok,
        "attempted": len(phase.lat),
        "failed": phase.failed,
        "metrics": report,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

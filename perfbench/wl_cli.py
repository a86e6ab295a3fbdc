"""cli-cold: fresh `python -m milnor.cli ARGS --json` processes, one at a
time, with ./src on the path.

One cycle runs each of the 16 subcommand forms once, arguments drawn
from the seed: the integer subcommands solve, canonical, euler, classify,
isotropy, table42, ek, diffeo, brieskorn, rp5, s7class, cohomology and
`repro all` (kind "int"), and the numeric glue, curvature-scan and
curvature-scan --find-negative (kind "num"). Set-up makes one untimed
warm-up call per subcommand, which fills the bytecode caches. A CLI user
pays interpreter start and imports on every call; import and packaging
changes show here and almost nowhere else.
"""

import json
import math
import random
import resource
import sys
import time
from fractions import Fraction

import hostspeed
import truth
from common import HERE, Op, Verdict, run_child
from wl_certify import OUTSIDE_A, rational_in_window
from wl_geometry import (A_VALUES, KNOWN_MISSES, NONNEG_FLOOR, ORACLE_GAP,
                         SPLITS, negative_plane_exists)

IN_PROCESS = False
CYCLE_S = 9.0
#: The subcommands cost about the same, so short windows suffice.
RATE_WINDOW = 4
#: --find-negative cases the scan phase settles, so the call costs the
#: same for every seed; the search misses themselves are measured on
#: the geometry workload.
FIND_CASES = ((2, "diagonal", Fraction(4, 3)),
              (2, "diagonal", Fraction(4, 3) + Fraction(1, 100)),
              (2, "diagonal", Fraction(3, 2)), (2, "span-i", Fraction(3, 2)),
              (3, "span-i", Fraction(3, 2)))


class State:
    def __init__(self, seed):
        self.seed = seed


def setup(seed):
    state = State(seed)
    for op in cycle(state, 0):
        hostspeed.maybe_sample()
        op.call(None)
    return state


def _label(rng, bound):
    return 4 * rng.randint(-bound // 4, bound // 4) + 1


def _frac(x):
    return str(x.numerator) if x.denominator == 1 else "{}/{}".format(
        x.numerator, x.denominator)


def _invoke(argv, tracer):
    """Run one CLI process; with a tracer, run the instrumented stand-in
    and attach its spans under the current operation."""
    if tracer is None:
        cmd = [sys.executable, "-m", "milnor.cli"] + argv + ["--json"]
    else:
        cmd = [sys.executable, str(HERE / "clichild.py")] + argv + ["--json"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    res = run_child(cmd)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if tracer is not None:
        tag, _, payload = res.stderr.rstrip("\n").rpartition("\n")[2].partition("\t")
        if tag == "clichild":
            record = json.loads(payload)
            tracer.add_child_spans(
                [("python", "startup", start, record["t0"])]
                + [tuple(s) for s in record["spans"]])
    return res.returncode, res.stdout, cpu, wall


def _op(kind, argv, check):
    def verdict(res):
        code, out, cpu, wall = res
        counts = {"cli.calls": 1, "cli.cpu_s": cpu, "cli.wall_s": wall}
        try:
            payload = json.loads(out)
        except ValueError:
            return Verdict(False, None, counts)
        ok, defect = check(code, payload)
        return Verdict(ok, defect, counts)

    return Op("milnor " + " ".join(argv), kind,
              lambda tr: _invoke(argv, tr), verdict)


def _ok(cond):
    return bool(cond), None


def cycle(state, index):
    rng = random.Random("cli-cold:{}:{}".format(state.seed, index))
    ops = []

    def add(kind, argv, check):
        ops.append(_op(kind, [str(a) for a in argv], check))

    k = int(10 ** rng.uniform(0, 6)) * rng.choice((1, -1))
    add("int", ["solve", k], lambda c, p, k=k: _ok(
        c == 0 and {tuple(s) for s in p["solutions"]} == truth.euler_solutions(k)))
    k = rng.randint(-10 ** 6, 10 ** 6)
    add("int", ["canonical", k], lambda c, p, k=k: _ok(
        c == 0 and truth.euler(*p["solution"]) == k))
    pm, pp = _label(rng, 10 ** 4), _label(rng, 10 ** 4)
    add("int", ["euler", pm, pp], lambda c, p, pm=pm, pp=pp: _ok(
        c == 0 and p["k"] == truth.euler(pm, pp)))
    labels = [_label(rng, 10 ** 4) for _ in range(4)]
    add("int", ["classify"] + labels, lambda c, p, t=labels: _ok(
        c == 0 and _check_classify(t, p)))
    labels = [_label(rng, 10 ** 4) for _ in range(4)]
    add("int", ["isotropy"] + labels, lambda c, p, t=labels: _ok(
        c == 0 and set(p["types"]) == truth.type_labels(truth.label_orders(*t))))
    k, l = rng.randint(-60, 60), rng.randint(-60, 60)
    n = rng.randint(-20, 20)
    argv = ["table42", k, l] + (["--n", n] if l == 0 else [])
    add("int", argv, lambda c, p, k=k, l=l, n=n: _ok(
        c == 0 and p["closed_form_orders"] == truth.table42_orders(k, l, n)
        and set(p["types"]) == truth.type_labels(truth.table42_orders(k, l, n))))
    k = rng.randint(-10 ** 9, 10 ** 9)
    add("int", ["ek", k], lambda c, p, k=k: _ok(
        c == 0 and p["class_mod_28"] == truth.boundary_class(k)))
    k = rng.randint(-10 ** 6, 10 ** 6)
    m = rng.choice((k, 1 - k)) + 56 * rng.randint(-100, 100) \
        if rng.random() < 0.5 else rng.randint(-10 ** 6, 10 ** 6)
    add("int", ["diffeo", k, m], lambda c, p, k=k, m=m: _ok(
        c == 0 and p["diffeomorphic"] == (truth.boundary_class(k) == truth.boundary_class(m))))
    n, d = 2 * rng.randint(1, 40) + 1, 2 * rng.randint(0, 500) + 1
    add("int", ["brieskorn", n, d], lambda c, p, n=n, d=d: _ok(
        c == 0 and _check_brieskorn(n, d, p)))
    d = 2 * rng.randint(0, 10 ** 4) + 1
    add("int", ["rp5", d], lambda c, p, d=d: _ok(
        c == 0 and p["diffeo_residue"] == d % 8
        and p["exotic_candidate"] == (d % 8 != 1)))
    k = rng.randint(-10 ** 9, 10 ** 9)
    add("int", ["s7class", k], lambda c, p, k=k: _ok(
        c == 0 and p["class_mod_12"] == (k * (k + 1) // 2) % 12))
    kind = ("principal3", "sphere2", "sphere3", "principal33")[(index + state.seed) % 4]
    k, l = rng.randint(-10 ** 4, 10 ** 4), rng.randint(-10 ** 4, 10 ** 4)
    add("int", ["cohomology", kind, k, l], lambda c, p, kind=kind, k=k, l=l: _ok(
        c == 0 and _check_cohomology(kind, k, l, p)))
    add("int", ["repro", "all"], lambda c, p: _ok(c == 0 and p["ok"]))

    # Odd cycles glue outside the window, where Defect 1 can fail the
    # check; those arguments depend on the cycle index alone, so every run
    # seed attempts and fails the same calls.
    outside = index % 2 == 1
    draw = random.Random("cli-cold-outside:{}".format(index)) if outside else rng
    f = draw.randint(1, 3)
    a = draw.choice(OUTSIDE_A) if outside else rational_in_window(rng)
    r = Fraction(draw.randint(1, 8), draw.randint(1, 4))
    add("num", ["glue", "--a", _frac(a), "--r", _frac(r), "--factors", f,
                "--seed", draw.randrange(2 ** 31)],
        lambda c, p, a=a: _check_glue(a, c, p))
    # su(2)^3 on even cycles: the largest child sets peak_rss_mb, so every
    # run should contain one.
    case = (3 - index % 2, rng.choice(SPLITS), rng.choice(A_VALUES))
    add("num", ["curvature-scan", "--algebra", "su2^{}".format(case[0]),
                "--subalgebra", case[1], "--a", _frac(case[2]),
                "--seed", rng.randrange(2 ** 31)],
        lambda c, p, case=case: _ok(c == 0 and _check_scan(case, p)))
    case = rng.choice(FIND_CASES)
    add("num", ["curvature-scan", "--algebra", "su2^{}".format(case[0]),
                "--subalgebra", case[1], "--a", _frac(case[2]), "--find-negative",
                "--seed", rng.randrange(2 ** 31)],
        lambda c, p, case=case: _check_find(case, c, p))
    rng.shuffle(ops)
    return ops


def _check_classify(t, p):
    k, l = truth.euler(t[0], t[2]), -truth.euler(t[1], t[3])
    return (p["k"], p["l"], p["euler_number"], p["homotopy_sphere"],
            p["torsion_order"]) == (k, l, k + l, abs(k + l) == 1, abs(k))


def _check_brieskorn(n, d, p):
    standard = d % 8 in (1, 7)
    exotic = not standard and (n + 1) & n != 0
    return (p["dimension"] == 2 * n - 1 and p["exotic"] == exotic
            and p["verdict"] == ("standard_sphere" if standard else "kervaire_sphere"))


def _check_cohomology(kind, k, l, p):
    want = {"principal3": truth.torsion_group(k), "sphere2": "Z",
            "sphere3": truth.torsion_group(k + l),
            "principal33": truth.torsion_group(math.gcd(k, l))}[kind]
    return dict((d, g) for d, g in p["groups"]).get(4, "0") == want


def _check_glue(a, code, p):
    in_window = 1 < a <= Fraction(4, 3)
    if p["passed"] != in_window or code != (0 if in_window else 4):
        return False, None
    nonneg = {c["name"]: c["passed"] for c in p["clauses"]}["metric_nonneg"]
    if not in_window and nonneg:
        return False, "defect1-sampled-nonneg"
    return True, None


def _check_scan(case, p):
    ok = 0.0 <= p["oracle_max_gap"] <= ORACLE_GAP
    if negative_plane_exists(*case) is False:
        ok = ok and p["min_sectional"] >= NONNEG_FLOOR
    return ok


def _check_find(case, code, p):
    if not p["negative_plane_found"]:
        return False, KNOWN_MISSES.get(case)
    value, oracle = p["negative_value"], p["oracle_value"]
    return (code == 0 and value < 0 and oracle < 0
            and abs(value - oracle) <= ORACLE_GAP * max(1.0, abs(value))), None

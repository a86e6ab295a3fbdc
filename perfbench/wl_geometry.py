"""geometry: the numeric core in-process (liealg, deform).

Cases are (algebra su(2)^n, split, a) with n in {2, 3}, splits diagonal,
factor0 and span-i, and a in A_VALUES. Every operation builds its own
split and DeformedMetric, as a user script would, so the Koszul set-up
is paid inside it.

One cycle is 16 find_negative_plane searches, 6 oracle_agreement calls
and 30 scan_min_sectional calls, each with a seeded rng seed. The ten
searches with a known negative plane are in every cycle: some find it in
the scan phase, some only after Nelder-Mead descent. Their search seeds
depend on the cycle index and not on the run seed. Six controls, three
per algebra, are drawn from the cases whose curvature is provably
nonnegative; they never find a plane and use up their whole budget.
Oracle and scan cases are drawn from all 48 cases, half per algebra.

The counts place op_p50_ms in the middle of the scan block: below it sit
the 5 searches settled in the scan phase and the 6 oracle calls, above
it the 11 searches that descend. Scans take fewer planes on su(2)^3 so
that a scan costs about the same on both algebras, and the median does
not sit on the step between two costs.
"""

import random
from fractions import Fraction

from common import Op, Verdict

IN_PROCESS = True
CYCLE_S = 4.2
RATE_WINDOW = 52
SEARCH_BUDGET = 2000
ORACLE_SAMPLES = 32
SCAN_PLANES = {2: 10000, 3: 6000}
ORACLE_GAP = 1e-8
NONNEG_FLOOR = -1e-9

A_VALUES = (Fraction(1, 2), Fraction(1), Fraction(10001, 10000),
            Fraction(1001, 1000), Fraction(21, 20), Fraction(4, 3),
            Fraction(4, 3) + Fraction(1, 100), Fraction(3, 2))
SPLITS = ("diagonal", "factor0", "span-i")
WITNESS_CASES = tuple((2, "diagonal", a) for a in A_VALUES if a > 1) + tuple(
    (n, "span-i", a) for n in (2, 3) for a in A_VALUES if a > Fraction(4, 3))

#: Searches that fail at this commit, by the known defect they show.
KNOWN_MISSES = {
    # Defect 2: the fixed threshold -1e-10 sits below the true minimum,
    # which scales like (a - 1)^3. It misses at a = 1.0001 for every seed
    # and at a = 1.001 for about one seed in six.
    (2, "diagonal", Fraction(10001, 10000)): "defect2-absolute-threshold",
    (2, "diagonal", Fraction(1001, 1000)): "defect2-absolute-threshold",
    # Just past a = 4/3 the negative planes are shallow (coefficient
    # 1 - 3a/4 = -0.0075) and the descent misses them for about one seed
    # in eight (su(2)^2) or three (su(2)^3) at this budget.
    (2, "span-i", Fraction(4, 3) + Fraction(1, 100)): "search-misses-past-4/3",
    (3, "span-i", Fraction(4, 3) + Fraction(1, 100)): "search-misses-past-4/3",
}


def negative_plane_exists(n, split, a):
    """True/False where it is proven, None where no proof is at hand.

    a <= 1: every term of the closed form is nonnegative. factor0: the
    metric is a product of round factors. span-i: the shrunk block is
    abelian, nonnegative up to a = 4/3 and negative on m beyond it.
    diagonal of su(2)^2 at a > 1: negative_plane_witness's plane."""
    if a <= 1 or split == "factor0":
        return False
    if split == "span-i":
        return a > Fraction(4, 3)
    return True if n == 2 else None


class State:
    def __init__(self, seed):
        from milnor import deform, liealg
        self.deform, self.liealg = deform, liealg
        self.seed = seed
        self.controls = {n: [(n, s, a) for s in SPLITS for a in A_VALUES
                             if negative_plane_exists(n, s, a) is False]
                         for n in (2, 3)}
        self.cases = {n: [(n, s, a) for s in SPLITS for a in A_VALUES]
                      for n in (2, 3)}


def setup(seed):
    state = State(seed)
    cycle(state, 0)
    return state


def _metric(state, case):
    n, split, a = case
    alg = state.liealg.Su2Power(n)
    if split == "diagonal":
        sp = state.liealg.ReductiveSplit.diagonal(alg)
    elif split == "factor0":
        sp = state.liealg.ReductiveSplit.factor(alg, 0)
    else:
        direction = alg.zero()
        direction[0, 0] = 1.0
        sp = state.liealg.ReductiveSplit.circle(alg, direction)
    return state.deform.DeformedMetric(sp, a)


def _name(what, case, seed):
    n, split, a = case
    return "{} su2^{} {} a={} seed={}".format(what, n, split, a, seed)


def cycle(state, index):
    rng = random.Random("geometry:{}:{}".format(state.seed, index))
    d = state.deform
    searches = list(WITNESS_CASES)
    for n in (2, 3):
        searches += rng.sample(state.controls[n], 3)
    ops = []
    for case in searches:
        s = rng.randrange(2 ** 31)
        if case in WITNESS_CASES:
            s = _witness_seed(case, index)
        ops.append(Op(_name("search", case, s), "search",
                      lambda tr, c=case, s=s: d.find_negative_plane(
                          _metric(state, c), budget=SEARCH_BUDGET, seed=s),
                      lambda res, c=case: _check_search(c, res)))
    for n, count, kind in ((2, 3, "oracle"), (3, 3, "oracle"),
                           (2, 15, "scan"), (3, 15, "scan")):
        for case in rng.sample(state.cases[n], count):
            s = rng.randrange(2 ** 31)
            if kind == "oracle":
                ops.append(Op(_name("oracle", case, s), kind,
                              lambda tr, c=case, s=s: _metric(state, c).oracle_agreement(
                                  samples=ORACLE_SAMPLES, seed=s),
                              lambda res: Verdict(0.0 <= res <= ORACLE_GAP)))
            else:
                ops.append(Op(_name("scan", case, s), kind,
                              lambda tr, c=case, s=s: d.scan_min_sectional(
                                  _metric(state, c), n_planes=SCAN_PLANES[c[0]], seed=s),
                              lambda res, c=case: _check_scan(c, res)))
    rng.shuffle(ops)
    return ops


def _witness_seed(case, index):
    """The search seed of a witness case depends on the cycle alone: these
    searches are most of a cycle's time and hold all its known misses, so
    every run seed then does the same search work and fails the same
    searches."""
    n, split, a = case
    return random.Random("geometry-witness:{}:{}:{}:{}".format(
        n, split, a, index)).randrange(2 ** 31)


def _check_search(case, res):
    counts = {"deform.searches": 1, "deform.search_evals": res.evaluations,
              "deform.search_found": int(res.found)}
    if negative_plane_exists(*case):
        gap = abs(res.value - res.oracle_value)
        ok = (res.found and res.value < 0 and res.oracle_value < 0
              and gap <= ORACLE_GAP * max(1.0, abs(res.value)))
    else:
        ok = not res.found
    return Verdict(ok, None if res.found else KNOWN_MISSES.get(case), counts)


def _check_scan(case, res):
    ok = 1 <= res.n_valid <= res.n_planes == SCAN_PLANES[case[0]]
    if negative_plane_exists(*case) is False:
        ok = ok and res.min_value >= NONNEG_FLOOR
    return Verdict(ok)

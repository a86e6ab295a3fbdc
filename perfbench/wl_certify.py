"""certify: disc-profile gluing certificates in-process (glue, deform).

One operation builds ProfileFunction.capped_sine(a, r, grid_step), runs
nonneg_certificate against the span-i split of su(2)^f and evaluates
orbit_metric_factor at the plateau. One cycle is the 12 combinations of
f in {1, 2, 3}, a inside (1, 4/3] or just outside it, and grid_step
t_plateau/1000 (the default) or t_plateau/10000. Inside the window, a,
r and the scan seed are drawn from the run seed. Outside it, a walks
OUTSIDE_A and r and the scan seed depend on the cycle index alone: those
are the operations that can fail (Defect 1), so every run seed attempts
and fails the same ones. The f = 3, default-grid, outside slot is always
a = 4/3 + 1/100, Defect 1's setting.
"""

import math
import random
from fractions import Fraction

from common import Op, Verdict

IN_PROCESS = True
CYCLE_S = 0.3
RATE_WINDOW = 12
PLANES = 10_000
DEFECT1_A = Fraction(4, 3) + Fraction(1, 100)
OUTSIDE_A = (Fraction(4, 3) + Fraction(1, 100), Fraction(4, 3) + Fraction(1, 50),
             Fraction(27, 20), Fraction(7, 5), Fraction(3, 2))


class State:
    def __init__(self, seed):
        from milnor import deform, glue, liealg
        self.deform, self.glue, self.liealg = deform, glue, liealg
        self.seed = seed


def setup(seed):
    state = State(seed)
    cycle(state, 0)
    return state


def rational_in_window(rng):
    """A rational in (1, 4/3]."""
    q = rng.randint(3, 40)
    return Fraction(rng.randint(q + 1, 4 * q // 3), q)


def cycle(state, index):
    rng = random.Random("certify:{}:{}".format(state.seed, index))
    fixed = random.Random("certify-outside:{}".format(index))
    ops = []
    for f in (1, 2, 3):
        for fine in (False, True):
            for outside in (False, True):
                if outside:
                    slot = 3 * index + 2 * f + fine
                    a = DEFECT1_A if f == 3 and not fine else \
                        OUTSIDE_A[slot % len(OUTSIDE_A)]
                else:
                    a = rational_in_window(rng)
                draw = fixed if outside else rng
                r = Fraction(draw.randint(1, 8), draw.randint(1, 4))
                t_plateau = math.pi / 2 * float(r) * math.sqrt(a / (a - 1))
                step = t_plateau / 10000 if fine else None
                seed = draw.randrange(2 ** 31)
                ops.append(Op(
                    "certificate su2^{} span-i a={} r={} grid={} seed={}".format(
                        f, a, r, "fine" if fine else "default", seed), "cert",
                    lambda tr, f=f, a=a, r=r, step=step, seed=seed: _certify(
                        state, f, a, r, step, seed),
                    lambda res, a=a: _check(a, res)))
    rng.shuffle(ops)
    return ops


def _certify(state, factors, a, r, step, seed):
    profile = state.glue.ProfileFunction.capped_sine(a, r, grid_step=step)
    algebra = state.liealg.Su2Power(factors)
    direction = algebra.zero()
    direction[0, 0] = 1.0
    metric = state.deform.DeformedMetric(
        state.liealg.ReductiveSplit.circle(algebra, direction), a)
    cert = state.glue.nonneg_certificate(profile, metric, planes=PLANES, seed=seed)
    factor = state.glue.orbit_metric_factor(profile, profile.t_plateau)
    return profile, cert, factor


def _check(a, res):
    """PASS exactly inside the window; past 4/3 the span-i metric has
    negative planes (the plane m itself has curvature (1 - 3a/4)|[A,B]|^2),
    so the sampled metric_nonneg clause must fail there too."""
    profile, cert, factor = res
    counts = {"glue.grid_points": len(profile.grid),
              "glue.clauses_failed": len(cert.failed())}
    in_window = 1 < a <= Fraction(4, 3)
    ok = (cert.passed == in_window and type(factor) is Fraction and factor == 1)
    if not ok:
        return Verdict(False, None, counts)
    if not in_window and cert.clause("metric_nonneg").passed:
        return Verdict(False, "defect1-sampled-nonneg", counts)
    return Verdict(True, counts=counts)

"""Rotationally symmetric disc profiles and the boundary-matching
certificate for the two-disc gluing.

The codimension-two gluing needs, on each half, a metric of the form
dt^2 + f(t)^2 dtheta^2 on the normal disc, warped against a deformed
group metric. The profile f must close the disc smoothly (f(0) = 0,
f'(0) = 1), stay concave so the disc curvature -f''/f is nonnegative,
and become constant before the boundary so the metric is a product there.
The constant it must reach is pinned by the deformation: with subalgebra
scale a > 1 and gluing-circle radius r, the boundary metrics of the two
halves agree exactly when f^2 hits the matching level a r^2 / (a - 1).
That level only exists for a > 1, and the group side only stays
nonnegatively curved (abelian shrunk block) for a <= 4/3, which is why
the whole construction lives in the window 1 < a <= 4/3.
"""

import csv
import math
from collections import namedtuple

import numpy as np

from .deform import MAX_PLANES, scan_min_sectional
from .errors import (NoFiniteMatchingError, ParameterError, ProfileError,
                     as_fraction, require_count)

#: The plateau values F = r sqrt(a/(a-1)) that glue_params accepts: those
#: on which building, certifying and exporting a capped-sine profile runs
#: in floats without overflow. Measured with `milnor glue --csv` under
#: warnings-as-errors for a from 1 + 1e-9 to 1e3, and for 1e5 and 1e6
#: near both ends: at F = 1e-155 the disc curvature -f''/f = 1/F^2
#: overflows, and past about 1.3e154 so does F^2.
PLATEAU_MIN = 1e-154
PLATEAU_MAX = 1e154


def matching_level_sq(a, r):
    """Square of the plateau value: a r^2 / (a - 1).

    Exact (Fraction) when a and r are rational; requires a > 1 for a
    finite level and r > 0.
    """
    aq, rq = as_fraction(a), as_fraction(r)
    exact = aq is not None and rq is not None
    a, r = (aq, rq) if exact else (float(a), float(r))
    if r <= 0:
        raise ParameterError("radius r must be positive")
    if a <= 1:
        raise NoFiniteMatchingError(
            "no finite matching level for a <= 1 (got a = {})".format(
                a if exact else format(a, ".6g")))
    return a / (a - 1) * r * r


def matching_level(a, r):
    """Plateau value F = r sqrt(a/(a-1)) (always a float), for the (a, r)
    glue_params accepts."""
    return glue_params(a, r).plateau


class GlueParams(namedtuple("GlueParams",
                            "a r plateau plateau_sq t_plateau")):
    """Gluing data: subalgebra scale a, gluing-circle radius r, and the
    derived plateau. plateau_sq is kept exact when a, r are rational."""
    __slots__ = ()


def _show(x):
    """x to six digits for a message; an exact x may not fit a float."""
    from decimal import Decimal  # only a refusal pays for the import

    q = as_fraction(x)
    return "{:.6g}".format(Decimal(x) if q is None
                           else Decimal(q.numerator) / q.denominator)


def glue_params(a, r):
    """GlueParams for scale a and radius r; raises ParameterError when the
    plateau lies outside [PLATEAU_MIN, PLATEAU_MAX]."""
    psq = matching_level_sq(a, r)
    if not PLATEAU_MIN ** 2 <= psq <= PLATEAU_MAX ** 2:
        raise ParameterError(
            "a = {} and r = {} put the plateau r sqrt(a/(a-1)) outside "
            "[{:g}, {:g}]".format(_show(a), _show(r), PLATEAU_MIN, PLATEAU_MAX))
    plateau = math.sqrt(float(psq))
    return GlueParams(a=a, r=r, plateau=plateau, plateau_sq=psq,
                      t_plateau=math.pi * plateau / 2.0)


class ProfileFunction:
    """Piecewise-smooth warping profile, sampled once on a grid.

    value, derivative and second_derivative are vectorized closed forms
    for f, f', f'': a float array goes in, an array of its shape comes
    out, and a scalar return (``lambda t: 0.0``) is broadcast. Each runs
    once, on the grid (step grid_step, running past the plateau) and the
    join points t_plateau -+ 1e-9 t_plateau; validate() and the
    certificate read those samples. Constructed profiles are validated
    unless validate=False, which exists so that tests can feed broken
    profiles to the certificate.
    """

    def __init__(self, value, derivative, second_derivative, t_plateau,
                 plateau, grid_step=None, plateau_sq=None, glue=None,
                 validate=True):
        if t_plateau <= 0 or plateau <= 0:
            raise ParameterError("plateau data must be positive")
        self._f = value
        self._fp = derivative
        self._fpp = second_derivative
        self.t_plateau = float(t_plateau)
        self.plateau = float(plateau)
        self.plateau_sq = plateau_sq if plateau_sq is not None \
            else float(plateau) ** 2
        self.glue = glue
        if grid_step is None:
            grid_step = self.t_plateau / 1000.0
        if grid_step <= 0 or grid_step >= self.t_plateau:
            raise ParameterError("grid_step must be in (0, t_plateau)")
        self.grid_step = float(grid_step)
        n = int(math.ceil(1.25 * self.t_plateau / self.grid_step))
        self.grid = np.arange(n + 1) * self.grid_step
        eps = 1e-9 * self.t_plateau
        self._ts = np.append(self.grid, (self.t_plateau - eps,
                                         self.t_plateau + eps))
        # rows f, f', f'' at _ts
        self._samples = np.empty((3, self._ts.size))
        for row, fn in zip(self._samples, (value, derivative, second_derivative)):
            row[:] = fn(self._ts)
        self._samples.flags.writeable = False
        if validate:
            self.validate()

    @classmethod
    def capped_sine(cls, a, r, grid_step=None):
        """F sin(t/F) up to the quarter period t0 = pi F / 2, constant F
        beyond, where F is the matching level for (a, r). The join is C^1:
        f' runs down to 0 at t0 while f'' jumps from -1/F to 0, so
        concavity holds weakly and the disc curvature -f''/f drops from
        1/F^2 to 0.
        """
        params = glue_params(a, r)
        F = params.plateau
        t0 = params.t_plateau

        def value(t):
            return np.where(t < t0, F * np.sin(t / F), F)

        def derivative(t):
            return np.where(t < t0, np.cos(t / F), 0.0)

        def second_derivative(t):
            return np.where(t < t0, -np.sin(t / F) / F, 0.0)

        return cls(value, derivative, second_derivative, t_plateau=t0,
                   plateau=F, grid_step=grid_step,
                   plateau_sq=params.plateau_sq, glue=params)

    # -- evaluation ---------------------------------------------------------

    def value(self, t):
        return float(self._f(np.asarray(t, dtype=float)))

    def derivative(self, t):
        return float(self._fp(np.asarray(t, dtype=float)))

    def second_derivative(self, t):
        return float(self._fpp(np.asarray(t, dtype=float)))

    def value_sq(self, t):
        """f(t)^2, exact on the plateau when the plateau square is exact."""
        if float(t) >= self.t_plateau:
            return self.plateau_sq
        return self.value(t) ** 2

    def disc_curvature(self, t):
        """Rotational curvature -f''/f; undefined at the origin."""
        t = float(t)
        f = self.value(t)
        if f == 0.0:
            raise ParameterError("disc curvature is undefined where f = 0")
        return -self.second_derivative(t) / f

    def sample(self):
        """The grid and f on it, from the stored samples."""
        return self.grid, self._samples[0, :self.grid.size]

    # -- invariants ---------------------------------------------------------

    def _frozen_gap(self):
        """max(|f - plateau|, |f'|) at each sample point."""
        f, fp, _ = self._samples
        return np.fmax(np.abs(f - self.plateau), np.abs(fp))

    def validate(self):
        """Raise ProfileError on any violated construction invariant."""
        if abs(self.value(0.0)) > 1e-12:
            raise ProfileError("profile must vanish at the origin")
        h = 1e-4 * self.plateau
        slope = self.value(h) / h
        if abs(slope - 1.0) > 1e-8 or abs(self.derivative(0.0) - 1.0) > 1e-8:
            raise ProfileError(
                "profile must close the disc with unit slope, got {:.12g}".format(slope))
        f, _, fpp = self._samples
        worst = float(np.max(fpp))
        if worst > 1e-9:
            raise ProfileError(
                "profile must be concave, found f'' = {:.3g}".format(worst))
        past = self._ts >= self.t_plateau
        unfrozen = past & (self._frozen_gap() > 1e-12)
        nonpositive = ~past & (self._ts > 0.0) & (f <= 0.0)
        bad = np.flatnonzero(unfrozen | nonpositive)
        if bad.size:
            # the first failing checkpoint names the broken invariant
            raise ProfileError(
                "profile must be constant past the plateau" if past[bad[0]]
                else "profile must stay positive before the plateau")

    # -- export -------------------------------------------------------------

    def export_csv(self, path):
        """Write (t, f, orbit_factor) rows; needs attached gluing data."""
        if self.glue is None:
            raise ParameterError("profile has no gluing data attached")
        a, r = self.glue.a, self.glue.r
        ts, fs = self.sample()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "f", "orbit_factor"])
            for t, f in zip(ts.tolist(), fs.tolist()):
                f2 = self.plateau_sq if t >= self.t_plateau else f ** 2
                factor = float(_orbit_factor(f2, a, r))
                writer.writerow(["{:.17g}".format(t), "{:.17g}".format(f),
                                 "{:.17g}".format(factor)])


def _orbit_factor(f2, a, r):
    """f^2 a / (f^2 + a r^2), as f^2 / (f^2 / a + r^2) so that no float
    exceeds the plateau square; exact when f^2, a and r are rational."""
    return f2 / (f2 / a + r * r)


def orbit_metric_factor(profile, t):
    """Relative scale the quotient puts on the gluing-circle direction at
    radius t: f(t)^2 a / (f(t)^2 + a r^2), with a, r from profile.glue.

    Climbs from 0 at the origin to exactly 1 when f^2 reaches the matching
    level, which is the boundary-matching identity that makes the two
    halves glue. Exact in rational arithmetic on the plateau when a, r are
    rational.
    """
    params = profile.glue
    if params is None:
        raise ParameterError("no gluing parameters available")
    return _orbit_factor(profile.value_sq(t), params.a, params.r)


class ClauseResult(namedtuple("ClauseResult",
                              "name passed value tolerance detail",
                              defaults=("",))):
    __slots__ = ()


class GluingCertificate(namedtuple("GluingCertificate", "passed clauses")):
    __slots__ = ()

    def failed(self):
        return [c for c in self.clauses if not c.passed]

    def clause(self, name):
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)


def nonneg_certificate(profile, metric, planes=10_000, seed=0):
    """Certify the ingredients of the nonnegatively curved disc gluing.

    The gluing data is profile.glue. Clauses, in order: the deformation
    scale sits in (1, 4/3]; the shrunk block is abelian; profile and
    metric agree on the scale; the profile plateau squares to the
    matching level; the profile's own shape invariants hold; the disc
    curvature -f''/f is nonnegative on the grid; the metric is a product
    past the plateau (f frozen); and a seeded random-plane scan of the
    deformed metric finds no curvature below -1e-9. Returns a certificate
    carrying every clause; passed means all clauses passed.
    """
    require_count(planes, "planes", MAX_PLANES)
    params = profile.glue
    clauses = []
    a = metric.a

    in_window = 1.0 < a <= 4.0 / 3.0 + 1e-12
    clauses.append(ClauseResult(
        "deformation_range", in_window, a, 4.0 / 3.0,
        "need 1 < a <= 4/3"))

    abelian = metric.split.is_abelian()
    clauses.append(ClauseResult(
        "abelian_block", abelian, float(metric.split.dim_k), 0.0,
        "shrunk subalgebra must be abelian for nonnegativity at a > 1"))

    if params is not None:
        scale_gap = abs(float(params.a) - a)
        clauses.append(ClauseResult(
            "scale_match", scale_gap <= 1e-12, scale_gap, 1e-12,
            "profile and metric must use the same deformation scale"))
        if in_window:
            gap = float(abs(profile.value_sq(profile.t_plateau) - params.plateau_sq))
            clauses.append(ClauseResult(
                "plateau_match", gap <= 1e-8, gap, 1e-8,
                "plateau square must equal a r^2/(a-1)"))
        else:
            clauses.append(ClauseResult(
                "plateau_match", False, math.inf, 1e-8,
                "no finite matching level outside the window"))
    else:
        clauses.append(ClauseResult(
            "scale_match", False, math.inf, 1e-12, "no gluing parameters"))
        clauses.append(ClauseResult(
            "plateau_match", False, math.inf, 1e-8, "no gluing parameters"))

    try:
        profile.validate()
        shape_ok, shape_msg = True, ""
    except ProfileError as exc:
        shape_ok, shape_msg = False, str(exc)
    clauses.append(ClauseResult(
        "profile_shape", shape_ok, 0.0 if shape_ok else 1.0, 0.0, shape_msg))

    n = profile.grid.size
    f, _, fpp = profile._samples[:, 1:n]            # grid points t > 0
    min_curv = -math.inf if np.any(f == 0.0) else float(np.min(-fpp / f))
    clauses.append(ClauseResult(
        "disc_curvature", min_curv >= -1e-9, min_curv, -1e-9,
        "-f''/f on the grid"))

    tail = profile._frozen_gap()[:n][profile.grid >= profile.t_plateau]
    tail_gap = float(np.max(tail)) if tail.size else math.inf
    clauses.append(ClauseResult(
        "product_near_boundary", tail_gap <= 1e-12, tail_gap, 1e-12,
        "profile frozen past the plateau"))

    scan = scan_min_sectional(metric, n_planes=planes, seed=seed)
    clauses.append(ClauseResult(
        "metric_nonneg", scan.min_value >= -1e-9, scan.min_value, -1e-9,
        "seeded random-plane minimum over {} planes".format(planes)))

    return GluingCertificate(passed=all(c.passed for c in clauses),
                             clauses=tuple(clauses))

"""Deformed left-invariant metrics and their sectional curvature.

A DeformedMetric scales the reference bi-invariant product Q by a factor
a > 0 on a chosen subalgebra k and leaves it alone on the orthogonal
complement m. The unnormalized curvature of a pair (A + X, B + Y) with
A, B in m and X, Y in k has the closed form

    1/4 |[A,B]_m + a([X,B] + [A,Y])|^2  +  1/4 |[A,B]_k + a^2 [X,Y]|^2
    + 1/4 a (1-a)^3 |[X,Y]|^2           +  3/4 (1-a) |[A,B]_k + a [X,Y]|^2

with all norms taken in Q. Every term is nonnegative for a <= 1. For
a > 1 the third term is negative and can dominate unless k is abelian;
with k abelian the whole expression collapses to

    1/4 |[A,B]_m + a([X,B] + [A,Y])|^2  +  (1 - 3a/4) |[A,B]_k|^2

which stays nonnegative exactly up to a = 4/3. That threshold is what the
disc gluing construction spends, and the curvature_oracle method provides a
completely independent check of the closed form: it assembles the curvature
tensor from Koszul structure constants on a Q_a-orthonormal basis.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .errors import (DegeneratePlaneError, DimensionMismatchError,
                     ParameterError, ValidationError, as_fraction)

_MEMBER_TOL = 1e-9
_GRAM_TOL = 1e-12
_NEGATIVE_THRESHOLD = -1e-10


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on first call: only the plane
    search optimizes, and scipy.optimize takes longer to import than
    numpy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


class DeformedMetric:
    """Q on the complement m, a*Q on the subalgebra k."""

    def __init__(self, split, a):
        a = float(a)
        if not math.isfinite(a) or a <= 0.0:
            raise ParameterError("deformation scale a must be positive")
        self.split = split
        self.algebra = split.algebra
        self.a = a
        # Q_a(u, v) = sum(lift(u) * lift(v) * _lift_weights), see _lift
        self._lift_weights = np.concatenate(
            [np.ones(self.algebra.dim), np.full(split.dim_k, a - 1.0)])
        # weights of the closed form's four squared norms, in the order
        # _quartic leaves the vectors in
        self._terms = np.array([0.75 * (1.0 - a), 0.25, 0.25,
                                0.25 * a * (1.0 - a) ** 3])
        self._koszul = None

    def __repr__(self):
        return "DeformedMetric(a={:.6g}, dim_k={}, algebra={!r})".format(
            self.a, self.split.dim_k, self.algebra)

    # -- lifted vectors ------------------------------------------------------
    #
    # The closed-form path works on lifted vectors: a flat vector (..., dim)
    # followed by the coordinates of its k-part in the split's orthonormal k
    # basis, (..., dim + dim_k). Lifting is linear, so the coordinates ride
    # along through normalization and Gram-Schmidt, and each vector is
    # projected once for its Q_a products and its m/k split.

    def _lift(self, uf):
        return np.concatenate([uf, np.dot(uf, self.split._flat_t)], axis=-1)

    def _inner_lifted(self, E, F):
        return np.vecdot(E * self._lift_weights, F)

    def _parts(self, E):
        """Lifted vectors (..., dim + dim_k) -> stacked parts (2, ..., dim):
        the m-part, then the k-part."""
        d = self.algebra.dim
        parts = np.empty((2,) + E.shape[:-1] + (d,))
        np.dot(E[..., d:], self.split._flat, out=parts[1])
        np.subtract(E[..., :d], parts[1], out=parts[0])
        return parts

    # -- curvature, closed form -------------------------------------------

    def _check_parts(self, A, X, B, Y):
        """Check that A, B lie in m and X, Y in k; return them as arrays."""
        sp = self.split
        alg = self.algebra
        A, X, B, Y = (alg.check_element(np.asarray(w, dtype=float))
                      for w in (A, X, B, Y))
        for name, vec, proj in (("A", A, sp.project_k), ("B", B, sp.project_k),
                                ("X", X, sp.project_m), ("Y", Y, sp.project_m)):
            resid = alg.norm(proj(vec))
            scale = np.maximum(1.0, alg.norm(vec))
            if np.any(resid > _MEMBER_TOL * scale):
                where = "m" if proj is sp.project_k else "k"
                raise ValidationError(
                    "{} does not lie in the {} block (residual {:.3g})".format(
                        name, where, float(np.max(resid))))
        return A, X, B, Y

    def _quartic(self, P, Q):
        """The closed form on stacked parts P = (A, X) and Q = (B, Y), each
        (2, ..., dim) with the m-part first; the sample axes broadcast.
        Every closed-form value in this module comes from here."""
        alg = self.algebra
        a = self.a
        # align the sample axes to the right, behind the leading parts axis
        pad = P.ndim - Q.ndim
        if pad > 0:
            Q = Q.reshape(Q.shape[:1] + (1,) * pad + Q.shape[1:])
        elif pad < 0:
            P = P.reshape(P.shape[:1] + (1,) * -pad + P.shape[1:])
        shape = (alg.factors, 3)
        P = P.reshape(P.shape[:-1] + shape)[:, None]
        Q = Q.reshape(Q.shape[:-1] + shape)[None, :]
        # br[s, t] = [P[s], Q[t]]: ([A,B], [A,Y]), ([X,B], [X,Y])
        br = alg.bracket(P, Q)
        br = br.reshape(br.shape[:-2] + (alg.dim,))
        ab, ay, xb, xy = br[0, 0], br[0, 1], br[1, 0], br[1, 1]
        ab_k = np.dot(np.dot(ab, self.split._flat_t), self.split._flat)
        # Overwrite br with the four vectors whose squared norms the closed
        # form weighs; in place, so a batch allocates no more rows.
        ay += xb
        ay *= a
        ab -= ab_k
        ay += ab                           # [A,B]_m + a([X,B] + [A,Y])
        np.multiply(xy, a * a, out=xb)
        xb += ab_k                         # [A,B]_k + a^2 [X,Y]
        np.multiply(xy, a, out=ab)
        ab += ab_k                         # [A,B]_k + a [X,Y]
        norms = np.vecdot(br, br).reshape((4,) + br.shape[2:-1])
        return np.vecdot(norms, self._terms, axis=0)

    def curvature(self, A, X, B, Y):
        """Unnormalized curvature Q_a(R(A+X, B+Y)(B+Y), A+X).

        A, B must lie in m and X, Y in k; arbitrary leading sample axes
        broadcast. The value is quartic in the inputs and vanishes when the
        two arguments are proportional.
        """
        alg = self.algebra
        A, X, B, Y = self._check_parts(A, X, B, Y)
        P = np.stack(np.broadcast_arrays(alg.flatten(A), alg.flatten(X)))
        Q = np.stack(np.broadcast_arrays(alg.flatten(B), alg.flatten(Y)))
        return self._quartic(P, Q)

    def curvature_of_pair(self, u, v):
        """curvature() after splitting two arbitrary vectors into m + k."""
        alg = self.algebra
        return self._quartic(self._parts(self._lift(alg.flatten(u))),
                             self._parts(self._lift(alg.flatten(v))))

    def _chart_plane(self, x):
        """Q_a-orthonormalize the chart point x = (u, v), flat of length
        2*dim, and evaluate the closed form on the resulting pair.

        Returns (curvature, u, v) with u, v flat, or None when u or the
        part of v orthogonal to u is (numerically) zero."""
        d = self.algebra.dim
        E = self._lift(x.reshape(2, d))
        u, v = E
        nu = math.sqrt(self._inner_lifted(u, u))
        if nu < 1e-12:
            return None
        u /= nu
        v -= self._inner_lifted(v, u) * u
        nv = math.sqrt(self._inner_lifted(v, v))
        if nv < 1e-9:
            return None
        v /= nv
        parts = self._parts(E)
        return float(self._quartic(parts[:, 0], parts[:, 1])), u[:d], v[:d]

    # -- curvature, Koszul oracle ------------------------------------------

    def _tensors(self):
        """Structure constants and connection coefficients on a
        Q_a-orthonormal basis (m-part first, then k-part / sqrt(a))."""
        if self._koszul is None:
            alg = self.algebra
            d = alg.dim
            K = self.split._flat
            m_rows = null_space(K).T
            basis = np.vstack([m_rows, K / math.sqrt(self.a)])
            b3 = alg.unflatten(basis)
            br = 2.0 * np.cross(b3[:, None, :, :], b3[None, :, :, :])
            brf = br.reshape(d, d, d)
            metric_mat = np.eye(d) + (self.a - 1.0) * (K.T @ K)
            weighted = basis @ metric_mat
            gamma = np.einsum("ijd,ld->ijl", brf, weighted)
            chris = 0.5 * (gamma - np.transpose(gamma, (0, 2, 1))
                           - np.transpose(gamma, (2, 0, 1)))
            self._koszul = (basis, metric_mat, gamma, chris)
        return self._koszul

    def curvature_oracle(self, A, X, B, Y):
        """Same quantity as curvature(), computed the long way round:
        Christoffel coefficients from the Koszul formula for left-invariant
        fields, then R(u,v)v = nabla_u nabla_v v - nabla_v nabla_u v
        - nabla_[u,v] v, contracted back with u."""
        A, X, B, Y = self._check_parts(A, X, B, Y)
        return self.curvature_oracle_of_pair(A + X, B + Y)

    def curvature_oracle_of_pair(self, u, v):
        alg = self.algebra
        basis, metric_mat, gamma, chris = self._tensors()
        uf = alg.flatten(alg.check_element(np.asarray(u, dtype=float)))
        vf = alg.flatten(alg.check_element(np.asarray(v, dtype=float)))
        coords = (basis @ metric_mat).T
        cu = uf @ coords
        cv = vf @ coords

        def nab(x, y):
            return np.einsum("...i,...j,ijl->...l", x, y, chris)

        lie = np.einsum("...i,...j,ijl->...l", cu, cv, gamma)
        r_uvv = nab(cu, nab(cv, cv)) - nab(cv, nab(cu, cv)) - nab(lie, cv)
        return np.einsum("...l,...l->...", r_uvv, cu)

    def oracle_agreement(self, samples=64, seed=0):
        """Worst absolute gap between the closed-form curvature and the
        connection-based oracle over seeded random vector pairs."""
        rng = np.random.default_rng(seed)
        uv = rng.standard_normal((samples, 2, self.algebra.factors, 3))
        u, v = uv[:, 0], uv[:, 1]
        gap = np.abs(self.curvature_of_pair(u, v)
                     - self.curvature_oracle_of_pair(u, v))
        return float(np.max(gap, initial=0.0))

    # -- sectional curvature ------------------------------------------------

    def sectional(self, u, v):
        """Curvature of the plane spanned by u and v, normalized by the
        Q_a Gram determinant. Raises for (numerically) dependent inputs."""
        alg = self.algebra
        u = alg.check_element(np.asarray(u, dtype=float))
        v = alg.check_element(np.asarray(v, dtype=float))
        if u.ndim != 2 or v.ndim != 2:
            raise DimensionMismatchError("sectional takes one pair")
        value, ok = self.sectional_batch(u, v)
        if not ok:
            raise DegeneratePlaneError(
                "u and v span no plane (a zero vector, or a Gram determinant "
                "below {:.0e})".format(_GRAM_TOL))
        return float(value)

    def sectional_batch(self, U, V):
        """Vectorized sectional curvature. Returns (values, valid) where
        valid flags planes whose Gram determinant cleared the threshold;
        invalid slots hold +inf."""
        alg = self.algebra
        Eu = self._lift(alg.flatten(U))
        Ev = self._lift(alg.flatten(V))
        nu = np.sqrt(self._inner_lifted(Eu, Eu))
        nv = np.sqrt(self._inner_lifted(Ev, Ev))
        ok = (nu > 0) & (nv > 0)
        Eu /= np.where(nu > 0, nu, 1.0)[..., None]
        Ev /= np.where(nv > 0, nv, 1.0)[..., None]
        gram = 1.0 - self._inner_lifted(Eu, Ev) ** 2
        ok &= gram >= _GRAM_TOL
        curv = self._quartic(self._parts(Eu), self._parts(Ev))
        vals = np.where(ok, curv / np.where(ok, gram, 1.0), np.inf)
        return vals, ok


@dataclass
class ScanResult:
    """Outcome of a seeded random-plane curvature scan."""
    min_value: float
    u: np.ndarray
    v: np.ndarray
    n_planes: int
    n_valid: int
    seed: int


def scan_min_sectional(metric, n_planes=100_000, seed=0):
    """Minimum sectional curvature over n_planes seeded Gaussian planes."""
    if n_planes < 1:
        raise ParameterError("n_planes must be positive")
    rng = np.random.default_rng(seed)
    alg = metric.algebra
    U = alg.random(rng, n_planes)
    V = alg.random(rng, n_planes)
    vals, ok = metric.sectional_batch(U, V)
    if not np.any(ok):
        raise DegeneratePlaneError("every sampled plane degenerated")
    idx = int(np.argmin(vals))
    return ScanResult(min_value=float(vals[idx]), u=U[idx], v=V[idx],
                      n_planes=n_planes, n_valid=int(np.sum(ok)), seed=seed)


@dataclass
class PlaneSearchResult:
    """Outcome of the negative-plane search. When found is False, value and
    (u, v) still describe the most negative plane encountered."""
    found: bool
    value: float
    u: np.ndarray
    v: np.ndarray
    oracle_value: float
    evaluations: int
    scan_min: float


def find_negative_plane(metric, budget=100_000, seed=0):
    """Seeded search for a plane with sectional curvature below -1e-10.

    Phase one scans random planes; phase two runs Nelder-Mead descents on
    the orthonormalized-pair chart, starting from the worst scanned planes
    and then from fresh random points, until the evaluation budget runs
    out. The objective at a chart point x = (u, v) is the closed-form
    curvature of its Q_a-orthonormalized pair, or a penalty of 1e6 where
    that pair degenerates; the reported plane and value come from the same
    evaluation at the final point. Deterministic for a fixed (budget,
    seed). A reported plane is re-evaluated with curvature_oracle so the
    closed form never certifies itself.
    """
    if budget < 10:
        raise ParameterError("budget too small to do anything")
    alg = metric.algebra
    d = alg.dim
    rng = np.random.default_rng(seed)
    evals = 0

    scan_n = max(min(budget // 2, 50_000), 10)
    U = alg.random(rng, scan_n)
    V = alg.random(rng, scan_n)
    vals, ok = metric.sectional_batch(U, V)
    evals += scan_n
    vals = np.where(ok, vals, np.inf)
    order = np.argsort(vals)
    scan_min = float(vals[order[0]])

    def objective(x):
        plane = metric._chart_plane(x)
        return 1.0e6 if plane is None else plane[0]

    def result(found, x):
        value, uf, vf = metric._chart_plane(x)
        u, v = alg.unflatten(uf), alg.unflatten(vf)
        oracle = float(metric.curvature_oracle_of_pair(u, v))
        return PlaneSearchResult(found, value, u, v, oracle, evals, scan_min)

    best_x = np.concatenate([alg.flatten(U[order[0]]), alg.flatten(V[order[0]])])
    best_val = scan_min
    if scan_min < _NEGATIVE_THRESHOLD:
        return result(True, best_x)

    starts = [np.concatenate([alg.flatten(U[i]), alg.flatten(V[i])])
              for i in order[:8] if np.isfinite(vals[i])]
    while evals < budget:
        x0 = starts.pop(0) if starts else rng.standard_normal(2 * d)
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxfev": int(min(4000, budget - evals)),
                                "fatol": 1e-13, "xatol": 1e-9})
        evals += int(res.nfev)
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = res.x
        if res.fun < _NEGATIVE_THRESHOLD:
            return result(True, res.x)

    return result(False, best_x)


def negative_plane_witness(metric):
    """Explicit negatively curved plane for the diagonal subalgebra of
    su(2)^2 at any a > 1.

    The recipe kills both square terms of the closed form: pick
    noncommuting X, Y in k and A, B in m with [A,B] = -a^2 [X,Y] and
    [X,B] + [A,Y] = 0. Here X = (i,i), Y = (k,k), A = a(i,-i),
    B = -a(k,-k), leaving curvature

        1/4 a (1-a)^3 (1+3a) |[X,Y]|^2  < 0   for a > 1,

    with |[X,Y]|^2 = 8 in the reference normalization. Returns (A, X, B, Y).
    """
    alg = metric.algebra
    a = metric.a
    if alg.factors != 2 or metric.split.dim_k != 3:
        raise ParameterError(
            "witness construction needs the diagonal subalgebra of su(2)^2")
    probe = alg.element((1, 0, 0), (1, 0, 0)) / math.sqrt(2.0)
    if not metric.split.contains(probe, tol=1e-12):
        raise ParameterError(
            "witness construction needs the diagonal subalgebra of su(2)^2")
    if a <= 1.0:
        raise ParameterError("no negative plane exists for a <= 1")
    X = alg.element((1, 0, 0), (1, 0, 0))
    Y = alg.element((0, 0, 1), (0, 0, 1))
    A = a * alg.element((1, 0, 0), (-1, 0, 0))
    B = -a * alg.element((0, 0, 1), (0, 0, -1))
    return A, X, B, Y


def witness_plane_value(a):
    """Closed-form curvature of the plane built by negative_plane_witness."""
    return 0.25 * a * (1.0 - a) ** 3 * (1.0 + 3.0 * a) * 8.0


# -- quotient scaling ------------------------------------------------------


def _positive_lam(lam):
    """lam as a positive Fraction when it is an int or a Fraction, else as
    a positive finite float."""
    value = as_fraction(lam)
    if value is None:
        value = float(lam)
    if not 0 < value < math.inf:
        raise ParameterError("lam must be positive")
    return value


def cheeger_quotient_factors(lam):
    """Block scalings of the metric induced on the quotient of the
    product-with-shrunk-orbit construction: the transverse block keeps its
    metric, the orbit block shrinks by lam/(lam+1). Exact for rational lam."""
    lam = _positive_lam(lam)
    return (type(lam)(1), lam / (lam + 1))


def compensating_scale(lam):
    """The subalgebra scale a = (lam+1)/lam whose quotient shrink lands
    back on the undeformed metric: a * lam/(lam+1) = 1. Exact for rational
    lam."""
    lam = _positive_lam(lam)
    return (lam + 1) / lam

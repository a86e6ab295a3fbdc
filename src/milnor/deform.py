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
disc gluing construction spends, and the curvature_oracle_of_pair method
provides a completely independent check of the closed form: it assembles
the curvature tensor from Koszul structure constants on a Q_a-orthonormal
basis.

Vectors are passed around flat, (..., dim); their k-parts are worked out
inside each call and never stored.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegeneratePlaneError, DimensionMismatchError,
                     ParameterError, as_fraction, require_int)

_GRAM_TOL = 1e-12
_NEGATIVE_THRESHOLD = -1e-10
# the plane search's descent: starts, first step, relative gradient stop
_STARTS = 64
_FIRST_STEP = 0.5
_GRAD_RTOL = 1e-6
#: Planes per sectional_batch call in the random-plane scans. A block's
#: temporaries stay small enough for the cache and for malloc's heap; one
#: call over 20k su(2)^3 planes maps and faults in every temporary afresh
#: and takes about twice as long. Blocking changes no value.
_SCAN_BLOCK = 2048
#: How far, relative to max(1, |value|), the connection oracle may stray
#: from the closed form on a plane the search reports.
_ORACLE_RTOL = 1e-6
#: The deformation scales DeformedMetric accepts: those on which the
#: connection oracle still checks the closed form to _ORACLE_RTOL of its
#: value.
#: Measured on every factor0, span-i and diagonal split of su(2)^1..3,
#: the worst relative gap is about 1e-15 at a = 1. Below 1 it grows about
#: like 1/a on the Q_a-orthonormal planes that the scan and the search
#: report (9.5e-7 at 1e-8, 6.7e-8 at 1e-7); above 1 about like a^3 on the
#: random vector pairs of oracle_agreement (2.5e-7 at 1e3, 1.2e-6 at
#: 10^3.25). Further out the oracle loses every digit (at a = 1e60 a found
#: plane's oracle value has the other sign), then the floats overflow:
#: the oracle gives inf or nan from a = 1e68 and below 1e-74, and the
#: closed-form weight a (1 - a)^3 / 4 overflows past 1.6e77.
A_MIN = 1e-7
A_MAX = 1e3


def null_space(K):
    """Q-orthonormal rows spanning the complement of the rows of K, which
    are Q-orthonormal: the right singular vectors past the rank."""
    return np.linalg.svd(K)[2][K.shape[0]:]


class DeformedMetric:
    """Q on the complement m, a*Q on the subalgebra k, for a in
    [A_MIN, A_MAX]."""

    def __init__(self, split, a):
        try:
            a = float(a)
        except OverflowError:
            a = math.inf
        if not A_MIN <= a <= A_MAX:
            raise ParameterError(
                "deformation scale a must lie in [{:g}, {:g}], got {:g}".format(
                    A_MIN, A_MAX, a))
        self.split = split
        self.algebra = split.algebra
        self.a = a
        # weights of the closed form's four squared norms, in the order
        # _quartic leaves the vectors in
        self._terms = np.array([0.75 * (1.0 - a), 0.25, 0.25,
                                0.25 * a * (1.0 - a) ** 3])
        self._koszul = None

    def __repr__(self):
        return "DeformedMetric(a={:.6g}, dim_k={}, algebra={!r})".format(
            self.a, self.split.dim_k, self.algebra)

    # -- flat vectors -------------------------------------------------------

    def _inner(self, E, F):
        """Q_a(E, F) = <E, F> + (a - 1) <KE, KF> of flat vectors (..., dim),
        K the split's orthonormal k basis; the sample axes broadcast. It is
        summed as <E_m, F_m> + a <E_k, F_k> over the parts, in which nothing
        cancels: for small a the first form loses about log10(1/a) digits."""
        PE = self._parts(E)
        return self._inner_of_parts(PE, PE if F is E else self._parts(F))

    def _inner_of_parts(self, PE, PF):
        """_inner of vectors given by their stacked parts (2, ..., dim)."""
        return np.vecdot(PE[0], PF[0]) + self.a * np.vecdot(PE[1], PF[1])

    def _parts(self, E):
        """Flat vectors (..., dim) -> stacked parts (2, ..., dim): the
        m-part, then the k-part."""
        parts = np.empty((2,) + E.shape)
        rows = E.reshape(-1, E.shape[-1])  # np.dot is slow past two axes
        np.dot(np.dot(rows, self.split._flat_t), self.split._flat,
               out=parts[1].reshape(rows.shape))
        np.subtract(E, parts[1], out=parts[0])
        return parts

    # -- curvature, closed form -------------------------------------------

    def _quartic(self, P, Q, vectors=False):
        """The closed form on stacked parts P = (A, X) and Q = (B, Y), each
        (2, ..., dim) with the m-part first; the sample axes broadcast.
        Every closed-form value in this module comes from here. With
        vectors=True also return the four vectors whose squared norms it
        weighs, stacked (4, ..., dim) in the order of self._terms."""
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
        br = br.reshape((4,) + br.shape[2:])
        values = np.vecdot(np.vecdot(br, br), self._terms, axis=0)
        return (values, br) if vectors else values

    def _gradient(self, P, Q, vecs):
        """Euclidean gradients (g_u, g_v), stacked (2, ..., dim), of the
        closed form at u = A + X, v = B + Y, from the parts P = (A, X),
        Q = (B, Y) and the four vectors _quartic(P, Q, vectors=True)
        returned.

        The derivative of a weighted squared norm w |V|^2 along h is
        2 w <V, dV>, and dV is a bracket of a part of h with B or Y. By
        ad-invariance, <[x, y], z> = <x, [y, z]>, so <V, [h, y]> =
        <h, [y, V]>: each term's gradient is a bracket with the vector
        itself. Of the four vectors only V1 = [A,B]_m + a([X,B] + [A,Y])
        lies in m; as [k, m] lies in m and [k, k] in k, only [B, V1] needs
        splitting, its k-part weighted by a (the extra (a - 1) below). The
        closed form is symmetric in u and v and every vector is
        antisymmetric, which gives g_v from g_u."""
        alg = self.algebra
        a = self.a
        w0, w1, w2, w3 = self._terms
        v0, v1, v2, v3 = vecs
        s1 = w0 * v0 + w1 * v1 + w2 * v2
        s2 = a * (w0 * v0 + w1 * v1 + a * w2 * v2) + w3 * v3
        c = (a - 1.0) * w1 * v1
        left = np.stack([Q[0], Q[1], Q[0], P[0], P[1], P[0]])
        right = np.stack([s1, s2, c, s1, s2, c])
        br = alg.bracket(alg.unflatten(left), alg.unflatten(right))
        br = br.reshape(br.shape[:-2] + (alg.dim,))
        br[2::3] = self._parts(br[2::3])[1]
        grads = br[0::3] + br[1::3]
        grads += br[2::3]
        grads[0] *= 2.0
        grads[1] *= -2.0
        return grads

    def curvature_of_pair(self, u, v):
        """Unnormalized curvature Q_a(R(u, v)v, u) of arbitrary vectors u,
        v, split into m + k here; arbitrary leading sample axes broadcast.
        The value is quartic in the inputs and vanishes when the two
        arguments are proportional."""
        alg = self.algebra
        return self._quartic(self._parts(alg.flatten(u)),
                             self._parts(alg.flatten(v)))

    def _frames(self, F):
        """Q_a Gram-Schmidt, in place, on flat pairs F = (u, v), each
        (..., dim), that span planes."""
        u, v = F
        u /= np.sqrt(self._inner(u, u))[..., None]
        v -= self._inner(v, u)[..., None] * u
        v /= np.sqrt(self._inner(v, v))[..., None]

    def _value_and_gradient(self, F):
        """At Q_a-orthonormal flat pairs F = (u, v): the closed form, which
        is the sectional curvature of their plane, and the Riemannian
        gradient of the sectional curvature on the Grassmannian, stacked
        like F. With g the Euclidean gradient that is
        r = G^-1 g - <g, u> u - <g, v> v: G^-1 maps g to Q_a, and as
        Q_a(G^-1 g, w) = <g, w> the last two terms project Q_a-orthogonally
        off span(u, v). The projection also removes what normalizing by the
        Gram determinant adds, which lies along u and v."""
        P, Q = self._parts(F[0]), self._parts(F[1])
        values, vecs = self._quartic(P, Q, vectors=True)
        grads = self._gradient(P, Q, vecs)
        along = [np.vecdot(grads, E)[..., None] for E in F]
        grads, grads_k = self._parts(grads)
        grads += grads_k / self.a              # G^-1 g = g_m + g_k / a
        for E, g_e in zip(F, along):
            grads -= g_e * E
        return values, grads

    # -- curvature, Koszul oracle ------------------------------------------

    def _tensors(self):
        """Structure constants and connection coefficients on a
        Q_a-orthonormal basis (m-part first, then k-part / sqrt(a))."""
        if self._koszul is None:
            alg = self.algebra
            d = alg.dim
            K = self.split._flat
            m_rows = null_space(K)
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

    def curvature_oracle_of_pair(self, u, v):
        """Same quantity as curvature_of_pair(), computed the long way
        round: Christoffel coefficients from the Koszul formula for
        left-invariant fields, then R(u,v)v = nabla_u nabla_v v -
        nabla_v nabla_u v - nabla_[u,v] v, contracted back with u."""
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
        _check_seed(seed)
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
        P, Q = self._parts(alg.flatten(U)), self._parts(alg.flatten(V))
        nu = np.sqrt(self._inner_of_parts(P, P))
        nv = np.sqrt(self._inner_of_parts(Q, Q))
        ok = (nu > 0) & (nv > 0)
        P /= np.where(nu > 0, nu, 1.0)[..., None]
        Q /= np.where(nv > 0, nv, 1.0)[..., None]
        gram = 1.0 - self._inner_of_parts(P, Q) ** 2
        ok &= gram >= _GRAM_TOL
        curv = self._quartic(P, Q)
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


def _check_seed(seed):
    """Raise ParameterError unless seed is a non-negative int, the seeds
    numpy's default_rng takes; None, which would draw fresh entropy, is
    not one."""
    require_int(seed, "seed")
    if seed < 0:
        raise ParameterError("seed must be non-negative, got {}".format(seed))


def _scan_values(metric, U, V):
    """sectional_batch over n sampled pairs U, V, each (n, factors, 3),
    _SCAN_BLOCK planes at a time."""
    blocks = [metric.sectional_batch(U[i:i + _SCAN_BLOCK], V[i:i + _SCAN_BLOCK])
              for i in range(0, len(U), _SCAN_BLOCK)]
    return (np.concatenate([vals for vals, _ in blocks]),
            np.concatenate([ok for _, ok in blocks]))


def scan_min_sectional(metric, n_planes=100_000, seed=0):
    """Minimum sectional curvature over n_planes seeded Gaussian planes."""
    if n_planes < 1:
        raise ParameterError("n_planes must be positive")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    alg = metric.algebra
    U = alg.random(rng, n_planes)
    V = alg.random(rng, n_planes)
    vals, ok = _scan_values(metric, U, V)
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


def minimize(metric, F, budget, target):
    """Batched Riemannian gradient descent on the Grassmannian of 2-planes
    (Absil, Mahony and Sepulchre, Optimization Algorithms on Matrix
    Manifolds, 2008). F = (u, v) holds flat candidate pairs, each
    (candidates, dim), best first; a pair is overwritten with its
    Q_a-orthonormal frame once it is evaluated.

    _STARTS pairs descend together, and every step evaluates the sectional
    curvature and its gradient at all of them in one call, one evaluation
    per pair. A pair moves to (u, v) - t grad and back to a Q_a-orthonormal
    frame by Gram-Schmidt. The move is kept if it lowers the value; the
    pair's step t is then the Barzilai-Borwein step <s, s> / <s, y> of
    that move (at most 4 t), and halves after a move that is not kept. A
    pair stops once its gradient norm falls below _GRAD_RTOL times its
    first, and the next candidate takes its place in the following step.
    The descent stops when a value falls below target, when `budget`
    evaluations are spent or when no candidate is left. Returns (values,
    evaluations), +inf for the candidates never evaluated."""
    def dot(X, Y):
        return metric._inner(X, Y).sum(axis=0)

    n = F.shape[1]
    values = np.full(n, np.inf)
    G = np.zeros_like(F)
    floor = np.zeros(n)
    step = np.full(n, _FIRST_STEP)
    live = np.arange(min(_STARTS, n))
    queued = live.size
    evals = 0
    while live.size and evals < budget:
        live = live[:budget - evals]
        t = step[live]
        T = F[:, live] - t[:, None] * G[:, live]
        metric._frames(T)
        tvals, tG = metric._value_and_gradient(T)
        evals += live.size
        tnorm = np.sqrt(dot(tG, tG))
        first = values[live] == np.inf
        floor[live[first]] = _GRAD_RTOL * tnorm[first]
        down = tvals < values[live]
        s = T - F[:, live]
        sy = dot(s, tG - G[:, live])
        bb = np.divide(dot(s, s), sy, out=4.0 * t, where=sy > 0)
        step[live] = np.where(first, t, np.where(
            down, np.minimum(bb, 4.0 * t), 0.5 * t))
        moved = live[down]
        values[moved] = tvals[down]
        F[:, moved] = T[:, down]
        G[:, moved] = tG[:, down]
        if tvals.min() < target:
            break
        live = live[~down | (tnorm > floor[live])]
        fresh = np.arange(queued, min(queued + _STARTS - live.size, n))
        queued += fresh.size
        live = np.concatenate([live, fresh])
    return values, evals


def find_negative_plane(metric, budget=100_000, seed=0):
    """Seeded search for a plane with sectional curvature below -1e-10.

    Phase one scans random planes. Phase two descends from the scanned
    planes, best first, by minimize(): a batched Riemannian descent on the
    Grassmannian with the closed form's analytic gradient, _STARTS planes
    at a time, until a plane falls below the threshold or the evaluation
    budget runs out. An evaluation is one plane's value, in phase two with
    its gradient; the search spends at most `budget`. The reported plane
    is a Q_a-orthonormal pair and its value the closed form there: the
    most negative value seen when found is False. Deterministic for a
    fixed (budget, seed). The reported plane is re-evaluated with
    curvature_oracle_of_pair so the closed form never certifies itself: a
    negative plane on which the oracle is not negative too, within
    _ORACLE_RTOL of max(1, |value|), raises AssertionError.
    """
    if budget < 10:
        raise ParameterError("budget too small to do anything")
    _check_seed(seed)
    alg = metric.algebra
    rng = np.random.default_rng(seed)

    scan_n = max(min(budget // 2, 50_000), 10)
    U = alg.random(rng, scan_n)
    V = alg.random(rng, scan_n)
    vals, ok = _scan_values(metric, U, V)
    if not np.any(ok):
        raise DegeneratePlaneError("every sampled plane degenerated")
    evals = scan_n
    order = np.argsort(vals)
    scan_min = float(vals[order[0]])

    descend = scan_min >= _NEGATIVE_THRESHOLD and budget > evals
    order = order[:min(budget - evals, int(np.sum(ok))) if descend else 1]
    F = alg.flatten(np.stack([U[order], V[order]]))
    if descend:
        values, spent = minimize(metric, F, budget - evals,
                                 _NEGATIVE_THRESHOLD)
        evals += spent
    else:
        metric._frames(F)
        values = metric._quartic(metric._parts(F[0]), metric._parts(F[1]))
    best = int(np.argmin(values))
    u, v = alg.unflatten(F[:, best])
    value = float(values[best])
    oracle = float(metric.curvature_oracle_of_pair(u, v))
    found = value < _NEGATIVE_THRESHOLD
    if found and not (oracle < 0.0 and abs(oracle - value)
                      <= _ORACLE_RTOL * max(1.0, abs(value))):
        raise AssertionError(
            "closed form {!r} and oracle {!r} disagree on a negative "
            "plane".format(value, oracle))
    return PlaneSearchResult(found, value, u, v, oracle, evals, scan_min)


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

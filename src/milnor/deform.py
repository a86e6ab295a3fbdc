"""Deformed left-invariant metrics and their sectional curvature.

A DeformedMetric scales the reference bi-invariant product Q by a factor
a > 0 on a chosen subalgebra k and leaves it alone on the orthogonal
complement m. For a pair (A + X, B + Y) with A, B in m and X, Y in k,
write P = [A,B]_k, Z = [X,Y] and W = [A,B]_m + a([X,B] + [A,Y]); W lies
in m, P and Z in k. The unnormalized curvature of the pair has the closed
form

    1/4 |W|^2  +  (1 - 3a/4) |P|^2  +  a (3/2 - a) <P, Z>  +  a/4 |Z|^2

with all norms taken in Q, and no terms that cancel as a grows. The
(P, Z) block has determinant -a (a - 1)^3 / 4: for a <= 1 it is positive
semidefinite and the curvature nonnegative. For a > 1 the block is
indefinite and the curvature can be negative unless k is an ideal, where
P = 0, or abelian; with k abelian, Z = 0 and the whole expression
collapses to

    1/4 |W|^2  +  (1 - 3a/4) |P|^2

which stays nonnegative exactly up to a = 4/3. _nonnegative_rule decides
these three cases exactly. The 4/3 threshold is what the disc gluing
construction spends, and the curvature_oracle_of_pair method
provides a completely independent check of the closed form: it computes
R(u, v)v from Milnor's formula for the Levi-Civita connection of a
left-invariant metric, on the m- and k-parts of the vectors, with its own
bracket and no basis.

The public methods and functions take and return elements of su(2)^n in
their (..., n, 3) form. Inside, the kernel works on component-major rows
(see liealg): a batch of N vectors is a (dim, N) array, a pair of batches
is stacked (2, dim, N), and the m- and k-parts of such rows are worked out
inside each call: the k-part is one (dim, dim) @ (dim, N) product with the
split's projector onto k, the m-part the rest. Each public entry point
converts its inputs once. The sectional-curvature kernel,
_sectional_block, writes its rows, parts and brackets into slices of one
flat workspace passed down as out= and scratch= buffers: sectional_batch
allocates one per call, and a random-plane scan one for its draw and a
block, which all its blocks reuse.
"""

import math
import sys
from collections import namedtuple

import numpy as np

from .errors import (DegeneratePlaneError, ParameterError, exact_real,
                     require_count, require_int)
from .liealg import _carve

_GRAM_TOL = 1e-12
_NEGATIVE_THRESHOLD = -1e-10
# the plane search's descent: starts, first step, relative gradient stop
_STARTS = 64
_FIRST_STEP = 0.5
_GRAD_RTOL = 1e-6
#: Planes per _sectional_block call in the random-plane scans, which
#: reuse one block's workspace; blocking changes no value. Timed with the
#: workspace kernel in seven 15 s benchmark runs per size (2-core Xeon,
#: Python 3.11, numpy 2.4): blocks of 1024, 2048 and 4096 gave geometry
#: ops_per_s 334, 372 and 355, certify 192, 218 and 223, and geometry
#: peak_rss_mb 41.4, 42.5 and 43.5. Smaller blocks pay numpy's per-call
#: overhead more often; 4096 gains certify less than the runs spread and
#: costs geometry time and memory.
_SCAN_BLOCK = 2048
#: The most planes scan_min_sectional (so nonneg_certificate) and the most
#: sample pairs oracle_agreement take; counts are checked before anything
#: is drawn. Measured at 1e5 on su(2)^3 (2-core Xeon): a scan peaks at
#: about 170 bytes a plane (144 of them its draw) and takes 0.5-0.8 us a
#: plane, half of it drawing; oracle_agreement about 160 bytes (144 its
#: draw) and 2.7-3.7 us a pair; the diagonal and span-i splits alike. So
#: at the cap a scan takes about 1 s and 170 MB and oracle_agreement about
#: 3 s and 160 MB; ten times the cap would exceed the memory of a small
#: host.
MAX_PLANES = 10 ** 6
#: How far, relative to max(1, |value|), the connection oracle may stray
#: from the closed form on a plane the search reports.
_ORACLE_RTOL = 1e-6
#: The deformation scales DeformedMetric accepts: those on which the
#: connection oracle still checks the closed form to _ORACLE_RTOL of
#: max(1, |value|), measured on every diagonal, factorN and span-i/j/k
#: split of su(2)^1..3, on 4000 standard-normal pairs per split and on the
#: planes the search reports. The oracle sets both ends. Below 1: on the
#: Q_a-orthonormal planes the scan and the search report its error grows
#: about like 1/a (9.2e-8 at 1e-7, 9.2e-7 at 1e-8), as the k-part of
#: [x, G y] + [y, G x], zero in exact arithmetic, keeps its rounding and
#: is divided by a; on random pairs it stays near 1e-14. Above 1: on
#: random pairs its error grows about like a, largest on the pairs whose
#: value is small beside its terms (worst over four draws 4.7e-7 at 1e6,
#: 2.6e-6 at 2e6, 2.5e-6 at 1e7), while on the reported planes it stays
#: small (4.2e-11 at 1e6, 1.5e-9 at 1e8).
A_MIN = 1e-7
A_MAX = 1e6


# Uncalled: the benchmark's traced run still wraps deform.null_space by name.
def null_space(K):
    """Q-orthonormal rows spanning the complement of the rows of K, which
    are Q-orthonormal: the right singular vectors past the rank."""
    return np.linalg.svd(K)[2][K.shape[0]:]


#: Component l + 1 and l + 2 (mod 3) for each component l: per factor the
#: bracket is [x, y]_l = 2 (x_(l+1) y_(l+2) - x_(l+2) y_(l+1)).
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


def _koszul_curvature(u, v, projector, a):
    """Q_a(R(u, v)v, u) for elements u, v (..., n, 3), given the Q-orthogonal
    projector (dim, dim) onto k, from the Levi-Civita connection alone.

    Milnor's formula nabla_x y = ([x, y] - ad*_x y - ad*_y x) / 2 needs no
    basis: Q is ad-invariant, so ad*_x = -G^-1 ad_x G with G = Q on m and
    a Q on k, applied part-wise as x_m + a x_k and its inverse as
    x_m + x_k / a, never as x + (a - 1) x_k, which cancels for small a.
    Then R(u, v)v = nabla_u nabla_v v - nabla_v nabla_u v - nabla_[u,v] v.
    Only ring operations and division by 2 and a are used, so Fraction
    object arrays give exact values."""
    inv = 1 / a

    def scaled(x, s):
        k = (x.reshape(x.shape[:-2] + (-1,)) @ projector).reshape(x.shape)
        return x - k + s * k

    def bracket(x, y):
        return 2 * (x[..., _NEXT] * y[..., _AFTER] - x[..., _AFTER] * y[..., _NEXT])

    def nabla(x, y):
        turned = bracket(x, scaled(y, a)) + bracket(y, scaled(x, a))
        return (bracket(x, y) + scaled(turned, inv)) / 2

    r = nabla(u, nabla(v, v)) - nabla(v, nabla(u, v)) - nabla(bracket(u, v), v)
    return np.einsum("...ij,...ij->...", scaled(r, a), u)


class DeformedMetric:
    """Q on the complement m, a*Q on the subalgebra k, for a in
    [A_MIN, A_MAX]."""

    def __init__(self, split, a):
        exact = exact_real(a, "deformation scale a")
        # the range is read on the float; one past every float reads as inf
        a = float(exact) if abs(exact) <= sys.float_info.max else math.inf
        if not A_MIN <= a <= A_MAX:
            raise ParameterError(
                "deformation scale a must lie in [{:g}, {:g}], got {:g}".format(
                    A_MIN, A_MAX, a))
        self.split = split
        self.algebra = split.algebra
        self.a = a
        #: The exact scale (see errors.exact_real). The kernels compute
        #: with its float a; the sign rules (see _nonnegative_rule) decide
        #: on this.
        self.a_exact = exact
        # the closed form's weights of |W|^2, |P|^2, |Z|^2 and <P,Z>
        self._terms = np.array([0.25, 1.0 - 0.75 * a, 0.25 * a, a * (1.5 - a)])
        # _gradient's three combinations of (W, P, Z) (see there)
        w, c_p, c_z, c_pz = self._terms
        self._grad_terms = np.array([[w, c_p, 0.5 * c_pz],
                                     [a * w, 0.5 * c_pz, c_z],
                                     [(a - 1.0) * w, 0.0, 0.0]])

    def __repr__(self):
        return "DeformedMetric(a={:.6g}, dim_k={}, algebra={!r})".format(
            self.a, self.split.dim_k, self.algebra)

    # -- component-major rows ------------------------------------------------

    def _k_part(self, X, out=None):
        """The k-part of rows (..., dim, N): one (dim, dim) @ (dim, N)
        product with the split's component-major projector onto k, into
        out when it is given."""
        return np.matmul(self.split._projector_rows, X, out=out)

    def _parts(self, X, out=None):
        """Rows (..., dim, N) -> stacked parts (2, ..., dim, N): the m-part,
        then the k-part; at the start of out, a flat float buffer (see
        liealg._carve), when it is given."""
        parts = _carve(out, (2,) + X.shape)
        self._k_part(X, out=parts[1])
        np.subtract(X, parts[1], out=parts[0])
        return parts

    def _inner_of_parts(self, PE, PF):
        """Q_a products of rows given by their stacked parts (2, ..., dim,
        N), summed as <E_m, F_m> + a <E_k, F_k> over the parts, in which
        nothing cancels: <E, F> + (a - 1) <KE, KF> would lose about
        log10(1/a) digits for small a. Leading axes broadcast."""
        sums = np.einsum("k...ij,k...ij->k...j", PE, PF)
        return sums[0] + self.a * sums[1]

    # -- curvature, closed form -------------------------------------------

    def _quartic(self, PQ, out=None, scratch=None):
        """The closed form on the stacked parts PQ, (2, 2, dim, N), of the
        pairs u = A + X, v = B + Y: PQ[0] holds the m-parts (A, B) and
        PQ[1] the k-parts (X, Y). Every closed-form value in this module
        comes from here. Returns the values and the vectors (W, P, Z) they
        weigh, stacked (3, dim, N). The four brackets, PQ.size floats, go
        to the start of out and the bracket's scratch row, PQ.size / 3
        floats, to that of scratch, when those flat buffers are given."""
        comps = PQ.reshape(2, 2, 3, -1)        # components on axis -2
        # br[s, t] = [P[s], Q[t]] for P = (A, X), Q = (B, Y), in one call on
        # (2, 1, 3, n N) x (1, 2, 3, n N): ([A,B], [A,Y]), ([X,B], [X,Y])
        br = self.algebra.bracket_rows(comps[:, None, 0], comps[None, :, 1],
                                       out=out, scratch=scratch)
        br = br.reshape((4,) + PQ.shape[-2:])
        ab, ay, xb, xy = br
        # Overwrite br[1:] with (W, P, Z); in place, so a batch allocates
        # no more rows.
        ay += xb
        ay *= self.a
        self._k_part(ab, out=xb)               # P = [A,B]_k
        ab -= xb
        ay += ab                               # W = [A,B]_m + a([X,B] + [A,Y])
        vecs = br[1:]                          # (W, P, Z)
        values = self._terms[:3] @ np.einsum("kij,kij->kj", vecs, vecs)
        values += self._terms[3] * np.einsum("ij,ij->j", vecs[1], vecs[2])
        return values, vecs

    def _gradient(self, PQ, vecs):
        """Euclidean gradients (g_u, g_v), stacked (2, dim, N), of the
        closed form at u = A + X, v = B + Y, from their stacked parts PQ
        and the vectors (W, P, Z) _quartic(PQ) returned.

        Along h = h_m + h_k the vectors change by dW = [h_m,B]_m +
        a([h_k,B] + [h_m,Y]), dP = [h_m,B]_k and dZ = [h_k,Y]; the
        derivative of w |V|^2 is 2 w <V, dV> and that of c <P, Z> is
        c (<dP, Z> + <P, dZ>). By ad-invariance, <[x, y], z> = <x, [y, z]>,
        so <V, [h, y]> = <h, [y, V]>: each term's gradient is a bracket
        with the vector itself. W lies in m and P, Z in k; as [k, m] lies
        in m and [k, k] in k, only [B, W] needs splitting, its k-part
        weighted by a (the extra (a - 1) below). The closed form is
        symmetric in u and v and every vector is antisymmetric, which
        gives g_v from g_u."""
        # s1 = W/4 + c_P P + c_PZ Z/2, s2 = a W/4 + c_PZ P/2 + c_Z Z and
        # c = (a - 1) W/4
        s = (self._grad_terms @ vecs.reshape(3, -1)).reshape(3, 1, 3, -1)
        # [B, s1], [Y, s2] and [B, c] for g_u; [A, s1], [X, s2] and [A, c]
        # for g_v
        comps = PQ.reshape(2, 2, 3, -1)[[0, 1, 0], ::-1]
        br = self.algebra.bracket_rows(comps, s).reshape((3,) + PQ.shape[1:])
        grads = br[0] + br[1]
        grads += self._k_part(br[2])
        grads[0] *= 2.0
        grads[1] *= -2.0
        return grads

    def curvature_of_pair(self, u, v):
        """Unnormalized curvature Q_a(R(u, v)v, u) of arbitrary vectors u,
        v, split into m + k here; arbitrary leading sample axes broadcast.
        The value is quartic in the inputs and vanishes when the two
        arguments are proportional."""
        X, shape = self.algebra.rows(u, v)
        return self._quartic(self._parts(X))[0].reshape(shape)

    def _value_and_gradient(self, F):
        """Q_a Gram-Schmidt, in place, on pairs F = (u, v), stacked rows
        (2, dim, N), that span planes; then at those orthonormal frames the
        closed form, which is the sectional curvature of their plane, and
        the Riemannian gradient of the sectional curvature on the
        Grassmannian, stacked like F. With g the Euclidean gradient that is
        r = G^-1 g - <g, u> u - <g, v> v: G^-1 maps g to Q_a, and as
        Q_a(G^-1 g, w) = <g, w> the last two terms project Q_a-orthogonally
        off span(u, v). The projection also removes what normalizing by the
        Gram determinant adds, which lies along u and v.

        The parts are worked out once, before Gram-Schmidt, which then
        applies the same linear steps to F and to its parts."""
        PQ = self._parts(F)
        P, Q = PQ[:, 0], PQ[:, 1]
        norm = np.sqrt(self._inner_of_parts(P, P))
        F[0] /= norm
        P /= norm
        along = self._inner_of_parts(Q, P)
        F[1] -= along * F[0]
        Q -= along * P
        norm = np.sqrt(self._inner_of_parts(Q, Q))
        F[1] /= norm
        Q /= norm
        values, vecs = self._quartic(PQ)
        grads = self._gradient(PQ, vecs)
        along = np.einsum("gij,eij->egj", grads, F)
        grads_k = self._k_part(grads)
        grads -= grads_k
        grads += grads_k / self.a              # G^-1 g = g_m + g_k / a
        for E, g_e in zip(F, along):
            grads -= g_e[:, None] * E
        return values, grads

    # -- curvature, Koszul oracle ------------------------------------------

    def curvature_oracle_of_pair(self, u, v):
        """Same quantity as curvature_of_pair(), computed the long way
        round by _koszul_curvature from the Levi-Civita connection, with
        none of the closed form's kernel; leading sample axes broadcast."""
        alg = self.algebra
        return _koszul_curvature(alg.check_element(u), alg.check_element(v),
                                 self.split._projector, self.a)

    def oracle_agreement(self, samples=64, seed=0):
        """Worst absolute gap between the closed-form curvature and the
        connection-based oracle over seeded random vector pairs, drawn at
        once and compared _SCAN_BLOCK pairs at a time; blocking changes no
        value."""
        require_count(samples, "samples", MAX_PLANES)
        _check_seed(seed)
        rng = np.random.default_rng(seed)
        uv = rng.standard_normal((samples, 2, self.algebra.factors, 3))
        gaps = []
        for i in range(0, samples, _SCAN_BLOCK):
            u, v = uv[i:i + _SCAN_BLOCK, 0], uv[i:i + _SCAN_BLOCK, 1]
            gaps.append(np.max(np.abs(self.curvature_of_pair(u, v)
                                      - self.curvature_oracle_of_pair(u, v))))
        return float(np.max(gaps))

    # -- sectional curvature ------------------------------------------------

    def sectional_batch(self, U, V):
        """Vectorized sectional curvature. Returns (values, valid) where
        valid flags planes whose Gram determinant cleared the threshold;
        invalid slots hold +inf."""
        alg = self.algebra
        U, V = alg.check_element(U), alg.check_element(V)
        shape = np.broadcast_shapes(U.shape[:-2], V.shape[:-2])
        work = np.empty(self._block_floats(math.prod(shape)))
        vals, ok = self._sectional_block(U, V, work)
        return vals.reshape(shape), ok.reshape(shape)

    def _block_floats(self, N):
        """The floats _sectional_block's workspace takes for N planes: the
        brackets (4, dim, N), whose space the rows (2, dim, N) use before
        them; the stacked parts (2, 2, dim, N); and the bracket's scratch
        row (2, 2, factors N)."""
        alg = self.algebra
        return (8 * alg.dim + 4 * alg.factors) * N

    def _sectional_block(self, U, V, work):
        """The kernel of sectional_batch and of the random-plane scans: the
        values and valid flags of the planes spanned by elements U, V
        (..., n, 3), flat over the N samples of their broadcast sample
        axes. The rows, parts, brackets and the bracket's scratch row are
        slices of work, a flat float buffer of at least _block_floats(N)
        floats, laid out as that docstring says; the parts are formed
        before the brackets need the rows' space."""
        X, _ = self.algebra.rows(U, V, out=work)
        size = 2 * X.size                      # floats of brackets, of parts
        PQ = self._parts(X, out=work[size:])
        norm = np.sqrt(self._inner_of_parts(PQ, PQ))
        ok = np.all(norm > 0, axis=0)
        PQ /= np.where(norm > 0, norm, 1.0)[:, None]
        gram = 1.0 - self._inner_of_parts(PQ[:, 0], PQ[:, 1]) ** 2
        ok &= gram >= _GRAM_TOL
        curv = self._quartic(PQ, out=work, scratch=work[2 * size:])[0]
        return np.where(ok, curv / np.where(ok, gram, 1.0), np.inf), ok


class ScanResult(namedtuple("ScanResult",
                            "min_value u v n_planes n_valid seed")):
    """Outcome of a seeded random-plane curvature scan."""
    __slots__ = ()


def _check_seed(seed):
    """Raise ParameterError unless seed is a non-negative int, the seeds
    numpy's default_rng takes; None, which would draw fresh entropy, is
    not one."""
    require_int(seed, "seed")
    if seed < 0:
        raise ParameterError("seed must be non-negative, got {}".format(seed))


def _scan(metric, n, seed):
    """The random-plane scan: n seeded Gaussian pairs U, V, each (n,
    factors, 3), and their sectional_batch values and valid flags, computed
    _SCAN_BLOCK planes at a time. One allocation holds the draw, (2, n,
    factors, 3), and the workspace of one block, which every block reuses:
    a scan that freed dozens of block-sized temporaries let the allocator
    hand them back to the system, and the next scan faulted them in again.
    Raises when every plane degenerates."""
    _check_seed(seed)
    alg = metric.algebra
    size = 2 * n * alg.dim
    work = np.empty(size + metric._block_floats(min(n, _SCAN_BLOCK)))
    U, V = alg.random(np.random.default_rng(seed), (2, n), out=work)
    vals, ok = np.empty(n), np.empty(n, dtype=bool)
    for i in range(0, n, _SCAN_BLOCK):
        block = slice(i, i + _SCAN_BLOCK)
        vals[block], ok[block] = metric._sectional_block(U[block], V[block],
                                                         work[size:])
    if not np.any(ok):
        raise DegeneratePlaneError("every sampled plane degenerated")
    return U, V, vals, ok


def scan_min_sectional(metric, n_planes=100_000, seed=0):
    """Minimum sectional curvature over n_planes seeded Gaussian planes."""
    require_count(n_planes, "n_planes", MAX_PLANES)
    U, V, vals, ok = _scan(metric, n_planes, seed)
    idx = int(np.argmin(vals))
    # copies, so that the result does not keep the whole draw alive
    return ScanResult(min_value=float(vals[idx]), u=U[idx].copy(),
                      v=V[idx].copy(), n_planes=n_planes,
                      n_valid=int(np.sum(ok)), seed=seed)


class PlaneSearchResult(namedtuple(
        "PlaneSearchResult",
        "found value u v oracle_value evaluations scan_min")):
    """Outcome of the negative-plane search. When found is False, value and
    (u, v) still describe the most negative plane encountered."""
    __slots__ = ()


def _nonnegative_rule(metric):
    """The rule that proves every sectional curvature of the metric
    nonnegative: "a <= 1", "ideal" or "abelian", or None when none
    applies. Each reads the closed form's weights (module docstring) and
    is decided exactly, on metric.a_exact and on the entries of the
    stored k basis; a case that only a tolerance could decide is no
    proof.

    - a <= 1: the (P, Z) block is positive semidefinite.
    - k an ideal: m is one too, so P = [A,B]_k = 0 and the rest is a sum
      of squares for every a. The ideals of su(2)^n are the sums of whole
      factors, so k is one exactly when its basis has nonzero entries on
      exactly dim_k / 3 factors.
    - k abelian and a <= 4/3: Z = 0 and 1 - 3a/4 >= 0. k is abelian when
      it has rank 1 or when every pair of its basis vectors brackets to
      exactly zero (ReductiveSplit.is_abelian)."""
    a = metric.a_exact
    if a <= 1:
        return "a <= 1"
    split = metric.split
    if 3 * np.count_nonzero(split.k_basis.any(axis=(0, 2))) == split.dim_k:
        return "ideal"
    if 3 * a <= 4 and split.is_abelian():
        return "abelian"
    return None


def minimize(metric, F, budget, target):
    """Batched Riemannian gradient descent on the Grassmannian of 2-planes
    (Absil, Mahony and Sepulchre, Optimization Algorithms on Matrix
    Manifolds, 2008). F = (u, v) holds the candidate pairs as stacked
    component-major rows (2, dim, candidates), best first; a pair is
    overwritten with its Q_a-orthonormal frame once it is evaluated.

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
    def dot(PX, PY):
        return metric._inner_of_parts(PX, PY).sum(axis=0)

    n = F.shape[-1]
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
        FL, GL = F[:, :, live], G[:, :, live]
        T = FL - t * GL
        tvals, tG = metric._value_and_gradient(T)
        evals += live.size
        PG = metric._parts(tG)
        tnorm = np.sqrt(dot(PG, PG))
        first = values[live] == np.inf
        floor[live[first]] = _GRAD_RTOL * tnorm[first]
        down = tvals < values[live]
        Ps = metric._parts(T - FL)
        sy = dot(Ps, metric._parts(tG - GL))
        bb = np.divide(dot(Ps, Ps), sy, out=4.0 * t, where=sy > 0)
        step[live] = np.where(first, t, np.where(
            down, np.minimum(bb, 4.0 * t), 0.5 * t))
        moved = live[down]
        values[moved] = tvals[down]
        F[:, :, moved] = T[:, :, down]
        G[:, :, moved] = tG[:, :, down]
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
    budget runs out. Phase two is skipped when the scan already found a
    plane below the threshold, and when _nonnegative_rule proves that no
    such plane exists: then the search ends at its scan, which is all of
    its evaluations. An evaluation is one plane's value, in phase two with
    its gradient; the search spends at most `budget`. The reported plane
    is a Q_a-orthonormal pair and its value the closed form there: the
    most negative value seen when found is False. Deterministic for a
    fixed (budget, seed). The reported plane is re-evaluated with
    curvature_oracle_of_pair so the closed form never certifies itself: a
    negative plane on which the oracle is not negative too, within
    _ORACLE_RTOL of max(1, |value|), raises AssertionError.
    """
    require_int(budget, "budget")
    if budget < 10:
        raise ParameterError("budget too small to do anything")
    alg = metric.algebra
    scan_n = max(min(budget // 2, 50_000), 10)
    U, V, vals, ok = _scan(metric, scan_n, seed)
    evals = scan_n
    order = np.argsort(vals)
    scan_min = float(vals[order[0]])

    descend = (scan_min >= _NEGATIVE_THRESHOLD and budget > evals
               and _nonnegative_rule(metric) is None)
    order = order[:min(budget - evals, int(np.sum(ok))) if descend else 1]
    F, _ = alg.rows(U[order], V[order])
    if descend:
        values, spent = minimize(metric, F, budget - evals,
                                 _NEGATIVE_THRESHOLD)
        evals += spent
    else:
        values, _ = metric._value_and_gradient(F)
    best = int(np.argmin(values))
    u, v = alg.from_rows(F[:, :, best:best + 1])[:, 0]
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

    The recipe makes W = 0 and P = -a^2 Z in the closed form: pick
    noncommuting X, Y in k and A, B in m with [A,B] = -a^2 [X,Y] and
    [X,B] + [A,Y] = 0. Here X = (i,i), Y = (k,k), A = a(i,-i),
    B = -a(k,-k), leaving curvature

        (a^4 (1 - 3a/4) - a^3 (3/2 - a) + a/4) |Z|^2
            = 1/4 a (1-a)^3 (1+3a) |Z|^2  < 0   for a > 1,

    with |Z|^2 = 8 in the reference normalization. Returns (A, X, B, Y).
    """
    alg = metric.algebra
    a = metric.a
    # (e, e) / sqrt 2 for e = i, j, k: the diagonal, not a twisted copy
    probes = np.repeat(np.eye(3)[:, None], 2, axis=1) / math.sqrt(2.0)
    if alg.factors != 2 or metric.split.dim_k != 3 \
            or not metric.split.contains(probes, tol=1e-12):
        raise ParameterError(
            "witness construction needs the diagonal subalgebra of su(2)^2")
    if metric.a_exact <= 1:
        raise ParameterError("no negative plane exists for a <= 1")
    if a <= 1.0:
        raise ParameterError(
            "a = {} is past 1 but its float is 1.0; the float recipe cannot "
            "resolve that scale".format(metric.a_exact))
    X = alg.element((1, 0, 0), (1, 0, 0))
    Y = alg.element((0, 0, 1), (0, 0, 1))
    A = a * alg.element((1, 0, 0), (-1, 0, 0))
    B = -a * alg.element((0, 0, 1), (0, 0, -1))
    return A, X, B, Y


# -- quotient scaling ------------------------------------------------------


def _positive_lam(lam):
    """lam as a positive Fraction (see errors.exact_real)."""
    value = exact_real(lam, "lam")
    if not value > 0:
        raise ParameterError("lam must be positive")
    return value


def cheeger_quotient_factors(lam):
    """Block scalings of the metric induced on the quotient of the
    product-with-shrunk-orbit construction: the transverse block keeps its
    metric, the orbit block shrinks by lam/(lam+1). Both are exact
    Fractions."""
    lam = _positive_lam(lam)
    return (type(lam)(1), lam / (lam + 1))


def compensating_scale(lam):
    """The subalgebra scale a = (lam+1)/lam whose quotient shrink lands
    back on the undeformed metric: a * lam/(lam+1) = 1. An exact
    Fraction."""
    lam = _positive_lam(lam)
    return (lam + 1) / lam

"""Deformed left-invariant metrics and their sectional curvature.

A DeformedMetric scales the reference bi-invariant product Q by a factor
a > 0 on a chosen subalgebra k and leaves it alone on the orthogonal
complement m. For a pair (A + X, B + Y) with A, B in m and X, Y in k,
write P = [A,B]_k, Z = [X,Y] and W = [A,B]_m + a([X,B] + [A,Y]); W lies
in m, P and Z in k. The unnormalized curvature of the pair has the closed
form

    1/4 |W|^2  +  (1 - 3a/4) |P|^2  +  a (3/2 - a) <P, Z>  +  a/4 |Z|^2

with all norms taken in Q. It has no a^4 terms, but its weights grow
like a^2 while a plane's value can be far smaller than its terms, so at
large a digits still cancel: at a = A_MAX, on the planes of seed-1
10k-plane scans of the circles along i, j and k where the kernel and
_quartic over the Gram determinant differ most, the kernel's value is up
to 2.1e-7 of max(1, |value|) off an exact evaluation on su(2)^1 and
2.4e-9 on su(2)^2 and ^3 (_quartic's: 2.7e-7 and 1.6e-9). The (P, Z)
block has determinant -a (a - 1)^3 / 4: for a <= 1 it is positive
semidefinite and the curvature nonnegative. For a > 1 the block is
indefinite and the curvature can be negative unless k is an ideal, where
P = 0, or abelian; with k abelian, Z = 0 and the whole expression
collapses to

    1/4 |W|^2  +  (1 - 3a/4) |P|^2

which stays nonnegative exactly up to a = 4/3. _nonnegative_rule decides
these three cases exactly. Past 4/3 a plane of m whose bracket is a
nonzero element of k has W = 0 and is negative; _decide builds one, with
rational entries and an exact value, for a circle k. On the diagonal of
su(2)^n, n >= 2, a plane with W = 0 and P = -a^2 Z is negative for every
a > 1, and _decide builds that one too. The 4/3 threshold
is what the disc gluing construction spends, and the
curvature_oracle_of_pair method provides a completely independent check
of the closed form: it computes R(u, v)v from Milnor's formula for the
Levi-Civita connection of a left-invariant metric, on the m- and k-parts
of the vectors, with its own bracket and no basis.

The public methods and functions take and return elements of su(2)^n in
their (..., n, 3) form. By Milnor (Curvatures of left invariant metrics
on Lie groups, 1976) the curvature of a left-invariant metric is one
constant tensor, so the closed form is one quadratic form in the
bivector u ^ v, whatever the plane. DeformedMetric._operator builds it
once per metric, on first use: the symmetric matrix M that _quartic's
(W, P, Z) define on the bivectors of a Q_a-orthonormal frame adapted to
m + k, kept on the K frame pairs where it is not identically zero (3n
of the 3n (3n - 1) / 2 on a product split). curvature_of_pair,
sectional_batch and the random-plane scans all evaluate it, in
_bivector_form: one matmul takes a batch of pairs to their frame
coordinates and to those coordinates' entries at the kept pairs, one
wedge gives b = u ^ v over the kept pairs, and <b, M b> is one (K, K)
product and row sums. So oracle_agreement checks the kernel the scans
use. A plane costs about K^2 + 2 dim (dim + 2K) multiply-adds. Timed
on one scan block against the four brackets it replaced (2-core Xeon):
27-76 ns against 66-188 ns on the factor and span-i splits of
su(2)^1..3, 70 and 155 ns against 122 and 185 ns on the su(2)^2 and ^3
diagonals. A circle along (1, 2, ..., 9) keeps all 36 pairs of su(2)^3
and takes 199 ns against 170, and on the diagonal of su(2)^n K grows
like n^2, so from su(2)^5 on a diagonal scan is slower than the brackets
were, 12 times on su(2)^16.

The kernel writes its coordinates, pair entries and M b into one flat
workspace: sectional_batch allocates one per call, and a random-plane
scan one for its draw and a block, which all its blocks reuse. A scan
block holds as many planes as fit _BLOCK_FLOATS floats, 2 (dim + 2K) a
plane, so small algebras and product splits take more planes a block.
_full_operator feeds _quartic component-major rows (see liealg): a batch
of N vectors is a (dim, N) array, and its k-part is one (dim, dim) @
(dim, N) product with the split's projector onto k.

The kernel normalizes no pair. <b, M b> and the Q_a Gram determinant
|u|^2 |v|^2 - <u, v>^2, read on the frame coordinates, in which Q_a is
the dot product, are both homogeneous of degree two in u and in v, so
their quotient is the sectional curvature of the plane they span, the
value at any Q_a-orthonormal frame of it. Those raw products are finite
and normal for a scan's standard normal draw; sectional_batch first
moves each vector into the binade of its largest entry
(liealg._binade), a scaling by a power of two, which changes no quotient
and keeps them so for vectors of any size.
"""

import functools
import math
import sys
from collections import namedtuple

import numpy as np

from .errors import (DegeneratePlaneError, ParameterError, ValidationError,
                     exact_real, require_count, require_int)
from .liealg import _binade, _carve

_GRAM_TOL = 1e-12
#: The floats of one random-plane scan block's workspace (see
#: _block_floats), which every block of a scan reuses; a metric's scan
#: block is as many planes as fit: on span-i 6144 on su(2)^1, 3072 on
#: su(2)^2 and 2048 on su(2)^3 (54 floats a plane), on the su(2)^3
#: diagonal 877. Blocking changes no value. Timed in-process, median of
#: seven alternating rounds of 10k-plane scans on su(2)^1..3 span-i and the
#: su(2)^2 diagonal and 6k-plane scans on the su(2)^3 diagonal and factor0
#: (2-core Xeon, Python 3.11, numpy 2.4): budgets of 1024, 2048, 3072 and
#: 4096 planes of 54 floats took 14.00, 13.45, 13.62 and 13.67 ms for the
#: six scans, so the budget is flat there and the smallest of the best
#: is kept.
_BLOCK_FLOATS = 2048 * 54
#: Pairs per block of oracle_agreement; blocking changes no value.
_ORACLE_BLOCK = 2048
#: The most planes scan_min_sectional (so nonneg_certificate) and the most
#: sample pairs oracle_agreement take; counts are checked before anything
#: is drawn. Measured at 1e5 on su(2)^3, diagonal and span-i (2-core
#: Xeon): a scan peaks at about 165 bytes a plane (144 of them its draw)
#: and takes 0.5-0.9 us a plane, about half of it drawing;
#: oracle_agreement about 160 bytes (144 its draw) and 3-4 us a pair. So
#: at the cap a scan takes about 1 s and 165 MB and oracle_agreement about
#: 4 s and 160 MB; ten times the cap would exceed the memory of a small
#: host.
MAX_PLANES = 10 ** 6
#: How far, relative to max(1, |value|), the connection oracle, at the
#: Q_a-orthonormal frame of a witness plane, may stray from the witness's
#: exact sectional curvature.
_ORACLE_RTOL = 1e-6
#: The deformation scales DeformedMetric accepts: those on which the
#: connection oracle still checks the closed form to _ORACLE_RTOL of
#: max(1, |value|), measured on every diagonal, factorN and span-i/j/k
#: split of su(2)^1..3, on 4000 standard-normal pairs per split and on the
#: Q_a-orthonormal frames find_negative_plane reports (seeds 0-3, budget
#: 2000). The oracle sets both ends. Below 1: on those frames of scan
#: minima its error grows about like 1/a (up to 8.2e-7 at 1e-7 and 8.2e-6
#: at 1e-8, on the su(2)^2 diagonal), as the k-part of [x, G y] +
#: [y, G x], zero in exact arithmetic, keeps its rounding and is divided
#: by a; on random pairs it stays near 1e-14. Above 1: on random pairs
#: its error grows about like a, largest on the pairs whose value is
#: small beside its terms (worst over four draws 4.7e-7 at 1e6, 2.6e-6 at
#: 2e6, 2.5e-6 at 1e7), while on the frames of witness planes it stays
#: within 4e-16 of the exact value at 1e6 and 1e8. The other gaps are to
#: the kernel, which is not exact at the top either: at A_MAX its
#: sectional values are up to 2.1e-7 of max(1, |value|) off an exact
#: evaluation on su(2)^1 and 2.4e-9 on su(2)^2 and ^3 (_quartic over the
#: Gram determinant, the kernel before the operator: 2.7e-7 and 1.6e-9),
#: measured on the planes of seed-1 10k-plane scans of the circles along
#: i, j and k where the two differ most. So a scan at A_MAX is good to
#: about six digits, inside _ORACLE_RTOL; on the same planes at A_MIN both
#: are within 1.2e-10.
A_MIN = 1e-7
A_MAX = 1e6


# Uncalled: the benchmark's traced run still wraps deform.null_space and
# deform.minimize by name.
def null_space(K):
    """Q-orthonormal rows spanning the complement of the rows of K, which
    are Q-orthonormal: the right singular vectors past the rank."""
    return np.linalg.svd(K)[2][K.shape[0]:]


def minimize(*args, **kwargs):
    """Gone: negative planes come from the exact decision (_decide), and
    no plane search descends any more; only the name is left."""
    raise NotImplementedError("the plane search's descent was removed")


#: Component l + 1 and l + 2 (mod 3) for each component l: per factor the
#: bracket is [x, y]_l = 2 (x_(l+1) y_(l+2) - x_(l+2) y_(l+1)).
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


class _Operator(namedtuple("_Operator", "frames pairs matrix")):
    """A metric's curvature operator on K frame pairs (see
    DeformedMetric._full_operator): the pairs (2, K), the (K, K) matrix,
    and frames, (2, dim + 2K, dim): frames[0] maps a flat element u to its
    frame coordinates x, then x_i, then x_j over the pairs, and frames[1]
    maps v to y, y_j, y_i; so the product of the two lists past the
    coordinates is (x_i y_j, x_j y_i), whose difference is b = u ^ v."""
    __slots__ = ()

    @classmethod
    def of(cls, coords, pairs, matrix):
        rows = np.arange(len(coords))
        first, second = pairs
        frames = coords[np.array([np.concatenate((rows, first, second)),
                                  np.concatenate((rows, second, first))])]
        return cls(frames, pairs, matrix)


def _finite_element(algebra, x):
    """x as an element of the algebra (Su2Power.check_element), refused
    with ValidationError unless every entry is finite."""
    x = algebra.check_element(x)
    if not np.isfinite(x).all():
        raise ValidationError("vectors must be finite")
    return x


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

    def __repr__(self):
        return "DeformedMetric(a={:.6g}, dim_k={}, algebra={!r})".format(
            self.a, self.split.dim_k, self.algebra)

    # -- component-major rows ------------------------------------------------

    def _k_part(self, X, out=None):
        """The k-part of rows (..., dim, N): one (dim, dim) @ (dim, N)
        product with the split's component-major projector onto k, into
        out when it is given."""
        return np.matmul(self.split._projector_rows, X, out=out)

    # -- curvature, closed form -------------------------------------------

    def _quartic(self, PQ):
        """The closed form on the stacked parts PQ, (2, 2, dim, N), of the
        pairs u = A + X, v = B + Y: PQ[0] holds the m-parts (A, B) and
        PQ[1] the k-parts (X, Y). Every closed-form value in this module
        comes from here. Returns the values and the vectors (W, P, Z) they
        weigh, stacked (3, dim, N)."""
        comps = PQ.reshape(2, 2, 3, -1)        # components on axis -2
        # br[s, t] = [P[s], Q[t]] for P = (A, X), Q = (B, Y), in one call on
        # (2, 1, 3, n N) x (1, 2, 3, n N): ([A,B], [A,Y]), ([X,B], [X,Y])
        br = self.algebra.bracket_rows(comps[:, None, 0], comps[None, :, 1])
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

    def curvature_of_pair(self, u, v):
        """Unnormalized curvature Q_a(R(u, v)v, u) of arbitrary finite
        vectors u, v; arbitrary leading sample axes broadcast. The value
        is <b, M b> at their bivector b = u ^ v, the curvature operator's
        form (see _operator) that the scans evaluate: quartic in the
        inputs, zero when the two arguments are proportional."""
        UV, shape = self._pairs(u, v)
        return self._bivector_form(UV, None)[1].reshape(shape)

    # -- curvature, Koszul oracle ------------------------------------------

    def curvature_oracle_of_pair(self, u, v):
        """Same quantity as curvature_of_pair(), computed the long way
        round by _koszul_curvature from the Levi-Civita connection, with
        none of the closed form's kernel; leading sample axes broadcast.
        Non-finite vectors are refused, as there."""
        u, v = (_finite_element(self.algebra, x) for x in (u, v))
        return _koszul_curvature(u, v, self.split._projector, self.a)

    def oracle_agreement(self, samples=64, seed=0):
        """Worst absolute gap between the closed-form curvature and the
        connection-based oracle over seeded random vector pairs, drawn at
        once and compared _ORACLE_BLOCK pairs at a time; blocking changes
        no value."""
        require_count(samples, "samples", MAX_PLANES)
        _check_seed(seed)
        rng = np.random.default_rng(seed)
        uv = rng.standard_normal((samples, 2, self.algebra.factors, 3))
        gaps = []
        for i in range(0, samples, _ORACLE_BLOCK):
            u, v = uv[i:i + _ORACLE_BLOCK, 0], uv[i:i + _ORACLE_BLOCK, 1]
            gaps.append(np.max(np.abs(self.curvature_of_pair(u, v)
                                      - self.curvature_oracle_of_pair(u, v))))
        return float(np.max(gaps))

    # -- sectional curvature ------------------------------------------------

    def sectional_batch(self, U, V):
        """Vectorized sectional curvature of the planes spanned by finite
        elements U, V (..., n, 3), whose sample axes broadcast. Returns
        (values, valid) of their broadcast sample shape, valid as
        _sectional_block decides it; invalid slots hold +inf. Each vector
        is first moved into the binade of its largest entry
        (liealg._binade), so vectors of any finite size give the values of
        their moderate multiples, and a power-of-two multiple of a vector
        exactly the same values."""
        UV, shape = self._pairs(U, V, scale=_binade)
        work = np.empty(self._block_floats(UV.shape[1]))
        vals, ok = self._sectional_block(UV, work)
        return vals.reshape(shape), ok.reshape(shape)

    def _pairs(self, U, V, scale=None):
        """Finite elements U, V (..., n, 3), each mapped by scale when it
        is given, as stacked flat pairs (2, N, dim) over the N samples of
        their broadcast sample axes; also returns those axes' shape. A
        non-finite vector is refused with ValidationError."""
        alg = self.algebra
        U, V = (_finite_element(alg, x) for x in (U, V))
        if scale is not None:
            U, V = scale(U), scale(V)
        U, V = np.broadcast_arrays(U, V)
        return np.stack((U, V)).reshape(2, -1, alg.dim), U.shape[:-2]

    # -- the curvature operator ---------------------------------------------

    def _full_operator(self):
        """The curvature operator on the bivectors of a Q_a-orthonormal
        frame adapted to m + k: (coords, pairs, matrix), the (dim, dim) map
        from a flat element to its frame coordinates, the D = dim (dim -
        1) / 2 frame pairs (i, j), i < j, stacked (2, D), and the (D, D)
        matrix M, symmetric up to rounding, whose form <b, M b> at the
        bivector b = u ^ v, b_ij = x_i y_j - x_j y_i in frame coordinates
        x of u and y of v, is the closed form at u, v.

        The frame is an orthonormal basis of m and one of k, numpy's eigh
        of the projector onto k (eigenvalues 0 on m, 1 on k), the k-basis
        scaled by 1/sqrt(a); so the coordinates of u are its products with
        the m-basis and sqrt(a) times those with the k-basis, and no
        coordinate mixes the parts. _quartic is fed the frame pairs as
        their parts (the m-basis; the k-basis over sqrt(a)). Its (W, P, Z)
        are linear in the bivector e_i ^ e_j, and M is the closed form's
        weights on them."""
        alg, split = self.algebra, self.split
        d, r = alg.dim, split.dim_k
        basis = np.linalg.eigh(split._projector_rows)[1]
        root = math.sqrt(self.a)
        parts = np.zeros((2, d, d))
        parts[0, :, :d - r] = basis[:, :d - r]
        parts[1, :, d - r:] = basis[:, d - r:] / root
        rows = np.arange(d)
        pairs = np.array(np.nonzero(rows[:, None] < rows))
        vecs = self._quartic(parts[:, :, pairs].transpose(0, 2, 1, 3))[1]
        # the closed form's weights of (W, P, Z), as a symmetric 3 x 3 form
        w, c_p, c_z, c_pz = self._terms
        weights = np.array([[w, 0.0, 0.0], [0.0, c_p, 0.5 * c_pz],
                            [0.0, 0.5 * c_pz, c_z]])
        weighted = (weights @ vecs.reshape(3, -1)).reshape(3 * d, -1)
        matrix = vecs.reshape(3 * d, -1).T @ weighted
        # component-major columns c n + t to flat element order 3 t + c
        coords = basis.T.reshape(d, 3, alg.factors).transpose(0, 2, 1).reshape(d, d)
        coords[d - r:] *= root
        return coords, pairs, matrix

    @functools.cached_property
    def _operator(self):
        """The operator the kernel evaluates, built on the first call and
        kept: _full_operator restricted to the K pairs on which its matrix
        is not identically zero, as _Operator. On a product split (a
        factor, a circle along one axis) those are the 3n pairs within one
        factor; on the su(2)^2 and su(2)^3 diagonals 12 of 15 and 27 of 36."""
        coords, pairs, matrix = self._full_operator()
        kept = np.flatnonzero(matrix.any(axis=0))
        return _Operator.of(coords, pairs[:, kept], matrix[kept][:, kept])

    def _bivector_form(self, UV, work):
        """The frame coordinates, (2, dim, N), of stacked flat pairs UV
        (2, N, dim), and <b, M b> at each pair's bivector b = u ^ v (see
        _operator): one matmul into the frame, one wedge and one (K, K)
        product. The coordinates, pair entries and M b are laid out in
        work, a flat float buffer of at least _block_floats(N) floats
        (see liealg._carve), or a new array when it is None."""
        frames, _, matrix = self._operator
        d, K = self.algebra.dim, len(matrix)
        XY = np.matmul(frames, UV.transpose(0, 2, 1),
                       out=_carve(work, (2, d + 2 * K, UV.shape[1])))
        wedge = XY[0, d:]
        wedge *= XY[1, d:]                     # (x_i y_j, x_j y_i)
        b = wedge[:K]
        b -= wedge[K:]
        Mb = np.matmul(matrix, b, out=XY[1, d:d + K])
        return XY[:, :d], np.einsum("kn,kn->n", b, Mb)

    def _block_floats(self, N):
        """The floats _sectional_block's workspace takes for N planes:
        2 (dim + 2K) a plane, for the frame coordinates and the kept pairs'
        entries of u and v, whose space b and M b reuse. A scan block is
        the most planes whose workspace fits _BLOCK_FLOATS."""
        return 2 * (self.algebra.dim + 2 * len(self._operator.matrix)) * N

    @property
    def _scan_block(self):
        """Planes per random-plane scan block: as many as fill
        _BLOCK_FLOATS."""
        return _BLOCK_FLOATS // self._block_floats(1)

    def _sectional_block(self, UV, work):
        """The kernel of sectional_batch and of the random-plane scans: the
        values and valid flags of the planes spanned by the stacked flat
        pairs UV (2, N, dim), taken as they are (see the module docstring
        on their size).

        A plane is valid when |u|^2 |v|^2 > 0 and its Gram determinant
        |u|^2 |v|^2 - <u, v>^2 is at least _GRAM_TOL |u|^2 |v|^2: when the
        Q_a sin^2 of the angle between u and v is at least _GRAM_TOL. Its
        value is then <b, M b> (see _bivector_form) over that determinant,
        both read on the frame coordinates, in which Q_a is the dot
        product; an invalid plane's is +inf. work is as _bivector_form
        takes it."""
        (x, y), form = self._bivector_form(UV, work)
        uu = np.einsum("in,in->n", x, x)
        vv = np.einsum("in,in->n", y, y)
        uv = np.einsum("in,in->n", x, y)
        norms = uu * vv
        gram = norms - uv * uv
        ok = (norms > 0) & (gram >= _GRAM_TOL * norms)
        return np.where(ok, form / np.where(ok, gram, 1.0), np.inf), ok


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
    metric._scan_block planes at a time. One allocation holds the draw, (2,
    n, factors, 3), and the workspace of one block, which every block reuses:
    a scan that freed dozens of block-sized temporaries let the allocator
    hand them back to the system, and the next scan faulted them in again.
    Raises when every plane degenerates."""
    _check_seed(seed)
    alg = metric.algebra
    size = 2 * n * alg.dim
    step = metric._scan_block
    work = np.empty(size + metric._block_floats(min(n, step)))
    UV = alg.random(np.random.default_rng(seed), (2, n), out=work)
    flat = UV.reshape(2, n, alg.dim)
    vals, ok = np.empty(n), np.empty(n, dtype=bool)
    for i in range(0, n, step):
        block = slice(i, i + step)
        vals[block], ok[block] = metric._sectional_block(flat[:, block],
                                                         work[size:])
    if not np.any(ok):
        raise DegeneratePlaneError("every sampled plane degenerated")
    return UV[0], UV[1], vals, ok


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
    """Outcome of the negative-plane search (find_negative_plane). When
    found is False, value and (u, v) describe the scan's minimum plane."""
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


class _Witness(namedtuple("_Witness", "u v value frame oracle")):
    """A negatively curved plane, exactly: u and v, (n, 3) object arrays of
    ints and Fractions, span it, and value is its exact sectional
    curvature, a Fraction. frame is a Q_a-orthonormal float pair spanning
    the plane and oracle the connection oracle's float value there."""
    __slots__ = ()


def _witness(metric, u, v, uu, vv, curvature):
    """The _Witness of the exact plane (u, v), given Q_a-orthogonal with
    exact Q_a norms squared uu and vv and exact unnormalized curvature:
    its value is curvature / (uu vv), and (u / sqrt(uu), v / sqrt(vv)) is
    its frame. The float connection oracle at the frame must agree with
    the value to _ORACLE_RTOL of max(1, |value|), or AssertionError is
    raised. The sign is the exact value's: just past the scale where the
    plane turns negative, the oracle's float scale may lie below it."""
    value = curvature / (uu * vv)
    frame = (u.astype(float) / math.sqrt(uu), v.astype(float) / math.sqrt(vv))
    oracle = float(metric.curvature_oracle_of_pair(*frame))
    if abs(oracle - float(value)) > _ORACLE_RTOL * max(1.0, abs(float(value))):
        raise AssertionError(
            "exact value {} ({!r}) and oracle {!r} disagree on the witness "
            "plane".format(value, float(value), oracle))
    return _Witness(u, v, value, frame, oracle)


def _cross(x, y):
    """The cross product x x y of two 3-vectors given as sequences, in
    their own arithmetic; in one factor the bracket is twice it."""
    return [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0]]


def _circle_witness(metric):
    """The exact negatively curved plane of a circle k at 3a > 4.

    z is k's stored basis vector, read exactly (errors.exact_real). In
    each factor t with z_t != 0, p_t = z_t x e for the axis e on which
    |z_t| is smallest, and q_t = (z_t x p_t) / (2 |p_t|^2), so that
    [p_t, q_t] = 2 p_t x q_t = z_t. Then A = sum p_t and B = sum q_t lie
    in m, <A, B> = 0 and [A, B] = z, so W = 0 and P = z in the closed
    form, and the plane has unnormalized curvature (1 - 3a/4) |z|^2 and
    sectional curvature (1 - 3a/4) |z|^2 / (|A|^2 |B|^2): 4 - 3a on
    span-i."""
    zero = [0, 0, 0]
    A, B = [], []
    zz = AA = BB = 0
    for row in metric.split.k_basis[0].tolist():
        if not any(row):
            A.append(zero)
            B.append(zero)
            continue
        z = [exact_real(x, "k basis entry") for x in row]
        axis = min(range(3), key=lambda l: abs(row[l]))
        p = _cross(z, [int(l == axis) for l in range(3)])
        pp = sum(x * x for x in p)
        q = [x / (2 * pp) for x in _cross(z, p)]
        A.append(p)
        B.append(q)
        zz += sum(x * x for x in z)
        AA += pp
        BB += sum(x * x for x in q)
    return _witness(metric, np.array(A, dtype=object),
                    np.array(B, dtype=object), AA, BB,
                    (1 - 3 * metric.a_exact / 4) * zz)


def _is_diagonal(split):
    """Whether k is exactly the untwisted diagonal {(x, ..., x)}: three
    basis vectors, each repeating one 3-vector in every factor. Being
    Q-orthonormal, those 3-vectors span su(2), so the test is exact on
    the stored floats."""
    basis = split.k_basis
    return split.dim_k == 3 and bool((basis == basis[:, :1]).all())


def _diagonal_witness(metric):
    """The exact negatively curved plane of the untwisted diagonal of
    su(2)^n, n >= 2, at a > 1.

    X = (i, ..., i) and Y = (k, ..., k) lie in k; A = a(i, -i, 0, ..., 0)
    and B = a(-k, (n-1)k, -k, ..., -k) lie in m. For u = A + X and
    v = B + Y the closed form has W = 0 and P = -a^2 Z with
    |Z|^2 = 4n, so their unnormalized curvature is
    (a^4 (1 - 3a/4) - a^3 (3/2 - a) + a/4) 4n = a (1 - a)^3 (1 + 3a) n,
    negative for a > 1. A, X, B and Y are pairwise Q-orthogonal, so u and
    v are Q_a-orthogonal, with |u|^2 = |A|^2 + a |X|^2 and
    |v|^2 = |B|^2 + a |Y|^2."""
    a, n = metric.a_exact, metric.algebra.factors
    A, X, B, Y = np.zeros((4, n, 3), dtype=object)
    X[:, 0] = Y[:, 2] = 1
    A[0, 0], A[1, 0] = a, -a
    B[:, 2] = -a
    B[1, 2] = (n - 1) * a
    return _witness(metric, A + X, B + Y, (A * A).sum() + a * n,
                    (B * B).sum() + a * n, a * (1 - a) ** 3 * (1 + 3 * a) * n)


def _decide(metric):
    """Whether the metric has a negatively curved plane, decided exactly:
    ("nonnegative", rule) when _nonnegative_rule proves that it has none;
    ("negative", witness) with the _Witness of _circle_witness for a
    circle k (rank 1) at 3a > 4, and of _diagonal_witness for the
    untwisted diagonal (_is_diagonal) at a > 1; ("undecided", reason)
    otherwise: twisted diagonals, and tori of rank 2 or more past 4/3.
    The diagonal of su(2)^1 is an ideal, so the witness only meets n >= 2.
    Builds no curvature operator."""
    rule = _nonnegative_rule(metric)
    if rule is not None:
        return "nonnegative", rule
    split = metric.split
    if split.dim_k == 1 and 3 * metric.a_exact > 4:
        return "negative", _circle_witness(metric)
    if _is_diagonal(split):
        return "negative", _diagonal_witness(metric)
    if not split.is_abelian():
        return "undecided", "k is neither an ideal nor abelian"
    return "undecided", "no witness for an abelian k of rank {} past 4/3".format(
        split.dim_k)


def _frame(metric, u, v):
    """A Q_a-orthonormal float pair spanning the plane of the float
    elements u, v (n, 3), such as a scan's minimum plane: Gram-Schmidt on
    their stacked (m, k) parts, with Q_a read as <x_m, y_m> + a <x_k, y_k>,
    in which nothing cancels."""
    uv = np.stack((u, v))
    k = metric.split.project_k(uv)
    p, q = np.stack((uv - k, k), axis=1)

    def inner(x, y):
        return np.vdot(x[0], y[0]) + metric.a * np.vdot(x[1], y[1])

    p = p / math.sqrt(inner(p, p))
    q = q - inner(q, p) * p
    q = q / math.sqrt(inner(q, q))
    return p.sum(axis=0), q.sum(axis=0)


def find_negative_plane(metric, budget=100_000, seed=0):
    """Seeded scan of `budget` random planes, and the exact decision
    (_decide) of whether the metric has a negatively curved plane.

    found is True exactly when _decide refutes the metric with a witness;
    no float threshold decides it. Then value is the witness's exact
    sectional curvature as a float, (u, v) a Q_a-orthonormal float frame
    of its plane, and oracle_value the connection oracle there; a
    disagreement beyond _ORACLE_RTOL of max(1, |value|) raises
    AssertionError, so the closed form never certifies itself. Otherwise
    value and (u, v), again a Q_a-orthonormal frame, describe the scan's
    minimum plane. evaluations is the number of scanned planes, budget,
    an int in [1, MAX_PLANES], and scan_min the scan's minimum.
    Deterministic for a fixed (budget, seed).

    A split _decide leaves undecided reports found=False with its scan
    minimum, even where a negative plane exists: twisted diagonals, and
    tori of rank 2 or more past 4/3, which only library callers build.
    Every split the CLI names (diagonal, factorN, span-i/j/k) is decided.
    """
    require_count(budget, "budget", MAX_PLANES)
    scan = scan_min_sectional(metric, n_planes=budget, seed=seed)
    verdict, witness = _decide(metric)
    if verdict == "negative":
        (u, v), value, oracle = witness.frame, float(witness.value), witness.oracle
    else:
        u, v = _frame(metric, scan.u, scan.v)
        value = scan.min_value
        oracle = float(metric.curvature_oracle_of_pair(u, v))
    return PlaneSearchResult(verdict == "negative", value, u, v, oracle,
                             budget, scan.min_value)


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

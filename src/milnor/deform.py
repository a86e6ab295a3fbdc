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
large a digits can cancel. At a = A_MAX most planes of a circle are
also nearly parallel in Q_a, where the Gram determinant |u|^2 |v|^2 -
<u, v>^2 cancels: the closed form over it is up to about 1e-6 of
max(1, |value|) off an exact evaluation. The kernel takes those planes'
Gram determinant from the part of v orthogonal to u (_NEAR_PARALLEL) and
stays within 1e-12 there (the measurements are in CHANGES.md). The (P, Z)
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
of the vectors, with its own bracket and no basis. A witness's exact
value is checked by the same formula in integers (_integer_curvature),
on the recipe's own integer vectors and integer rows spanning k, and
must equal it exactly; the plane search then checks the float oracle
at the witness's float frame to _ORACLE_RTOL.

The public methods and functions take and return elements of su(2)^n in
their (..., n, 3) form. By Milnor (Curvatures of left invariant metrics
on Lie groups, 1976) the curvature of a left-invariant metric is one
constant tensor, so the closed form is one quadratic form in the
bivector u ^ v, whatever the plane. DeformedMetric._operator builds it
once per metric, on first use: the symmetric matrix M that the closed
form's (W, P, Z) define on the bivectors of a Q_a-orthonormal frame
adapted to m + k (built from one bracket per frame pair, see
_full_operator), kept on the K frame pairs where it is not identically
zero (3n of the 3n (3n - 1) / 2 on a product split). curvature_of_pair,
sectional_batch and the random-plane scans all evaluate it, in
_bivector_form: one matmul takes a batch of pairs to their frame
coordinates and to those coordinates' entries at the kept pairs, one
wedge gives b = u ^ v over the kept pairs, and <b, M b> is one (K, K)
product and row sums. So oracle_agreement checks the kernel the scans
use. Each vector costs dim (dim + 2K) multiply-adds to map and each
plane about K^2 + 3K + dim more: the wedge, M b, <b, M b> and <u, v>.
On the diagonal of su(2)^n K grows like n^2, so there the (K, K)
product is most of a plane's cost (the timings are in CHANGES.md).

The random-plane scans (_scan) walk one seeded sequence of vectors block
by block and keep only their draw and one block.

The kernel takes its vectors as the columns of a (dim, C) array, so the
frame map is a (dim + 2K, dim) @ (dim, C) product with no transposed
operand, and writes its coordinates, pair entries, wedges and M b into
one flat workspace, which also holds the vectors themselves
(DeformedMetric._columns) until the frame map has read them. A scan, and
sectional_batch and curvature_of_pair, allocate one workspace per call,
which all their blocks reuse. A scan block holds as many planes as fit
_BLOCK_FLOATS floats, dim + 3K a vector, and at least _MIN_BLOCK, so
small algebras and product splits take more planes a block; a block of
those methods holds as many pairs.

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
from operator import mul

import numpy as np

from .errors import (DegeneratePlaneError, ParameterError, ValidationError,
                     exact_real, require_count, require_seed)
from .liealg import _AFTER, _NEXT, Su2Power, _binade, _carve

_GRAM_TOL = 1e-12
#: The Q_a sin^2 below which _sectional_block takes a plane's Gram
#: determinant as |u|^2 |v_perp|^2, v_perp being v less its projection on
#: u. The difference |u|^2 |v|^2 - <u, v>^2 cancels and is good to only
#: about eps / sin^2 of itself, which above this keeps a plane's value
#: within about 2e-13; |u|^2 |v_perp|^2 is good to about eps / sin. On a
#: circle at A_MAX most planes lie below it.
_NEAR_PARALLEL = 2.0 ** -8
#: The floats of one random-plane scan block's workspace (see
#: _block_floats), which every block of a scan reuses; a metric's scan
#: block is as many planes as fit, and at least _MIN_BLOCK: on span-i 9215
#: on su(2)^1, 4607 on su(2)^2 and 3071 on su(2)^3 (36 floats a vector),
#: and on the su(2)^3 diagonal 1227. Blocking changes no value. Over
#: budgets of 1024 to 4096 vectors of 36 floats, the small algebras' scan
#: time falls by about a tenth up to this one and is flat past it (the
#: timings are in CHANGES.md).
_BLOCK_FLOATS = 3072 * 36
#: The fewest planes in a scan block. An operator that keeps many pairs
#: would get few planes from _BLOCK_FLOATS alone: the su(2)^16 diagonal
#: (K = 768, 2352 floats a vector) 46, on which its (K, K) product runs
#: well below speed; it takes blocks of 64 planes, and diagonals up to
#: su(2)^13 (69 planes) are above the floor (the timings are in
#: CHANGES.md).
_MIN_BLOCK = 64
#: The most pairs in a block of the connection oracle, whose blocks share
#: one workspace (see curvature_oracle_of_pair), and of oracle_agreement's
#: draw; a batch of more pairs is cut into the fewest blocks of nearly
#: equal size that hold it (see _blocks). Smaller blocks pay the
#: oracle's fixed cost of about 70 us more often; larger ones leave the
#: cache (the timings are in CHANGES.md).
_ORACLE_BLOCK = 512
#: The elements (n, 3) a pair takes in _koszul_curvature's workspace: its
#: ten vectors, the operands and products of its nine-bracket level, and
#: three projector products.
_ORACLE_SLOTS = 10 + 4 * 9 + 3
#: The most planes scan_min_sectional (so nonneg_certificate) and the most
#: sample pairs oracle_agreement take; counts are checked before anything
#: is drawn. A scan keeps its draw, dim floats for every eight planes,
#: and one block; oracle_agreement one block of pairs. On su(2)^3 a scan
#: peaks at about 20 bytes a plane at 10^5 planes and 11 MB at the cap,
#: in well under a second, and oracle_agreement at under 3 MB whatever
#: the count, in a few seconds at the cap (the measurements are in
#: CHANGES.md). The cap bounds the time: the su(2)^16 diagonal takes about
#: a minute a scan there.
MAX_PLANES = 10 ** 6
#: How far, relative to max(1, |value|), the float connection oracle at
#: the Q_a-orthonormal frame of a witness plane, which find_negative_plane
#: reports, may stray from the witness's exact sectional curvature. The
#: witness itself is checked exactly, by _integer_curvature, with no
#: tolerance: a certificate never reads this.
_ORACLE_RTOL = 1e-6
#: The deformation scales DeformedMetric accepts: those on which the
#: connection oracle still checks the closed form to _ORACLE_RTOL of
#: max(1, |value|), measured on every diagonal, factorN and span-i/j/k
#: split of su(2)^1..3, on 4000 standard-normal pairs per split and on the
#: Q_a-orthonormal frames find_negative_plane reports (seeds 0-3, budget
#: 2000). The oracle sets both ends (the measurements are in CHANGES.md).
#: Below 1: on those frames of scan minima its error grows as a falls, as
#: the k-part of [x, G y] + [y, G x], zero in exact arithmetic, keeps its
#: rounding and is divided by a; at 1e-8 it is still some hundred times
#: inside _ORACLE_RTOL. That margin depends on how the projector products
#: round: taken on one vector at a time (BLAS gemv) they read hundreds of
#: times more. On random pairs it stays near rounding. Above 1: on
#: random pairs its error grows about like a, largest on the pairs whose
#: value is small beside its terms, and passes _ORACLE_RTOL past 1e6,
#: while on the frames of witness planes it stays within rounding of the
#: exact value at 1e6 and 1e8. The kernel's sectional values, with their
#: Gram determinants taken from the part of v orthogonal to u where u and
#: v are nearly parallel (_NEAR_PARALLEL), stay within 3e-12 of an exact
#: evaluation on the planes measured at both ends.
A_MIN = 1e-7
A_MAX = 1e6
#: The largest float, an integer: |p| <= _FLOAT_MAX q is |p/q| <= it.
_FLOAT_MAX = int(sys.float_info.max)
#: Vectors of a random-plane scan's sequence per drawn vector (see _scan).
_VIEWS = 8
#: The seed of the fixed rotations of _views, fixed before their scans'
#: quality was measured.
_VIEW_SEED = 1976


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


class _Operator(namedtuple("_Operator", "frame pairs matrix")):
    """A metric's curvature operator on K frame pairs (see
    DeformedMetric._full_operator): the pairs (2, K), the (K, K) matrix,
    and frame, (dim + 2K, dim), which maps a flat element u to its frame
    coordinates x, then x_i, then x_j over the pairs; with y, y_i, y_j
    those of v, the bivector u ^ v is b = x_i y_j - x_j y_i."""
    __slots__ = ()

    @classmethod
    def of(cls, coords, pairs, matrix):
        rows = np.arange(len(coords))
        return cls(coords[np.concatenate((rows, *pairs))], pairs, matrix)


def _finite_element(algebra, x):
    """x as an element of the algebra (Su2Power.check_element), refused
    with ValidationError unless every entry is finite."""
    x = algebra.check_element(x)
    if not np.isfinite(x).all():
        raise ValidationError("vectors must be finite")
    return x


def _blocks(n):
    """Slices cutting n pairs into the fewest blocks of at most
    _ORACLE_BLOCK pairs, of sizes that differ by at most one, one at a
    time: 513 pairs are blocks of 256 and 257, so no block of a batch
    larger than _ORACLE_BLOCK holds a single pair."""
    count = -(-n // _ORACLE_BLOCK)
    for i in range(count):
        yield slice(i * n // count, (i + 1) * n // count)


def _koszul_curvature(u, v, projector, a, work=None):
    """Q_a(R(u, v)v, u) for elements u, v (..., n, 3) of one shape, given
    the Q-orthogonal projector (dim, dim) onto k, from the Levi-Civita
    connection alone.

    Milnor's formula nabla_x y = ([x, y] - ad*_x y - ad*_y x) / 2 needs no
    basis: Q is ad-invariant, so ad*_x = -G^-1 ad_x G with G = Q on m and
    a Q on k, applied part-wise as x_m + a x_k and its inverse as
    x_m + x_k / a, never as x + (a - 1) x_k, which cancels for small a.
    So nabla_x y = ([x, y] + G^-1 ([x, G y] + [y, G x])) / 2, and
    R(u, v)v = nabla_u nabla_v v - nabla_v nabla_u v - nabla_[u,v] v.

    The recursion runs in two levels, each one stacked call:
    - level 1, nabla_v v and nabla_u v, from the four brackets [v, Gv],
      [u, Gv], [v, Gu] and [u, v]: nabla_v v needs [v, Gv] alone, as
      [v, v] = 0 and both its turned terms are [v, Gv];
    - level 2, nabla_u nabla_v v, nabla_v nabla_u v and nabla_[u,v] v,
      from nine brackets, [u, v] being level 1's.
    Each G-image, of u, v, the two level-1 values and [u, v], is taken
    once, and each level's G^-1 is one product on its stack: 11 products
    with the projector and 13 brackets in all. Each entry goes through
    the operations of nabla nested as in the formula above, in their
    order, so only a projector product can move a float value: BLAS may
    sum it in another order on a stack of pairs than on one pair or one
    vector, which on a dense projector (a diagonal, a generic circle)
    moves a value by up to about 1e-9 of max(1, |value|) at the ends of
    the accepted scales, and about 5e-16 in between. Only ring operations
    and division by 2 and a are used, so Fraction object arrays give
    exact values.

    The stacks live in work, a flat buffer of at least _ORACLE_SLOTS
    u.size entries of the arrays' dtype, or a new one when it is None;
    a batch in blocks passes each block the same one."""
    inv = 1 / a
    if work is None:
        work = np.empty(_ORACLE_SLOTS * u.size,
                        np.result_type(u, v, projector))
    slots = work[:_ORACLE_SLOTS * u.size].reshape((_ORACLE_SLOTS,) + u.shape)
    # the ten vectors the levels read, a level's bracket operands and
    # products, and its projector products
    vs, x, y, p, q, k = (slots[:10], slots[10:19], slots[19:28],
                         slots[28:37], slots[37:46], slots[46:])
    flat = u.shape[:-2] + (u.shape[-2] * 3,)

    def scaled(src, s, out):
        """out = src_m + s src_k for each element of the stack src."""
        part = k[:len(src)]
        np.matmul(src.reshape((len(src),) + flat), projector,
                  out=part.reshape((len(src),) + flat))
        np.subtract(src, part, out=out)
        part *= s
        out += part
        return out

    def bracket(first, second):
        """The brackets [vs[i], vs[j]] for i, j in first, second."""
        X, Y, out, minus = (w[:len(first)] for w in (x, y, p, q))
        # the indices are in range; "wrap" lets take write out unbuffered
        np.take(vs, first, axis=0, out=X, mode="wrap")
        np.take(vs, second, axis=0, out=Y, mode="wrap")
        for l, (i, j) in enumerate(zip(_NEXT, _AFTER)):
            np.multiply(X[..., i], Y[..., j], out=out[..., l])
            np.multiply(X[..., j], Y[..., i], out=minus[..., l])
        out -= minus
        out *= 2
        return out

    vs[0], vs[1] = u, v
    scaled(vs[:2], a, vs[2:4])                  # 2 Gu, 3 Gv
    # [v, Gv], [u, Gv], [v, Gu], [u, v]
    br = bracket([1, 0, 1, 0], [3, 3, 2, 1])
    level = scaled(np.add(br[:2], br[0:3:2], out=x[:2]), inv, vs[4:6])
    level[1] += br[3]
    level /= 2                                  # 4 nabla_v v, 5 nabla_u v
    vs[6] = br[3]                               # 6 [u, v]
    scaled(vs[4:7], a, vs[7:])                  # 7-9 their G-images
    # [u, nabla_v v], [v, nabla_u v], [[u, v], v], then the turned terms
    # [u, G nabla_v v], [v, G nabla_u v], [[u, v], Gv] and
    # [nabla_v v, Gu], [nabla_u v, Gv], [v, G [u, v]]
    br = bracket([0, 1, 6, 0, 1, 6, 4, 5, 1], [4, 5, 1, 7, 8, 3, 2, 3, 9])
    turned = br[3:6]
    turned += br[6:]
    level = scaled(turned, inv, y[:3])
    level += br[:3]
    level /= 2
    r = np.subtract(level[0], level[1], out=x[:1])
    r -= level[2]
    return np.einsum("...ij,...ij->...", scaled(r, a, y[3:4])[0], u)


class DeformedMetric:
    """Q on the complement m, a*Q on the subalgebra k, for a in
    [A_MIN, A_MAX]."""

    def __init__(self, split, a):
        exact = exact_real(a, "deformation scale a")
        # the range is read on the float; one past every float reads as inf
        p, q = exact.numerator, exact.denominator
        a = float(exact) if abs(p) <= _FLOAT_MAX * q else math.inf
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

    def __repr__(self):
        return "DeformedMetric(a={:.6g}, dim_k={}, algebra={!r})".format(
            self.a, self.split.dim_k, self.algebra)

    @functools.cached_property
    def _abelian(self):
        """split.is_abelian(), read by the abelian rule (_nonnegative_rule)
        and by a certificate's abelian_block clause; computed once."""
        return self.split.is_abelian()

    # -- curvature, closed form -------------------------------------------

    def curvature_of_pair(self, u, v):
        """Unnormalized curvature Q_a(R(u, v)v, u) of arbitrary finite
        vectors u, v; arbitrary leading sample axes broadcast. The value
        is <b, M b> at their bivector b = u ^ v, the curvature operator's
        form (see _operator) that the scans evaluate: quartic in the
        inputs, zero when the two arguments are proportional. The pairs
        are evaluated in blocks (see _pair_blocks), as in
        sectional_batch."""
        shape, blocks = self._pair_blocks(u, v)
        values = np.empty(shape)
        flat = values.reshape(-1)
        for block, S, work in blocks:
            flat[block] = self._bivector_form(S, S.shape[1] // 2, work)[1]
        return values

    # -- curvature, Koszul oracle ------------------------------------------

    def curvature_oracle_of_pair(self, u, v):
        """Same quantity as curvature_of_pair(), computed the long way
        round by _koszul_curvature from the Levi-Civita connection, with
        none of the closed form's kernel; leading sample axes broadcast.
        More pairs than _ORACLE_BLOCK are taken in blocks (see _blocks),
        each in the same workspace: block-sized temporaries, freed, let
        the allocator hand their memory back to the system, and the next
        block faulted it in again (as in _scan). No block holds a single
        pair, whose projector products BLAS may round otherwise (see
        _koszul_curvature), so blocking changes no value. Non-finite
        vectors are refused, as there."""
        u, v = (_finite_element(self.algebra, x) for x in (u, v))
        if u.shape != v.shape:
            u, v = np.broadcast_arrays(u, v)
        projector, a = self.split._projector, self.a
        shape = u.shape[:-2]
        if math.prod(shape) <= _ORACLE_BLOCK:
            return _koszul_curvature(u, v, projector, a)
        u, v = (x.reshape((-1,) + x.shape[-2:]) for x in (u, v))
        work = np.empty(_ORACLE_SLOTS * _ORACLE_BLOCK * self.algebra.dim)
        values = np.empty(len(u))
        for block in _blocks(len(u)):
            values[block] = _koszul_curvature(u[block], v[block], projector,
                                              a, work)
        return values.reshape(shape)

    def oracle_agreement(self, samples=64, seed=0):
        """Worst absolute gap between the closed-form curvature and the
        connection-based oracle over seeded random vector pairs, a u and
        then a v per sample. The pairs are drawn block by block, in the
        blocks of _blocks, and each block goes through both routes before
        the next is drawn; consecutive draws are the numbers of one draw,
        so the pairs do not depend on the blocks."""
        require_count(samples, "samples", MAX_PLANES)
        require_seed(seed)
        rng = np.random.default_rng(seed)
        worst = 0.0
        for block in _blocks(samples):
            uv = self.algebra.random(rng, (block.stop - block.start, 2))
            u, v = uv[:, 0], uv[:, 1]
            gaps = self.curvature_of_pair(u, v)
            gaps -= self.curvature_oracle_of_pair(u, v)
            worst = np.maximum(worst, np.max(np.abs(gaps, out=gaps)))
        return float(worst)

    # -- sectional curvature ------------------------------------------------

    def sectional_batch(self, U, V):
        """Vectorized sectional curvature of the planes spanned by finite
        elements U, V (..., n, 3), whose sample axes broadcast. Returns
        (values, valid) of their broadcast sample shape, valid as
        _sectional_block decides it; invalid slots hold +inf. Each vector
        is first moved into the binade of its largest entry
        (liealg._binade), so vectors of any finite size give the values of
        their moderate multiples, and a power-of-two multiple of a vector
        exactly the same values. The planes are evaluated in blocks of at
        most _scan_block (see _pair_blocks), each value the one a kernel
        call on its block gives: BLAS rounds the last columns of a product
        otherwise than the rest, so a pair's last bits can depend on where
        it falls in its batch (by about 1e-15 of max(1, |value|) on the
        su(2)^3 diagonal, see CHANGES.md) and, under one BLAS thread, on
        where in memory the batch lies."""
        shape, blocks = self._pair_blocks(U, V, scale=_binade)
        vals, ok = np.full(shape, np.inf), np.empty(shape, dtype=bool)
        flat_vals, flat_ok = vals.reshape(-1), ok.reshape(-1)
        for block, S, work in blocks:
            flat_ok[block] = self._sectional_block(S, S.shape[1] // 2, work,
                                                   flat_vals[block])
        return vals, ok

    def _pair_blocks(self, U, V, scale=None):
        """The N samples of finite elements U, V (..., n, 3), whose sample
        axes broadcast, in blocks of at most _scan_block: returns the shape
        of those axes and an iterator over the blocks. For a block of c
        samples it yields their slice of the N, in flat order, the (dim,
        2c) array of their vectors, each mapped by scale when it is given,
        the U before the V, so that sample t spans columns t and t + c,
        and the workspace that array lies in (see _columns), which every
        block reuses. A non-finite vector is refused with ValidationError
        before any is evaluated."""
        alg = self.algebra
        U, V = np.broadcast_arrays(*(_finite_element(alg, x) for x in (U, V)))
        shape = U.shape[:-2]
        N = math.prod(shape)
        U, V = (x.reshape(N, alg.dim) for x in (U, V))
        step = max(1, min(N, self._scan_block))
        work = self._workspace(step, step)

        def blocks():
            for i in range(0, N, step):
                c = min(step, N - i)
                S = self._columns(work, 2 * c)
                for half, X in zip((S[:, :c], S[:, c:]), (U, V)):
                    X = X[i:i + c]
                    if scale is not None:
                        X = scale(X.reshape(c, alg.factors, 3)).reshape(c, -1)
                    half[...] = X.T
                yield slice(i, i + c), S, work

        return shape, blocks()

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
        the m-basis and sqrt(a) times those with the k-basis. The closed
        form's (W, P, Z) are linear in the bivector e_i ^ e_j, and M is the
        closed form's weights on them. Every frame vector lies wholly in m
        or wholly in k, so of the four brackets of the parts of e_i and e_j
        only C = [e_i, e_j] can be nonzero: two m-vectors give W = C_m and
        P = C_k, an m-vector and a k-vector W = a C, and two k-vectors
        Z = C."""
        alg, split = self.algebra, self.split
        d, n, r = alg.dim, alg.factors, split.dim_k
        # eigh with each component's rows and columns together: a diagonal
        # is block diagonal in that order, so its frame stays sparse
        rows = split._projector.reshape(n, 3, n, 3).transpose(1, 0, 3, 2)
        basis = np.linalg.eigh(rows.reshape(d, d))[1]
        coords = basis.T.reshape(d, 3, n).transpose(0, 2, 1).reshape(d, d)
        a = self.a
        root = math.sqrt(a)
        frame = coords.copy()
        frame[d - r:] /= root
        coords[d - r:] *= root
        index = np.arange(d)
        pairs = np.array(np.nonzero(index[:, None] < index))
        D = pairs.shape[1]
        C = alg.bracket(*frame[pairs].reshape(2, D, n, 3)).reshape(D, d)
        # e_i and e_j (m first, i < j) lie in m when ~j and in k when i: two
        # m-vectors get P = C_k and W = C - P, an m- and a k-vector W = a C,
        # two k-vectors Z = C, and every other entry is an exact zero
        i, j = (pairs >= d - r)[..., None]
        P = C @ split._projector * ~j
        W = (C - P) * np.where(i == j, ~j, a)
        vecs = np.stack((W, P, C * i), axis=1)
        # the closed form's weights of (W, P, Z), as a symmetric 3 x 3 form
        pz = 0.5 * (a * (1.5 - a))
        weights = np.array([[0.25, 0.0, 0.0], [0.0, 1.0 - 0.75 * a, pz],
                            [0.0, pz, 0.25 * a]])
        matrix = vecs.reshape(D, -1) @ (weights @ vecs).reshape(D, -1).T
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

    def _bivector_form(self, S, shift, work):
        """The frame coordinates, (dim, C), of the C vectors that are the
        columns of S (dim, C), and <b, M b> at the bivector b = u ^ v (see
        _operator) of each of their C - shift pairs (u, v) = (S[:, t],
        S[:, t + shift]). One matmul, frame @ S, takes every vector into the
        frame once; S may lie in work, where _columns puts it. The wedge
        pairs column t of the pair entries with column t + shift: on the
        flattened row-major (K, C) blocks, x_i[:-shift] * x_j[shift:] is
        x_i y_j at every plane, and a junk product where a row's last shift
        columns meet the next row, so every elementwise pass runs on
        contiguous memory. M b is one (K, K)
        product over all C columns. A scan block is a run of its sequence,
        shift 1; a block of c pairs of sectional_batch or curvature_of_pair
        is its U and V side by side, shift c.
        The coordinates, pair entries, b and M b are laid out in work, a
        flat float buffer of at least _block_floats(C - shift, shift)
        floats (see liealg._carve), or a new array when it is None."""
        frame, _, matrix = self._operator
        d, K = self.algebra.dim, len(matrix)
        C = S.shape[1]
        space = _carve(work, (d + 3 * K, C))
        np.matmul(frame, S, out=space[:d + 2 * K])
        xi, xj, b = (space[d + r * K:d + (r + 1) * K].reshape(-1)
                     for r in range(3))
        n = K * C - shift
        np.multiply(xi[:n], xj[shift:], out=b[:n])             # x_i y_j
        b[:n] -= np.multiply(xj[:n], xi[shift:], out=xj[:n])   # x_j y_i
        b[n:] = 0.0                            # unwritten, and read by M b
        b = b.reshape(K, C)
        Mb = np.matmul(matrix, b, out=xi.reshape(K, C))
        return space[:d], np.einsum("kn,kn->n", b, Mb)[:C - shift]

    def _block_floats(self, N, shift=1):
        """The floats _sectional_block's workspace takes for N planes over
        N + shift vectors: dim + 3K a vector, for its frame coordinates,
        pair entries and wedge entries, whose space M b reuses. A scan
        block is the most planes of shift 1 whose workspace fits
        _BLOCK_FLOATS."""
        d, K = self.algebra.dim, len(self._operator.matrix)
        return (d + 3 * K) * (N + shift)

    def _workspace(self, N, shift=1):
        """A workspace for _sectional_block on up to N planes over N + shift
        vectors, with room for the vectors themselves (see _columns):
        _block_floats(N, shift) floats, and dim - K more a vector where the
        operator keeps fewer pairs K than dim."""
        d, K = self.algebra.dim, len(self._operator.matrix)
        return np.empty(self._block_floats(N, shift)
                        + max(0, d - K) * (N + shift))

    def _columns(self, work, C):
        """The (dim, C) array at the end of a _workspace in which a block of
        C vectors goes to _sectional_block: past the frame coordinates and
        pair entries that the frame map writes (see _bivector_form), so it
        reads them before the wedge entries overwrite them."""
        return work[len(work) - self.algebra.dim * C:].reshape(-1, C)

    @property
    def _scan_block(self):
        """Planes per random-plane scan block: as many as fill
        _BLOCK_FLOATS, and at least _MIN_BLOCK."""
        return max(_MIN_BLOCK, _BLOCK_FLOATS // self._block_floats(0) - 1)

    def _sectional_block(self, S, shift, work, vals):
        """The kernel of sectional_batch and of the random-plane scans: the
        valid flags of the planes (S[:, t], S[:, t + shift]) of the vectors
        that are the columns of S (dim, C), taken as they are (see the
        module docstring on their size), with each valid plane's value
        written into vals, an array of C - shift floats that holds +inf
        for an invalid plane; each vector's Q_a norm is taken once.

        A plane is valid when |u|^2 |v|^2 > 0 and its Gram determinant
        |u|^2 |v|^2 - <u, v>^2, taken as |u|^2 |v_perp|^2 where that
        difference is below _NEAR_PARALLEL |u|^2 |v|^2, is at least
        _GRAM_TOL |u|^2 |v|^2: when the Q_a sin^2 of the angle between u
        and v is at least _GRAM_TOL. Its value is then <b, M b> (see
        _bivector_form) over that determinant,
        both read on the frame coordinates, in which Q_a is the dot
        product. work is as _bivector_form takes it."""
        x, form = self._bivector_form(S, shift, work)
        N = S.shape[1] - shift
        nn = np.einsum("in,in->n", x, x)
        uv = np.einsum("in,in->n", x[:, :N], x[:, shift:])
        norms = nn[:N] * nn[shift:]
        gram = norms - uv * uv
        near = np.flatnonzero(gram < _NEAR_PARALLEL * norms)
        if near.size:
            xu, perp = x.take(near, axis=1), x.take(near + shift, axis=1)
            xu *= uv[near] / nn[near]
            perp -= xu
            gram[near] = nn[near] * np.einsum("in,in->n", perp, perp)
        ok = (norms > 0) & (gram >= _GRAM_TOL * norms)
        np.divide(form, gram, out=vals, where=ok)
        return ok


class ScanResult(namedtuple("ScanResult",
                            "min_value u v n_planes n_valid seed")):
    """Outcome of a seeded random-plane curvature scan."""
    __slots__ = ()


@functools.cache
def _views(factors):
    """The _VIEWS fixed orthogonal (dim, dim) matrices through which a scan
    sees each drawn vector of su(2)^factors, read-only, built once per
    dimension: R_0 = I and, for j >= 1, R_j the Q factor of the QR
    decomposition of a Gaussian matrix drawn from _VIEW_SEED, each column's
    sign chosen to make R's diagonal positive. Q is the identity in flat
    coordinates, so R_j g is a standard normal vector whenever g is."""
    alg = Su2Power(factors)
    draw = alg.random(np.random.default_rng(_VIEW_SEED), (_VIEWS - 1, alg.dim))
    q, r = np.linalg.qr(draw.reshape(_VIEWS - 1, alg.dim, alg.dim))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    views = np.concatenate((np.eye(alg.dim)[None], q))
    views.flags.writeable = False
    return views


def _scan(metric, n, seed):
    """The random-plane scan of n planes: its minimum sectional value, the
    plane (u, v), each (factors, 3), of its first occurrence, and the count
    of valid planes. Raises when every plane degenerates.

    The planes walk one sequence of n + 1 vectors in flat element order,
    plane t spanning vectors t and t + 1: g = max(2, ceil((n + 1) / 8))
    seeded Gaussian vectors g_i, each also seen through seven fixed
    rotations, vector j g + i being R_j g_i for the R_j of _views, cut at
    n + 1. Consecutive vectors are independent standard normal vectors,
    inside a view and across a view boundary (g >= 2), as Q is the
    identity in flat coordinates and a rotation takes a standard normal
    vector to one: so every plane is a Gaussian pair. Rotating a vector
    costs far less than drawing one, and each vector is made, framed and
    normed once for its two planes.

    The scan keeps only its draw and one block, never the whole sequence
    or every plane's value. The draw, the columns of a (dim, g) array G,
    is Su2Power.random's, in chunks that fit the block workspace, each
    copied transposed into G; chunks give the seeded stream's numbers as
    one call would. A block of c planes, at most metric._scan_block, lays
    its c + 1 vectors out in the workspace (see DeformedMetric._columns)
    for _sectional_block: the first carried from the block before, copied
    out of its last column before the kernel wrote over it, then a copy of
    view 0 and one (dim, dim) @ (dim, m) product over the block's part of
    each other view it meets. The scan keeps the least value, its plane's
    index and the valid count, and then lays that plane's block out again
    in the same place, its carried vector and the products of the views
    the plane meets: BLAS can round a product's last columns otherwise
    when its operand lies elsewhere, so the reported plane is bit for bit
    the pair the kernel evaluated. Every block reuses the one workspace: a
    scan that freed dozens of block-sized temporaries let the allocator
    hand them back to the system, and the next scan faulted them in
    again."""
    require_seed(seed)
    alg = metric.algebra
    d = alg.dim
    g = max(2, -(-(n + 1) // _VIEWS))
    step = metric._scan_block
    work = metric._workspace(min(n, step))
    G = np.empty((d, g))
    rng = np.random.default_rng(seed)
    chunk = metric._block_floats(min(n, step)) // d
    for i in range(0, g, chunk):
        m = min(chunk, g - i)
        G[:, i:i + m] = alg.random(rng, m, out=work).reshape(m, d).T
    views = _views(alg.factors)

    def lay(i, S, k, l):
        """Into S (dim, c + 1), the block whose column 0 is vector i, its
        vectors i + 1 to i + c of each view that vectors k to l lie in: a
        copy of view 0, and one product over the block's part of each
        other view."""
        end = i + S.shape[1]
        for j in range(k // g, l // g + 1):
            lo, hi = max(i + 1, j * g), min(end, (j + 1) * g)
            if j:
                np.matmul(views[j], G[:, lo - j * g:hi - j * g],
                          out=S[:, lo - i:hi - i])
            else:
                S[:, lo - i:hi - i] = G[:, lo:hi]

    vals = np.empty(min(n, step))
    first = carry = G[:, 0]
    least, at, n_valid = np.inf, 0, 0
    for i in range(0, n, step):
        c = min(step, n - i)
        S = metric._columns(work, c + 1)
        S[:, 0] = carry
        lay(i, S, i + 1, i + c)
        last = S[:, c].copy()
        block = vals[:c]
        block.fill(np.inf)
        ok = metric._sectional_block(S, 1, work, block)
        n_valid += int(np.count_nonzero(ok))
        t = int(np.argmin(block))
        if block[t] < least:
            least, at, first = float(block[t]), i + t, carry
        carry = last
    if not n_valid:
        raise DegeneratePlaneError("every sampled plane degenerated")
    i = at - at % step
    S = metric._columns(work, min(step, n - i) + 1)
    S[:, 0] = first
    lay(i, S, max(at, i + 1), at + 1)
    u, v = (x.reshape(alg.factors, 3).copy() for x in S[:, at - i:at - i + 2].T)
    return least, u, v, n_valid


def scan_min_sectional(metric, n_planes=100_000, seed=0):
    """Minimum sectional curvature over n_planes seeded random planes, the
    sequence _scan states, as a ScanResult whose plane is a copy of its
    two vectors."""
    require_count(n_planes, "n_planes", MAX_PLANES)
    min_value, u, v, n_valid = _scan(metric, n_planes, seed)
    return ScanResult(min_value=min_value, u=u, v=v, n_planes=n_planes,
                      n_valid=n_valid, seed=seed)


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
      factors, so k is one exactly when dim_k is a multiple of 3 and its
      basis has nonzero entries on exactly dim_k / 3 factors; only then
      are the factors counted.
    - k abelian and a <= 4/3: Z = 0 and 1 - 3a/4 >= 0. k is abelian when
      it has rank 1 or when every pair of its basis vectors brackets to
      exactly zero (ReductiveSplit.is_abelian, read once per metric as
      DeformedMetric._abelian).

    The scale is compared on the integers of a_exact = p/q, whose
    denominator is positive: a <= 1 is p <= q and 3a <= 4 is 3p <= 4q."""
    p, q = metric.a_exact.numerator, metric.a_exact.denominator
    if p <= q:
        return "a <= 1"
    split = metric.split
    if split.dim_k % 3 == 0 and \
            3 * np.count_nonzero(split.k_basis.any(axis=(0, 2))) == split.dim_k:
        return "ideal"
    if 3 * p <= 4 * q and metric._abelian:
        return "abelian"
    return None


class _Witness(namedtuple("_Witness", "u v value frame plane")):
    """A negatively curved plane, exactly: u and v, (n, 3) object arrays of
    ints and Fractions, span it, and value is its exact sectional
    curvature, a Fraction, which the integer Koszul oracle has checked.
    frame is a Q_a-orthonormal float pair spanning the plane. plane says,
    in words, where the plane lies."""
    __slots__ = ()


def _integer_curvature(U, V, p, q, rows, N):
    """The exact sectional curvature of the plane of U and V, flat integer
    elements (index 3 t + c) of su(2)^n, at a = p/q with q > 0, from
    Milnor's connection alone: an integer pair (num, den), den > 0 when U
    and V span a plane, whose quotient is the value. k is spanned by
    rows, pairwise Q-orthogonal integer flat elements of one squared norm
    N, so the projector onto k is sum_s s s^T / N.

    Everything is scaled into integers. H = qN G and H' = pN G^-1 are
        H x = qN x + (p - q) sum_s (s . x) s,
        H' x = pN x + (q - p) sum_s (s . x) s,
    both symmetric. With c = qN and e = pN, Milnor's
    2 nabla_x y = [x, y] + G^-1 ([x, G y] + [y, G x]) (see
    _koszul_curvature) becomes
        n(x, y) = ce [x, y] + H' ([x, H y] + [y, H x]) = 2ce nabla_x y,
    so R' = n(U, n(V, V)) - n(V, n(U, V)) - 2ce n([U, V], V) is
    (2ce)^2 R(U, V)V, and the sectional curvature is
        c <R', H U> / ((2ce)^2 (<H U, U> <H V, V> - <H U, V>^2)),
    with its own Gram determinant. The bracket is its own too: in each
    factor twice the cross product.

    Only the factors that U, V or a row touch take part: the bracket is
    factorwise and H and H' leave an untouched factor at zero, so every
    vector of the computation is zero there."""
    touched = [t for t in range(0, len(U), 3)
               if any(any(x[t:t + 3]) for x in (U, V, *rows))]
    U, V, *rows = ([x[i] for t in touched for i in range(t, t + 3)]
                   for x in (U, V, *rows))
    c, e = q * N, p * N
    ce = c * e

    def dot(x, y):
        return sum(map(mul, x, y))

    def scaled(x, diagonal, off):
        """diagonal x + off sum_s (s . x) s: H x or H' x."""
        out = [diagonal * xi for xi in x]
        for s in rows:
            w = off * dot(s, x)
            if w:
                out = [o + w * si for o, si in zip(out, s)]
        return out

    def bracket(x, y):
        out = []
        for t in range(0, len(x), 3):
            x0, x1, x2 = x[t:t + 3]
            y0, y1, y2 = y[t:t + 3]
            out += (2 * (x1 * y2 - x2 * y1), 2 * (x2 * y0 - x0 * y2),
                    2 * (x0 * y1 - x1 * y0))
        return out

    def H(x):
        return scaled(x, c, p - q)

    def n(x, hx, y, hy):
        """n(x, y) = 2ce nabla_x y, given hx = H x and hy = H y."""
        turned = scaled([s + t for s, t in zip(bracket(x, hy), bracket(y, hx))],
                        e, q - p)
        return [ce * b + g for b, g in zip(bracket(x, y), turned)]

    HU, HV = H(U), H(V)
    VV, UV, C = n(V, HV, V, HV), n(U, HU, V, HV), bracket(U, V)
    R = [f - s - 2 * ce * t for f, s, t in zip(
        n(U, HU, VV, H(VV)), n(V, HV, UV, H(UV)), n(C, H(C), V, HV))]
    uv = dot(HU, V)
    return c * dot(R, HU), (2 * ce) ** 2 * (dot(HU, U) * dot(HV, V) - uv * uv)


def _witness(metric, u, v, uu, vv, value, plane, U, V, rows, N):
    """The _Witness of the exact plane (u, v), described by plane, given
    Q_a-orthogonal with Q_a norms squared uu and vv, exact or their
    correctly rounded floats, and exact sectional curvature value:
    (u / sqrt(uu), v / sqrt(vv)) is its frame. The integer Koszul oracle
    (_integer_curvature) on U and V, integer multiples of u and v, with
    k spanned by rows of squared norm N, must give exactly value, or
    AssertionError is raised: the recipe's closed form sets the value
    and the connection checks it, with no tolerance. The values are
    compared by cross-multiplying their integers."""
    a = metric.a_exact
    num, den = _integer_curvature(U, V, a.numerator, a.denominator, rows, N)
    if not den or num * value.denominator != value.numerator * den:
        raise AssertionError(
            "exact value {} and integer oracle {}/{} disagree on the witness "
            "plane".format(value, num, den))
    frame = (u.astype(float) / math.sqrt(uu), v.astype(float) / math.sqrt(vv))
    return _Witness(u, v, value, frame, plane)


def _cross(x, y):
    """The cross product x x y of two 3-vectors given as sequences, in
    their own arithmetic; in one factor the bracket is twice it."""
    return [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0]]


def _circle_witness(metric):
    """The exact negatively curved plane of a circle k at 3a > 4.

    z is k's stored basis vector, read exactly. In each factor t with
    z_t != 0, p_t = z_t x e for the axis e on which |z_t| is smallest,
    and q_t = (z_t x p_t) / (2 |p_t|^2), so that [p_t, q_t] =
    2 p_t x q_t = z_t. Then A = sum p_t and B = sum q_t lie in m,
    <A, B> = 0 and [A, B] = z, so W = 0 and P = z in the closed form, and
    the plane has unnormalized curvature (1 - 3a/4) |z|^2 and sectional
    curvature (1 - 3a/4) |z|^2 / (|A|^2 |B|^2): 4 - 3a on span-i.

    The arithmetic is in integers: every stored float is a dyadic
    rational, so z = Z / D with Z integer and D the largest denominator
    of its entries, a power of two. Then p_t = P_t / D with
    P_t = Z_t x e, and q_t = (Z_t x P_t) / (2 |P_t|^2), in which D
    cancels; each entry becomes a Fraction once, and zero entries stay
    the int 0. |A|^2 = PP / D^2 and |B|^2 = BN / BD are kept as integer
    pairs, so with a = p/q the value is the one Fraction
    (4q - 3p) ZZ BD / (4q PP BN). The integer oracle checks it on D A,
    the P_t, and L B, the Q_t times L / (2 |P_t|^2) for L the least
    common multiple of the 2 |P_t|^2, with k spanned by Z."""
    Fraction = type(metric.a_exact)  # deform never imports fractions

    rows = metric.split.k_basis[0].tolist()
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    D = max(den for row in ratios for _, den in row)
    A, B = np.zeros((2, len(rows), 3), dtype=object)
    Z, U, V = ([0] * (3 * len(rows)) for _ in range(3))
    halves = []                 # (t, Q_t, 2 |P_t|^2) of each factor of z
    ZZ = PP = BN = 0
    BD = 1
    for t, (row, ratio) in enumerate(zip(rows, ratios)):
        if not any(row):
            continue
        Zt = [num * (D // den) for num, den in ratio]
        axis = min(range(3), key=lambda l: abs(row[l]))
        P = _cross(Zt, [int(l == axis) for l in range(3)])
        Q = _cross(Zt, P)
        pp = sum(x * x for x in P)
        A[t] = [Fraction(x, D) if x else 0 for x in P]
        B[t] = [Fraction(x, 2 * pp) if x else 0 for x in Q]
        Z[3 * t:3 * t + 3], U[3 * t:3 * t + 3] = Zt, P
        halves.append((t, Q, 2 * pp))
        ZZ += sum(x * x for x in Zt)
        PP += pp
        # BN / BD += |q_t|^2 = |Q_t|^2 / (4 pp^2)
        BN, BD = BN * 4 * pp * pp + sum(x * x for x in Q) * BD, BD * 4 * pp * pp
    L = math.lcm(*(two_pp for _, _, two_pp in halves))
    for t, Q, two_pp in halves:
        V[3 * t:3 * t + 3] = [x * (L // two_pp) for x in Q]
    p, q = metric.a_exact.numerator, metric.a_exact.denominator
    return _witness(metric, A, B, PP / (D * D), BN / BD,
                    Fraction((4 * q - 3 * p) * ZZ * BD, 4 * q * PP * BN),
                    "a plane in m", U, V, [Z], ZZ)


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
    uu, vv = (A * A).sum() + a * n, (B * B).sum() + a * n
    # q u and q v in integers, and k spanned by (e_c, ..., e_c), |.|^2 = n
    p, q = a.numerator, a.denominator
    U, V = [0] * (3 * n), [0] * (3 * n)
    U[::3] = [q] * n
    U[0], U[3] = q + p, q - p
    V[2::3] = [q - p] * n
    V[5] = q + (n - 1) * p
    rows = [[int(i % 3 == c) for i in range(3 * n)] for c in range(3)]
    return _witness(metric, A + X, B + Y, uu, vv,
                    a * (1 - a) ** 3 * (1 + 3 * a) * n / (uu * vv),
                    "the plane of u = A + X, v = B + Y (A, B in m; X, Y in k)",
                    U, V, rows, n)


def _decide(metric):
    """Whether the metric has a negatively curved plane, decided exactly:
    ("nonnegative", rule) when _nonnegative_rule proves that it has none;
    ("negative", witness) with the _Witness of _circle_witness for a
    circle k (rank 1) at 3a > 4, and of _diagonal_witness for the
    untwisted diagonal (_is_diagonal) at a > 1; ("undecided", reason)
    otherwise: twisted diagonals, and tori of rank 2 or more past 4/3.
    The diagonal of su(2)^1 is an ideal, so the witness only meets n >= 2.
    A witness's value has been checked exactly by the integer oracle
    (see _witness), which raises AssertionError on a disagreement. Builds
    no curvature operator, reads no projector and runs no float oracle."""
    rule = _nonnegative_rule(metric)
    if rule is not None:
        return "nonnegative", rule
    split = metric.split
    a = metric.a_exact
    if split.dim_k == 1 and 3 * a.numerator > 4 * a.denominator:
        return "negative", _circle_witness(metric)
    if _is_diagonal(split):
        return "negative", _diagonal_witness(metric)
    if not metric._abelian:
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
    """Seeded scan of `budget` random planes (scan_min_sectional, whose
    planes _scan states) and the exact decision (_decide) of whether the
    metric has a negatively curved plane.

    found is True exactly when _decide refutes the metric with a witness;
    no float threshold decides it. Then value is the witness's exact
    sectional curvature as a float, which the integer oracle has checked
    exactly, (u, v) a Q_a-orthonormal float frame of its plane, and
    oracle_value the float connection oracle there; a disagreement beyond
    _ORACLE_RTOL of max(1, |value|) raises AssertionError, so the closed
    form never certifies itself. Otherwise value and (u, v), again a
    Q_a-orthonormal frame, describe the scan's minimum plane, and
    oracle_value is the float oracle at that frame. evaluations is the
    number of scanned planes, budget, an int in [1, MAX_PLANES], and
    scan_min the scan's minimum. Deterministic for a fixed (budget,
    seed).

    A split _decide leaves undecided reports found=False with its scan
    minimum, even where a negative plane exists: twisted diagonals, and
    tori of rank 2 or more past 4/3, which only library callers build.
    Every split the CLI names (diagonal, factorN, span-i/j/k) is decided.
    """
    require_count(budget, "budget", MAX_PLANES)
    scan = scan_min_sectional(metric, n_planes=budget, seed=seed)
    return _plane_search(metric, scan)


def _plane_search(metric, scan):
    """find_negative_plane's result on its scan, a ScanResult of the
    metric, for a caller that has the scan already. The float oracle runs
    once, at the frame it reports. The sign is the exact value's: just
    past the scale where a witness plane turns negative, the oracle's
    float scale may lie below it."""
    verdict, witness = _decide(metric)
    if verdict == "negative":
        (u, v), value = witness.frame, float(witness.value)
    else:
        u, v = _frame(metric, scan.u, scan.v)
        value = scan.min_value
    oracle = float(metric.curvature_oracle_of_pair(u, v))
    if verdict == "negative" and \
            abs(oracle - value) > _ORACLE_RTOL * max(1.0, abs(value)):
        raise AssertionError(
            "exact value {} ({!r}) and oracle {!r} disagree on the witness "
            "plane".format(witness.value, value, oracle))
    return PlaneSearchResult(verdict == "negative", value, u, v, oracle,
                             scan.n_planes, scan.min_value)


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

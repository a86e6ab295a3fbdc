"""Products of su(2) and orthogonal reductive splittings.

Elements of su(2)^n are numpy arrays of shape (n, 3): row t holds the
(i, j, k) components of factor t. The reference bi-invariant product Q makes
(i, j, k) orthonormal in every factor, so the commutator [i, j] = 2k has
Q-norm 2 and every factor at deformation scale 1 is a round 3-sphere of
sectional curvature 1. Batched inputs are allowed everywhere: any leading
axes in front of the trailing (n, 3) are treated as sample dimensions.

Su2Power.bracket is the package's one closed-form bracket, and a
ReductiveSplit keeps k as its basis and the Q-orthogonal projector onto k
on flat elements, index 3 t + c for component c of factor t.
"""

import functools
import math

import numpy as np

from .errors import (DimensionMismatchError, ParameterError, ValidationError,
                     require_int)

_ORTHO_TOL = 1e-12
#: The most su(2) factors Su2Power takes, checked before anything is
#: allocated. A scan keeps its draw (3 bytes a plane per factor) and one
#: block's workspace (about 0.9 MB, see deform._BLOCK_FLOATS), and
#: oracle_agreement, sectional_batch and curvature_of_pair one block of
#: pairs each (measured with tracemalloc; the figures are in CHANGES.md):
#: at the cap a scan of deform.MAX_PLANES planes peaks at about 50 MB and
#: oracle_agreement at about 11 MB, whatever its count. 10^8 factors used
#: to fail allocating tens of TiB, or with a misleading message. The
#: curvature operator grows faster than the algebra: on the su(2)^16
#: diagonal it keeps 768 of 1128 frame pairs, a 4.7 MB matrix, and a scan
#: takes about a minute at the cap.
MAX_FACTORS = 16
#: Component l + 1 (row 0) and l + 2 (row 1), mod 3, for each component l.
_ROT = np.array([[1, 2, 0], [2, 0, 1]])
_NEXT, _AFTER = _ROT


def _carve(buf, shape):
    """A C-ordered float array of the given shape: a view of the start of
    buf, a flat float buffer at least that long, or a new array when buf
    is None. A scan's draw and its kernel's workspace are such slices of
    one allocation."""
    if buf is None:
        return np.empty(shape)
    return buf[:math.prod(shape)].reshape(shape)


def _binade(x):
    """Elements x (..., n, 3), each scaled by the power of two that brings
    its largest entry into [1/2, 1), so that its norm and its products
    with other such elements neither overflow nor underflow. The scaling
    is exact unless it makes an entry subnormal; zero and non-finite
    elements are left as they are."""
    peak = np.max(np.abs(x), axis=(-2, -1), keepdims=True)
    return np.ldexp(x, -np.frexp(peak)[1])


class Su2Power:
    """The Lie algebra su(2)^n with its reference bi-invariant product.

    Per factor the bracket is [u, v] = 2 u x v in (i, j, k) coordinates,
    which is exactly the quaternion commutator uv - vu of pure imaginary
    quaternions. The product Q is the one making (i, j, k) orthonormal
    factorwise; it is Ad-invariant, which the tests check directly.
    """

    def __init__(self, factors):
        if not isinstance(factors, int) or isinstance(factors, bool) \
                or factors < 1:
            raise ParameterError("factors must be a positive integer")
        if factors > MAX_FACTORS:
            raise ParameterError("factors must be at most {}, got {}".format(
                MAX_FACTORS, factors))
        self.factors = factors
        self.dim = 3 * factors

    def __repr__(self):
        return "Su2Power({})".format(self.factors)

    def check_element(self, u):
        u = np.asarray(u, dtype=float)
        if u.ndim < 2 or u.shape[-2:] != (self.factors, 3):
            raise DimensionMismatchError(
                "expected trailing shape ({}, 3), got {}".format(
                    self.factors, u.shape))
        return u

    def zero(self):
        return np.zeros((self.factors, 3))

    def element(self, *rows):
        """Build an element from one 3-sequence per factor."""
        if len(rows) != self.factors:
            raise DimensionMismatchError(
                "need {} factor rows, got {}".format(self.factors, len(rows)))
        return np.array([[float(c) for c in row] for row in rows])

    def bracket(self, u, v):
        """[u, v], factorwise [u, v]_l = 2 (u_(l+1) v_(l+2) - u_(l+2) v_(l+1))
        over components l mod 3: 2 * np.cross, written as one product of
        two gathers, whose rows are the two terms."""
        u = self.check_element(u)
        v = self.check_element(v)
        terms = u[..., _ROT] * v[..., _ROT[::-1]]
        return 2 * (terms[..., 0, :] - terms[..., 1, :])

    def inner(self, u, v):
        u = self.check_element(u)
        v = self.check_element(v)
        return np.sum(u * v, axis=(-2, -1))

    def norm(self, u):
        return np.sqrt(self.inner(u, u))

    def random(self, rng, size=None, out=None):
        """Standard normal sample(s); size prepends sample axes. The sample
        fills the start of the flat float buffer out when it is given, with
        the numbers a fresh array would get."""
        if size is None:
            shape = (self.factors, 3)
        elif isinstance(size, int):
            shape = (size, self.factors, 3)
        else:
            shape = tuple(size) + (self.factors, 3)
        return rng.standard_normal(out=_carve(out, shape))


class ReductiveSplit:
    """Q-orthogonal decomposition g = m + k, with k a subalgebra.

    The subalgebra is given by a Q-orthonormal basis, shape (r, n, 3).
    Construction fails if the basis is not finite, not orthonormal or not
    closed under the bracket. The named constructors build the standard
    cases, whose bases are orthonormal and closed by construction, with
    the same arithmetic and without those checks.
    """

    def __init__(self, algebra, k_basis):
        k_basis = np.asarray(k_basis, dtype=float)
        if k_basis.ndim == 2:
            k_basis = k_basis[None]
        k_basis = algebra.check_element(k_basis)
        if k_basis.ndim != 3:
            raise DimensionMismatchError("k_basis must be (r, factors, 3)")
        if not np.isfinite(k_basis).all():
            raise ValidationError("subalgebra basis must be finite")
        r = k_basis.shape[0]
        if r < 1 or r > algebra.dim:
            raise ValidationError("subalgebra rank out of range")
        flat = k_basis.reshape(r, algebra.dim)
        gram = flat @ flat.T
        if np.max(np.abs(gram - np.eye(r))) > _ORTHO_TOL:
            raise ValidationError("subalgebra basis is not Q-orthonormal")
        self._store(algebra, k_basis)
        if r > 1:
            resid = self._pair_brackets - self.project_k(self._pair_brackets)
            worst = float(np.max(algebra.norm(resid)))
            if worst > 1e-10:
                raise ValidationError(
                    "basis does not span a subalgebra (closure residual "
                    "{:.3g})".format(worst))

    @classmethod
    def _named(cls, algebra, k_basis):
        """The split of k_basis, a float (r, n, 3) basis that is finite,
        Q-orthonormal and closed under the bracket by its construction,
        without the checks __init__ makes of a basis it is given."""
        split = cls.__new__(cls)
        split._store(algebra, k_basis)
        return split

    def _store(self, algebra, k_basis):
        """Keep the algebra, the basis and the projector onto k."""
        self.algebra = algebra
        self.k_basis = k_basis
        self.dim_k = r = len(k_basis)
        flat = k_basis.reshape(r, algebra.dim)
        #: The Q-orthogonal projector K^T K onto k, symmetric (dim, dim), on
        #: flat elements (index 3 t + c for component c of factor t); the
        #: only stored form of k besides k_basis.
        self._projector = flat.T @ flat

    @functools.cached_property
    def _pair_brackets(self):
        """The brackets of every pair of basis vectors, (r, r, n, 3), read
        by __init__'s closure check and by is_abelian; a line has none."""
        k = self.k_basis
        if self.dim_k == 1:
            return k[:0]
        return self.algebra.bracket(k[:, None], k[None])

    @classmethod
    def diagonal(cls, algebra):
        """k = diagonally embedded su(2), basis (i,..,i), (j,..,j), (k,..,k)
        normalized."""
        n = algebra.factors
        rows = np.zeros((3, n, 3))
        for axis in range(3):
            rows[axis, :, axis] = 1.0 / math.sqrt(n)
        return cls._named(algebra, rows)

    @classmethod
    def factor(cls, algebra, index):
        """k = one su(2) factor."""
        require_int(index, "factor index")
        if not 0 <= index < algebra.factors:
            raise ParameterError("factor index out of range")
        rows = np.zeros((3, algebra.factors, 3))
        for axis in range(3):
            rows[axis, index, axis] = 1.0
        return cls._named(algebra, rows)

    @classmethod
    def circle(cls, algebra, direction):
        """k = the line spanned by one element (always abelian). The
        direction is first moved into the binade of its largest entry (see
        _binade), so its norm neither overflows nor underflows; a
        direction whose own norm is finite and nonzero keeps the basis
        that norm gives."""
        direction = algebra.check_element(np.asarray(direction, dtype=float))
        if direction.ndim != 2:
            raise DimensionMismatchError(
                "circle direction must be one element (factors, 3)")
        if not np.isfinite(direction).all():
            raise ValidationError("circle direction must be finite")
        if not direction.any():
            raise ValidationError("circle direction must be nonzero")
        direction = _binade(direction)
        return cls._named(
            algebra, (direction / float(algebra.norm(direction)))[None])

    def project_k(self, u):
        u = self.algebra.check_element(u)
        flat = u.reshape(u.shape[:-2] + (self.algebra.dim,))
        return (flat @ self._projector).reshape(u.shape)

    def project_m(self, u):
        return self.algebra.check_element(u) - self.project_k(u)

    def is_abelian(self):
        """Whether every pair of k basis vectors brackets to exactly zero,
        in exact arithmetic on their float entries: per factor the bracket
        2 x * y vanishes exactly when x_l y_m = x_m y_l for each pair of
        components l, m. Equal products round to equal floats, so a pair
        whose float bracket is nonzero does not commute. A rank-1 k has no
        pair and is abelian, with nothing to compute."""
        if self.dim_k == 1:
            return True
        if self._pair_brackets.any():
            return False
        from fractions import Fraction  # `import milnor.liealg` never loads it

        basis = self.k_basis.tolist()
        return all(Fraction(x[l]) * Fraction(y[m])
                   == Fraction(x[m]) * Fraction(y[l])
                   for s, X in enumerate(basis) for Y in basis[s + 1:]
                   for x, y in zip(X, Y) for l, m in ((0, 1), (1, 2), (2, 0)))

    def contains(self, u, tol=1e-9):
        u = self.algebra.check_element(u)
        resid = self.algebra.norm(self.project_m(u))
        scale = np.maximum(1.0, self.algebra.norm(u))
        return bool(np.all(resid <= tol * scale))

"""Products of su(2) and orthogonal reductive splittings.

Elements of su(2)^n are numpy arrays of shape (n, 3): row t holds the
(i, j, k) components of factor t. The reference bi-invariant product Q makes
(i, j, k) orthonormal in every factor, so the commutator [i, j] = 2k has
Q-norm 2 and every factor at deformation scale 1 is a round 3-sphere of
sectional curvature 1. Batched inputs are allowed everywhere: any leading
axes in front of the trailing (n, 3) are treated as sample dimensions.
"""

import math

import numpy as np

from .errors import DimensionMismatchError, ParameterError, ValidationError

_ORTHO_TOL = 1e-12
_ABELIAN_TOL = 1e-12


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

    def basis(self):
        """Q-orthonormal basis, shape (dim, factors, 3)."""
        return np.eye(self.dim).reshape(self.dim, self.factors, 3)

    def bracket(self, u, v):
        u = self.check_element(u)
        v = self.check_element(v)
        # 2 * np.cross written out: np.cross costs more than the arithmetic.
        u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
        v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
        tmp = u2 * v1
        out = np.empty(tmp.shape + (3,))
        o0, o1, o2 = out[..., 0], out[..., 1], out[..., 2]
        np.multiply(u1, v2, out=o0)
        o0 -= tmp
        np.multiply(u2, v0, out=o1)
        np.multiply(u0, v2, out=tmp)
        o1 -= tmp
        np.multiply(u0, v1, out=o2)
        np.multiply(u1, v0, out=tmp)
        o2 -= tmp
        out *= 2.0
        return out

    def inner(self, u, v):
        u = self.check_element(u)
        v = self.check_element(v)
        return np.sum(u * v, axis=(-2, -1))

    def norm_sq(self, u):
        return self.inner(u, u)

    def norm(self, u):
        return np.sqrt(self.norm_sq(u))

    def random(self, rng, size=None):
        """Standard normal sample(s); size prepends sample axes."""
        if size is None:
            shape = (self.factors, 3)
        elif isinstance(size, int):
            shape = (size, self.factors, 3)
        else:
            shape = tuple(size) + (self.factors, 3)
        return rng.standard_normal(shape)

    def flatten(self, u):
        u = self.check_element(u)
        return u.reshape(u.shape[:-2] + (self.dim,))

    def unflatten(self, x):
        x = np.asarray(x, dtype=float)
        return x.reshape(x.shape[:-1] + (self.factors, 3))


class ReductiveSplit:
    """Q-orthogonal decomposition g = m + k, with k a subalgebra.

    The subalgebra is given by a Q-orthonormal basis, shape (r, n, 3).
    Construction fails if the basis is not orthonormal or not closed under
    the bracket; use the named constructors for the standard cases.
    """

    def __init__(self, algebra, k_basis):
        self.algebra = algebra
        k_basis = np.asarray(k_basis, dtype=float)
        if k_basis.ndim == 2:
            k_basis = k_basis[None]
        k_basis = algebra.check_element(k_basis)
        if k_basis.ndim != 3:
            raise DimensionMismatchError("k_basis must be (r, factors, 3)")
        r = k_basis.shape[0]
        if r < 1 or r > algebra.dim:
            raise ValidationError("subalgebra rank out of range")
        flat = k_basis.reshape(r, algebra.dim)
        gram = flat @ flat.T
        if np.max(np.abs(gram - np.eye(r))) > _ORTHO_TOL:
            raise ValidationError("subalgebra basis is not Q-orthonormal")
        self.k_basis = k_basis
        self._flat = flat
        self._flat_t = np.ascontiguousarray(flat.T)
        self.dim_k = r
        self.dim_m = algebra.dim - r
        # brackets of the basis pairs s < t, read by the closure check here
        # and by is_abelian
        s, t = np.triu_indices(r, 1)
        self._pair_brackets = algebra.bracket(k_basis[s], k_basis[t])
        resid = self._pair_brackets - self.project_k(self._pair_brackets)
        worst = float(np.max(algebra.norm(resid), initial=0.0))
        if worst > 1e-10:
            raise ValidationError(
                "basis does not span a subalgebra (closure residual {:.3g})".format(worst))

    @classmethod
    def diagonal(cls, algebra):
        """k = diagonally embedded su(2), basis (i,..,i), (j,..,j), (k,..,k)
        normalized."""
        n = algebra.factors
        rows = np.zeros((3, n, 3))
        for axis in range(3):
            rows[axis, :, axis] = 1.0 / math.sqrt(n)
        return cls(algebra, rows)

    @classmethod
    def factor(cls, algebra, index):
        """k = one su(2) factor."""
        if not 0 <= index < algebra.factors:
            raise ParameterError("factor index out of range")
        rows = np.zeros((3, algebra.factors, 3))
        for axis in range(3):
            rows[axis, index, axis] = 1.0
        return cls(algebra, rows)

    @classmethod
    def circle(cls, algebra, direction):
        """k = the line spanned by one element (always abelian)."""
        direction = algebra.check_element(np.asarray(direction, dtype=float))
        nrm = float(algebra.norm(direction))
        if nrm == 0.0:
            raise ValidationError("circle direction must be nonzero")
        return cls(algebra, (direction / nrm)[None])

    def project_k(self, u):
        u = self.algebra.check_element(u)
        flat = u.reshape(u.shape[:-2] + (self.algebra.dim,))
        return np.dot(np.dot(flat, self._flat_t), self._flat).reshape(u.shape)

    def project_m(self, u):
        return self.algebra.check_element(u) - self.project_k(u)

    def split(self, u):
        """u -> (m-part, k-part); the two recompose to u exactly."""
        uk = self.project_k(u)
        return u - uk, uk

    def is_abelian(self):
        return bool(np.all(self.algebra.norm(self._pair_brackets) <= _ABELIAN_TOL))

    def contains(self, u, tol=1e-9):
        u = self.algebra.check_element(u)
        resid = self.algebra.norm(self.project_m(u))
        scale = np.maximum(1.0, self.algebra.norm(u))
        return bool(np.all(resid <= tol * scale))

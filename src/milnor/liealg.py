"""Quaternions, products of su(2), and orthogonal reductive splittings.

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
_UNIT_TOL = 1e-9

_AXES = {"i": np.array([1.0, 0.0, 0.0]),
         "j": np.array([0.0, 1.0, 0.0]),
         "k": np.array([0.0, 0.0, 1.0])}


class Quaternion:
    """A real quaternion w + x i + y j + z k with Hamilton's product."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    def __repr__(self):
        return "Quaternion({:.12g}, {:.12g}, {:.12g}, {:.12g})".format(
            self.w, self.x, self.y, self.z)

    def __add__(self, other):
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quaternion(a * e - b * f - c * g - d * h,
                          a * f + b * e + c * h - d * g,
                          a * g - b * h + c * e + d * f,
                          a * h + b * g - c * f + d * e)

    def __rmul__(self, scalar):
        return self * scalar

    def conjugate(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self):
        return math.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)

    def normalized(self):
        n = self.norm()
        if n == 0.0:
            raise ParameterError("cannot normalize the zero quaternion")
        return self * (1.0 / n)

    def inverse(self):
        n2 = self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2
        if n2 == 0.0:
            raise ParameterError("zero quaternion has no inverse")
        return self.conjugate() * (1.0 / n2)

    def vector(self):
        """Imaginary part as a 3-vector (i, j, k components)."""
        return np.array([self.x, self.y, self.z])

    def is_unit(self, tol=_UNIT_TOL):
        return abs(self.norm() - 1.0) <= tol

    def allclose(self, other, tol=1e-12):
        return (abs(self.w - other.w) <= tol and abs(self.x - other.x) <= tol
                and abs(self.y - other.y) <= tol
                and abs(self.z - other.z) <= tol)

    @staticmethod
    def from_vector(v, w=0.0):
        v = np.asarray(v, dtype=float)
        return Quaternion(w, v[0], v[1], v[2])

    @staticmethod
    def exp_axis(axis, angle):
        """cos(angle) + sin(angle) * axis, for axis one of 'i', 'j', 'k'
        or a unit 3-vector. Parametrizes the one-parameter subgroups."""
        if isinstance(axis, str):
            u = _AXES[axis]
        else:
            u = np.asarray(axis, dtype=float)
            nu = float(np.linalg.norm(u))
            if abs(nu - 1.0) > _UNIT_TOL:
                raise ValidationError("axis must be a unit vector")
        s = math.sin(angle)
        return Quaternion(math.cos(angle), s * u[0], s * u[1], s * u[2])


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def double_cover(q, tol=_UNIT_TOL):
    """Rotation matrix of v -> q v q^-1 on the imaginary quaternions.

    The map is the standard two-to-one cover of the rotation group by unit
    quaternions: q and -q give the same matrix, and only they do.
    """
    if not isinstance(q, Quaternion):
        raise ValidationError("double_cover expects a Quaternion")
    if not q.is_unit(tol):
        raise ValidationError(
            "double_cover needs a unit quaternion, got norm {:.6g}".format(q.norm()))
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


class Su2Power:
    """The Lie algebra su(2)^n with its reference bi-invariant product.

    Per factor the bracket is [u, v] = 2 u x v in (i, j, k) coordinates,
    which is exactly the quaternion commutator uv - vu of pure imaginary
    quaternions. The product Q is the one making (i, j, k) orthonormal
    factorwise; it is Ad-invariant, which the tests check directly.
    """

    def __init__(self, factors):
        if not isinstance(factors, int) or factors < 1:
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
        self._check_closure()

    def _check_closure(self):
        worst = 0.0
        for s in range(self.dim_k):
            for t in range(s + 1, self.dim_k):
                br = self.algebra.bracket(self.k_basis[s], self.k_basis[t])
                resid = br - self.project_k(br)
                worst = max(worst, float(self.algebra.norm(resid)))
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

    def is_abelian(self, tol=1e-12):
        for s in range(self.dim_k):
            for t in range(s + 1, self.dim_k):
                br = self.algebra.bracket(self.k_basis[s], self.k_basis[t])
                if float(self.algebra.norm(br)) > tol:
                    return False
        return True

    def contains(self, u, tol=1e-9):
        u = self.algebra.check_element(u)
        resid = self.algebra.norm(self.project_m(u))
        scale = np.maximum(1.0, self.algebra.norm(u))
        return bool(np.all(resid <= tol * scale))

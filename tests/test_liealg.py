"""su(2)^n as arrays: bracket, bi-invariant product, reductive splits."""

import numpy as np
import pytest

from milnor.errors import DimensionMismatchError, ParameterError, ValidationError
from milnor.liealg import MAX_FACTORS, ReductiveSplit, Su2Power

RNG = np.random.default_rng(414243)


def hamilton_product(p, q):
    """Hamilton's product of quaternions given as (w, x, y, z)."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


def quaternion_commutator(u_row, v_row):
    """Commutator of two imaginary quaternions, as a 3-vector."""
    qu = (0.0, *u_row)
    qv = (0.0, *v_row)
    uv = hamilton_product(qu, qv)
    vu = hamilton_product(qv, qu)
    return np.array(uv[1:]) - np.array(vu[1:])


def test_bracket_matches_quaternion_commutator():
    alg = Su2Power(3)
    for _ in range(200):
        u = alg.random(RNG)
        v = alg.random(RNG)
        w = alg.bracket(u, v)
        for row in range(3):
            want = quaternion_commutator(u[row], v[row])
            assert np.allclose(w[row], want, atol=1e-9)


def test_bracket_basis_relations():
    alg = Su2Power(1)
    i = alg.element([1.0, 0.0, 0.0])
    j = alg.element([0.0, 1.0, 0.0])
    k = alg.element([0.0, 0.0, 1.0])
    assert np.allclose(alg.bracket(i, j), 2.0 * k)
    assert np.allclose(alg.bracket(j, k), 2.0 * i)
    assert np.allclose(alg.bracket(k, i), 2.0 * j)


def test_jacobi_identity():
    alg = Su2Power(2)
    for _ in range(2000):
        u, v, w = alg.random(RNG), alg.random(RNG), alg.random(RNG)
        total = (alg.bracket(u, alg.bracket(v, w))
                 + alg.bracket(v, alg.bracket(w, u))
                 + alg.bracket(w, alg.bracket(u, v)))
        assert float(alg.norm(total)) < 1e-9


def test_inner_product_is_ad_invariant():
    alg = Su2Power(2)
    for _ in range(500):
        u, v, w = alg.random(RNG), alg.random(RNG), alg.random(RNG)
        lhs = alg.inner(alg.bracket(w, u), v) + alg.inner(u, alg.bracket(w, v))
        assert abs(float(lhs)) < 1e-9


def test_basis_is_orthonormal():
    alg = Su2Power(3)
    basis = np.eye(alg.dim).reshape(alg.dim, alg.factors, 3)
    gram = np.array([[float(alg.inner(a, b)) for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(alg.dim), atol=1e-12)


@pytest.mark.parametrize("factors", [True, False, 0, -2, 2.0, "2"])
def test_factor_count_must_be_a_positive_integer(factors):
    with pytest.raises(ParameterError, match="factors must be a positive integer"):
        Su2Power(factors)


@pytest.mark.parametrize("factors", [MAX_FACTORS + 1, 10 ** 8, 10 ** 400])
def test_factor_count_is_capped_before_anything_is_allocated(factors):
    assert Su2Power(MAX_FACTORS).dim == 3 * MAX_FACTORS
    message = "^factors must be at most {}, got {}$".format(MAX_FACTORS, factors)
    with pytest.raises(ParameterError, match=message):
        Su2Power(factors)


def test_element_shape_checks():
    alg = Su2Power(2)
    with pytest.raises(DimensionMismatchError):
        alg.check_element(np.zeros((3, 3)))
    with pytest.raises(DimensionMismatchError):
        alg.check_element(np.zeros((2, 2)))
    batch = np.zeros((7, 2, 3))
    assert alg.check_element(batch).shape == (7, 2, 3)


@pytest.mark.parametrize("factory, rank, abelian", [
    (lambda alg: ReductiveSplit.diagonal(alg), 3, False),
    (lambda alg: ReductiveSplit.factor(alg, 0), 3, False),
    (lambda alg: ReductiveSplit.circle(alg, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 1, True),
    (lambda alg: ReductiveSplit(alg, [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                                      [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]]), 2, True),
])
def test_split_projections(factory, rank, abelian):
    alg = Su2Power(2)
    split = factory(alg)
    assert split.dim_k == rank
    assert split.is_abelian() == abelian
    for _ in range(100):
        u = alg.random(RNG)
        ku = split.project_k(u)
        mu = split.project_m(u)
        assert np.allclose(ku + mu, u, atol=1e-12)
        assert abs(float(alg.inner(ku, mu))) < 1e-10
        assert np.allclose(split.project_k(ku), ku, atol=1e-12)
        assert np.allclose(split.project_k(mu), 0.0, atol=1e-10)


@pytest.mark.parametrize("factors, basis", [
    (1, [[[1, 0, 0]], [[0, 1, 0]]]),
    (2, np.array([[[1, 0, 0], [1, 0, 0]], [[0, 1, 0], [0, -1, 0]]]) / np.sqrt(2.0)),
])
def test_split_requires_bracket_closed_subalgebra(factors, basis):
    """Every basis of rank 2 and up is checked for closure: i, j in su(2)
    and the orthonormal (i, i), (j, -j) in su(2)^2 bracket out of their
    span."""
    with pytest.raises(ValidationError, match="^basis does not span a subalgebra"):
        ReductiveSplit(Su2Power(factors), basis)


@pytest.mark.parametrize("factors", [1, 2, 3])
def test_circles_are_abelian_and_build_no_brackets(factors):
    """A circle along any nonzero direction, here random integer ones,
    is abelian; as a line it has no pair of basis vectors to bracket. A
    zero direction, -0.0 included, is refused."""
    alg = Su2Power(factors)
    rng = np.random.default_rng(factors)
    for _ in range(20):
        direction = rng.integers(-9, 10, size=(factors, 3))
        direction[0, 0] = 1 + abs(direction[0, 0])
        split = ReductiveSplit.circle(alg, direction)
        assert split.dim_k == 1 and split.is_abelian()
        assert split._pair_brackets.size == 0
    for zero in (alg.zero(), -alg.zero()):
        with pytest.raises(ValidationError, match="^circle direction must be nonzero"):
            ReductiveSplit.circle(alg, zero)


def every_named_split(factors):
    """The diagonal, every factor and circles of su(2)^factors: along the
    three axes, along seeded random directions, and along directions at
    the ends of the float range, huge, tiny and subnormal."""
    alg = Su2Power(factors)
    yield ReductiveSplit.diagonal(alg)
    for index in range(factors):
        yield ReductiveSplit.factor(alg, index)
    rng = np.random.default_rng(factors)
    directions = list(np.eye(alg.dim).reshape(alg.dim, factors, 3)[:3])
    directions += list(alg.random(rng, 4))
    d = alg.random(rng)
    directions += [np.ldexp(d, 1020), np.ldexp(d, -1020), np.ldexp(d, -1070)]
    for direction in directions:
        yield ReductiveSplit.circle(alg, direction)


@pytest.mark.parametrize("factors", range(1, 17))
def test_named_splits_are_what_the_checked_constructor_builds(factors):
    """The named constructors skip the orthonormality and closure checks
    their bases meet by construction. The checked constructor accepts
    every named split's basis and builds the same split: byte-identical
    basis and projectors, and the same is_abelian."""
    alg = Su2Power(factors)
    for split in every_named_split(factors):
        checked = ReductiveSplit(alg, split.k_basis)
        assert checked.dim_k == split.dim_k
        for name in ("k_basis", "_projector"):
            got, want = getattr(split, name), getattr(checked, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert split.is_abelian() == checked.is_abelian() == (split.dim_k == 1)


def test_circles_refuse_a_batch_of_directions():
    alg = Su2Power(2)
    for shape in ((1, 2, 3), (2, 2, 3)):
        with pytest.raises(DimensionMismatchError,
                           match="^circle direction must be one element"):
            ReductiveSplit.circle(alg, np.ones(shape))


def test_split_requires_orthonormal_basis():
    alg = Su2Power(1)
    rows = np.zeros((1, 1, 3))
    rows[0, 0, 0] = 2.0
    with pytest.raises(ValidationError):
        ReductiveSplit(alg, rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_split_refuses_a_nonfinite_basis(bad):
    """A NaN basis used to pass the orthonormality and closure checks,
    whose comparisons are False for NaN, and come out abelian; a NaN or
    infinite circle direction gave an all-NaN basis. Both are refused
    before any arithmetic, so no RuntimeWarning fires."""
    alg = Su2Power(2)
    with pytest.raises(ValidationError, match="^subalgebra basis must be finite"):
        ReductiveSplit(alg, [[[bad, 0, 0], [0, 0, 0]]])
    with pytest.raises(ValidationError, match="^circle direction must be finite"):
        ReductiveSplit.circle(alg, [[1, 0, 0], [0, bad, 0]])


def test_circle_basis_does_not_depend_on_the_direction_scale():
    """The direction is scaled by a power of two before its norm is taken,
    so huge and tiny directions neither overflow nor underflow to zero, and
    a power-of-two multiple of a direction, even a subnormal one, gives
    exactly its basis. The suite turns a RuntimeWarning into a failure."""
    alg = Su2Power(3)
    d = alg.element((-3, 0, 0), (5, 0, 0), (1, 0, 0))
    basis = ReductiveSplit.circle(alg, d).k_basis
    for exp in (700, -700, -1060):
        assert np.array_equal(
            ReductiveSplit.circle(alg, np.ldexp(d, exp)).k_basis, basis)
    for scale in (1e200, 1e-170, 1e-200):
        got = ReductiveSplit.circle(alg, scale * d).k_basis
        assert np.allclose(got, basis, rtol=1e-15, atol=0)


def test_diagonal_split_brackets_stay_inside():
    alg = Su2Power(3)
    split = ReductiveSplit.diagonal(alg)
    for _ in range(50):
        x = split.project_k(alg.random(RNG))
        y = split.project_k(alg.random(RNG))
        assert split.contains(alg.bracket(x, y))


def test_factor_index_bounds():
    alg = Su2Power(2)
    with pytest.raises(ParameterError):
        ReductiveSplit.factor(alg, 2)
    # numpy reads True as a mask and 1.0 as no index: a bare IndexError
    for index in (True, 1.0, "1", None):
        with pytest.raises(ParameterError, match="^factor index must be an integer"):
            ReductiveSplit.factor(alg, index)
    with pytest.raises(ValidationError):
        ReductiveSplit.circle(alg, alg.zero())


@pytest.mark.parametrize("u_shape, v_shape", [
    ((), ()),                # one element each
    ((40,), (40,)),          # a batch
    ((), (40,)),             # one element against a batch
    ((6, 1), (1, 5)),        # two sample axes that broadcast
])
@pytest.mark.parametrize("factors", [1, 2, 3])
def test_bracket_is_twice_np_cross_bitwise(factors, u_shape, v_shape):
    alg = Su2Power(factors)
    u = alg.random(RNG, u_shape)
    v = alg.random(RNG, v_shape)
    got = alg.bracket(u, v)
    want = 2.0 * np.cross(u, v)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("factory", [
    lambda alg: ReductiveSplit.diagonal(alg),
    lambda alg: ReductiveSplit.factor(alg, 1),
    lambda alg: ReductiveSplit.circle(alg, [[0.6, 0.0, 0.8], [0.0, 1.0, 0.0], [0.3, 0.0, 0.0]]),
    lambda alg: ReductiveSplit.circle(alg, LABEL_CIRCLE),
])
def test_project_k_matches_the_tensordot_form(factory):
    alg = Su2Power(3)
    split = factory(alg)
    u = alg.random(RNG, (30, 4))
    coeff = np.tensordot(u, split.k_basis, axes=[(-2, -1), (-2, -1)])
    want = np.tensordot(coeff, split.k_basis, axes=[(-1,), (0,)])
    scale = alg.norm(u)[..., None, None]
    assert np.max(np.abs(split.project_k(u) - want) / scale) <= 1e-15
    single = split.project_k(u[3, 2])
    assert np.max(np.abs(single - want[3, 2])) <= 1e-15 * float(alg.norm(u[3, 2]))


#: The circle along (-3i, 5i, i) in su(2)^3, a label circle whose float
#: basis is that vector over sqrt 35.
LABEL_CIRCLE = [[-3, 0, 0], [5, 0, 0], [1, 0, 0]]


def named_split(alg, name):
    """The split the CLI names diagonal, factorN or span-i/j/k, or the
    label circle."""
    if name == "diagonal":
        return ReductiveSplit.diagonal(alg)
    if name.startswith("factor"):
        return ReductiveSplit.factor(alg, int(name[6:]))
    if name == "label":
        return ReductiveSplit.circle(alg, LABEL_CIRCLE)
    direction = alg.zero()
    direction[0, "ijk".index(name[-1])] = 1.0
    return ReductiveSplit.circle(alg, direction)


@pytest.mark.parametrize("factors, name", [
    (n, name) for n in range(1, 5)
    for name in ["diagonal", "span-i", "span-j", "span-k"]
    + ["factor{}".format(t) for t in range(n)]] + [(3, "label")])
def test_the_projector_is_the_k_part(factors, name):
    """The one stored form of k is its Q-orthogonal projector: symmetric,
    idempotent, of trace dim k; project_k's image of an element lies in k
    and leaves a remainder Q-orthogonal to every basis vector of k."""
    alg = Su2Power(factors)
    split = named_split(alg, name)
    P = split._projector
    assert P.shape == (alg.dim, alg.dim)
    assert np.max(np.abs(P - P.T)) <= 1e-15
    assert np.max(np.abs(P @ P - P)) <= 1e-15
    assert abs(np.trace(P) - split.dim_k) <= 1e-15 * split.dim_k
    u = alg.random(RNG, 50)
    k = split.project_k(u)
    scale = alg.norm(u)
    assert np.all(alg.norm(k - split.project_k(k)) <= 1e-15 * scale)
    rest = np.tensordot(u - k, split.k_basis, axes=[(-2, -1), (-2, -1)])
    assert np.all(np.abs(rest) <= 1e-15 * scale[:, None])

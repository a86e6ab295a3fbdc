"""Boundary-sphere diffeomorphism arithmetic, link classification in odd
dimensions, and the dimension-5 involution quotients."""

import pytest

from milnor.classify import (
    SPHERE7_GROUP_ORDER,
    brieskorn_classify,
    diffeo_equiv,
    eells_kuiper,
    euler_number,
    is_homotopy_sphere,
    orientation_fold,
    realized_classes,
    realized_folded_classes,
    rp5_type,
)
from milnor.errors import OutOfRegimeError, ParameterError

REALIZED = {0, 1, 3, 6, 7, 8, 10, 13, 14, 15, 17, 20, 21, 22, 24, 27}
FOLDED = {0, 1, 3, 4, 6, 7, 8, 10, 11, 13, 14}


def test_euler_number_and_sphere_detection():
    assert euler_number(3, -2) == 1
    assert is_homotopy_sphere(3, -2)
    assert is_homotopy_sphere(2, -3)
    assert not is_homotopy_sphere(2, 3)
    assert not is_homotopy_sphere(0, 0)


def test_eells_kuiper_small_values():
    assert eells_kuiper(0) == 0
    assert eells_kuiper(1) == 0
    assert eells_kuiper(2) == 1
    assert eells_kuiper(3) == 3
    assert eells_kuiper(-1) == 1
    assert eells_kuiper(7) == 21


def test_eells_kuiper_period_and_symmetry():
    for k in range(-60, 61):
        assert eells_kuiper(k) == eells_kuiper(k + 56)
        assert eells_kuiper(k) == eells_kuiper(1 - k)


def test_realized_class_sets():
    assert realized_classes() == frozenset(REALIZED)
    assert len(realized_classes()) == 16
    assert realized_folded_classes() == frozenset(FOLDED)
    assert len(realized_folded_classes()) == 11


def test_orientation_fold():
    assert orientation_fold(5) == 5
    assert orientation_fold(27) == 1
    assert orientation_fold(0) == 0
    assert orientation_fold(14) == 14
    folded = {orientation_fold(v) for v in REALIZED}
    assert folded == FOLDED


def test_generator_label_generates_the_cyclic_group():
    base = eells_kuiper(2)
    assert {(t * base) % SPHERE7_GROUP_ORDER
            for t in range(SPHERE7_GROUP_ORDER)} == set(range(28))


def test_diffeo_equiv_matches_invariant_equality():
    for k in range(-40, 41):
        for m in range(-40, 41):
            assert diffeo_equiv(k, m) == (eells_kuiper(k) == eells_kuiper(m))


def test_diffeo_equiv_is_an_equivalence_with_period_56():
    for k in range(-30, 31):
        assert diffeo_equiv(k, k)
        assert diffeo_equiv(k, k + 56)
        assert diffeo_equiv(k, 1 - k)
        assert diffeo_equiv(k, 57 - k)
    assert diffeo_equiv(2, 58)
    assert not diffeo_equiv(2, 3)


@pytest.mark.parametrize("n, d, verdict, exotic", [
    (5, 3, "kervaire_sphere", True),
    (5, 1, "standard_sphere", False),
    (5, 7, "standard_sphere", False),
    (5, 9, "standard_sphere", False),
    (5, 5, "kervaire_sphere", True),
    (3, 3, "kervaire_sphere", False),
    (7, 3, "kervaire_sphere", False),
    (9, 3, "kervaire_sphere", True),
])
def test_brieskorn_classification(n, d, verdict, exotic):
    res = brieskorn_classify(n, d)
    assert res.verdict == verdict
    assert res.exotic == exotic
    assert res.dimension == 2 * n - 1


def test_brieskorn_regime_checks():
    with pytest.raises(OutOfRegimeError):
        brieskorn_classify(4, 3)
    with pytest.raises(OutOfRegimeError):
        brieskorn_classify(5, 2)
    with pytest.raises(ParameterError):
        brieskorn_classify(1, 3)
    with pytest.raises(ParameterError):
        brieskorn_classify(5, 0)


def test_rp5_types():
    res1 = rp5_type(1)
    assert res1.diffeo_residue == 1
    assert not res1.exotic_candidate
    seen = {rp5_type(d).diffeo_residue for d in range(1, 40, 2)}
    assert seen == {1, 3, 5, 7}
    homeo = {rp5_type(d).homeo_residue for d in range(1, 40, 2)}
    assert homeo == {1, 3}
    assert rp5_type(3).homeo_residue == rp5_type(5).homeo_residue
    assert rp5_type(3).diffeo_residue != rp5_type(5).diffeo_residue
    assert "orientation" in rp5_type(3).caveat


def test_rp5_regime_checks():
    with pytest.raises(OutOfRegimeError):
        rp5_type(2)
    with pytest.raises(ParameterError):
        rp5_type(-1)

"""Contract acceptance suite.

Thirteen numbered criteria covering the label arithmetic, the curvature
certificates, the gluing identity, and the reproduction targets;
criterion 08 has three tests: in floats, exactly in Fractions, and the
float closed form against the exact oracle at large scales. Each
test states its own runtime budget; conftest prints a one-line verdict
per test at the end of the run.
"""

import time
from fractions import Fraction

import numpy as np

from milnor import bundles, classify, cli, deform, glue, isotropy
from milnor.liealg import ReductiveSplit, Su2Power

K105_PAIRS = [
    (29, 1), (-31, -11), (37, -23), (41, 29),
    (-47, 37), (73, -67), (-107, -103), (-211, 209),
]

EK_REALIZED = {0, 1, 3, 6, 7, 8, 10, 13, 14, 15, 17, 20, 21, 22, 24, 27}
EK_FOLDED = {0, 1, 3, 4, 6, 7, 8, 10, 11, 13, 14}
S7_RESIDUES = {0, 1, 3, 4, 6, 7, 9, 10}


def span_i_split(n_factors=1):
    algebra = Su2Power(n_factors)
    direction = algebra.zero()
    direction[0, 0] = 1.0
    return ReductiveSplit.circle(algebra, direction)


def test_criterion_01_k105_enumeration(capsys):
    start = time.perf_counter()
    code = cli.main(["solve", "105"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    printed = [ln.strip() for ln in out.splitlines() if ln.startswith("  (")]
    got = [tuple(int(x) for x in ln.strip("()").split(",")) for ln in printed]
    assert code == 0
    assert got == K105_PAIRS
    assert bundles.solve_euler(105) == K105_PAIRS
    assert elapsed < 1.0


def test_criterion_02_power_of_two_uniqueness():
    start = time.perf_counter()
    for k in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        sols = bundles.solve_euler(k)
        assert len(sols) == 1
        pair = sols[0]
        assert {abs(pair[0]), abs(pair[1])} == {2 * k + 1, 2 * k - 1}
        if k % 2 == 0:
            assert pair == (2 * k + 1, -2 * k + 1)
        else:
            # k = 1: the labels of (3, -1) sit in the wrong residue class,
            # so the unique valid pair is the sign-normalized (-3, 1)
            assert pair == (-3, 1)
    assert time.perf_counter() - start < 1.0


def brute_force_pairs(k, window):
    """Direct scan oracle. Window |p_-| <= 2|k|+1 suffices for k != 0:
    solutions come in the form p_- = n + 2k/n over odd divisors n, and
    |n + 2k/n| is maximized at n = +-1."""
    from math import isqrt
    found = []
    for p_minus in range(-window, window + 1):
        if p_minus % 4 != 1:
            continue
        square = p_minus * p_minus - 8 * k
        if square < 0:
            continue
        root = isqrt(square)
        if root * root != square:
            continue
        for p_plus in {root, -root}:
            if p_plus % 4 == 1:
                found.append((p_minus, p_plus))
    return sorted(found, key=lambda pq: (abs(pq[0]), abs(pq[1]), pq[0], pq[1]))


def test_criterion_03_enumeration_matches_brute_force():
    start = time.perf_counter()
    for k in range(-500, 501):
        if k == 0:
            assert bundles.solve_euler(0, bound=101) == \
                brute_force_pairs(0, 101)
        else:
            window = 2 * abs(k) + 1
            assert bundles.solve_euler(k) == brute_force_pairs(k, window)
    assert time.perf_counter() - start < 30.0


def test_criterion_04_boundary_class_sets():
    start = time.perf_counter()
    assert set(classify.realized_classes()) == EK_REALIZED
    assert len(EK_REALIZED) == 16
    assert set(classify.realized_folded_classes()) == EK_FOLDED
    assert time.perf_counter() - start < 5.0


def test_criterion_05_diffeo_double_characterization():
    start = time.perf_counter()
    for k in range(56):
        for m in range(56):
            diff = k * (k - 1) - m * (m - 1)
            mod56 = diff % 56 == 0
            crt = diff % 7 == 0 and diff % 8 == 0
            assert mod56 == crt
            assert classify.diffeo_equiv(k, m) == mod56
    assert time.perf_counter() - start < 5.0


def test_criterion_06_rotation_family_orbit_types():
    start = time.perf_counter()
    for n in range(-20, 21):
        ts = isotropy.orbit_types(-3, 4 * n + 1, 1, 4 * n + 1)
        expected = {"1", "Z2", "D2"}
        for order in (abs(2 * n - 1), abs(2 * n), abs(2 * n + 1),
                      abs(2 * n + 2)):
            expected.update(isotropy.canonical_type_labels(order))
        assert set(ts.sorted_labels()) == expected
        assert isotropy.hopf_family(n).types == ts.types
    assert time.perf_counter() - start < 5.0


def test_criterion_07_almost_free_lift_existence():
    start = time.perf_counter()
    for k in range(-50, 51):
        lifts = isotropy.find_almost_free_lift(k, 1 - k)
        assert lifts, "no almost-free lift at k = {}".format(k)
    for probe in (-50, -1, 0, 1, 2, 49):
        tup = isotropy.find_almost_free_lift(probe, 1 - probe)[0]
        assert isotropy.orbit_types(*tup).almost_free
        assert bundles.classify_pair(*tup) == (probe, 1 - probe)
    for r in range(7):
        assert isotropy.find_almost_free_lift(2 ** r, -(2 ** r)) == []
    assert time.perf_counter() - start < 10.0


def test_criterion_08_closed_form_vs_connection_oracle():
    start = time.perf_counter()
    worst = 0.0
    total = 0
    per_config = 2500
    configs = []
    for n_factors in (2, 3):
        algebra = Su2Power(n_factors)
        configs.append(ReductiveSplit.diagonal(algebra))
        configs.append(ReductiveSplit.factor(algebra, 0))
    for i, split in enumerate(configs):
        for j, a in enumerate((0.5, 1, Fraction(4, 3), 2)):
            metric = deform.DeformedMetric(split, a)
            gap = metric.oracle_agreement(samples=per_config,
                                          seed=1000 + 10 * i + j)
            worst = max(worst, gap)
            total += per_config
    assert total >= 10_000
    assert worst <= 1e-8
    assert time.perf_counter() - start < 60.0


def exact_projectors(n_factors):
    """Q-orthogonal projectors onto the diagonal su(2), the first factor
    and span(i) in the first factor of su(2)^n, as Fraction matrices on
    the flat index 3 t + c (factor t, component c)."""
    dim = 3 * n_factors
    return [np.array([[Fraction(int(rule(s, t)), den) for t in range(dim)]
                      for s in range(dim)])
            for rule, den in ((lambda s, t: s % 3 == t % 3, n_factors),
                              (lambda s, t: s == t < 3, 1),
                              (lambda s, t: s == t == 0, 1))]


def test_criterion_08_oracle_is_exact_at_rational_points():
    """The oracle uses only ring operations and division by 2 and a, so on
    Fraction arrays it equals the closed form of the deform docstring
    exactly, and so does the equivalent four-norm form. For fixed u, v
    and split, a^2 (oracle - closed form) is a polynomial of degree at
    most 6 in a, so agreement at the 8 values of a below proves the
    identity at those pairs for every a."""
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    scales = [Fraction(1, 7), Fraction(1, 2), Fraction(9, 10), Fraction(1),
              Fraction(21, 20), Fraction(4, 3), Fraction(3, 2), Fraction(5)]

    def bracket(x, y):
        return 2 * np.cross(x, y)

    def sq(x):
        return np.sum(x * x)

    checked = 0
    for n_factors in (1, 2, 3):
        algebra = Su2Power(n_factors)
        splits = (ReductiveSplit.diagonal(algebra),
                  ReductiveSplit.factor(algebra, 0), span_i_split(n_factors))
        for split, proj in zip(splits, exact_projectors(n_factors)):
            assert np.allclose(proj.astype(float), split._flat.T @ split._flat,
                               rtol=0, atol=1e-15)

            def k_part(x):
                return (x.reshape(-1) @ proj).reshape(x.shape)

            for _ in range(3):
                grid = rng.integers(-2 ** 20, 2 ** 20, (2, n_factors, 3))
                u, v = np.vectorize(lambda z: Fraction(int(z), 2 ** 20),
                                    otypes=[object])(grid)
                X, Y = k_part(u), k_part(v)
                A, B = u - X, v - Y
                ab_k = k_part(bracket(A, B))
                ab_m = bracket(A, B) - ab_k
                xy = bracket(X, Y)
                for a in scales:
                    W = ab_m + a * (bracket(X, B) + bracket(A, Y))
                    closed = (sq(W) / 4 + (1 - 3 * a / 4) * sq(ab_k)
                              + a * (Fraction(3, 2) - a) * np.sum(ab_k * xy)
                              + a * sq(xy) / 4)
                    four_norms = (sq(W) / 4 + sq(ab_k + a * a * xy) / 4
                                  + a * (1 - a) ** 3 * sq(xy) / 4
                                  + 3 * (1 - a) * sq(ab_k + a * xy) / 4)
                    oracle = deform._koszul_curvature(u, v, proj, a)
                    assert isinstance(oracle, Fraction)
                    assert oracle == closed == four_norms
                    checked += 1
    assert checked == 216
    assert time.perf_counter() - start < 3.0


def test_criterion_08_closed_form_is_exact_at_large_scales():
    """The float closed form stays within 1e-12, relative to the value, of
    the exact oracle on rational pairs up to deform.A_MAX, as none of its
    terms cancel as a grows."""
    start = time.perf_counter()
    rng = np.random.default_rng(809)
    worst = 0.0
    checked = 0
    for n_factors in (1, 2, 3):
        algebra = Su2Power(n_factors)
        splits = (ReductiveSplit.diagonal(algebra),
                  ReductiveSplit.factor(algebra, 0), span_i_split(n_factors))
        for split, proj in zip(splits, exact_projectors(n_factors)):
            grid = rng.integers(-2 ** 20, 2 ** 20, (3, 2, n_factors, 3))
            exact = np.vectorize(lambda z: Fraction(int(z), 2 ** 20),
                                 otypes=[object])(grid)
            U, V = np.moveaxis(grid / 2 ** 20, 1, 0)
            for a in (10 ** 3, 10 ** 5, deform.A_MAX):
                metric = deform.DeformedMetric(split, a)
                values = metric.curvature_of_pair(U, V)
                for (u, v), value in zip(exact, values):
                    oracle = deform._koszul_curvature(u, v, proj, Fraction(a))
                    worst = max(worst, abs(Fraction(value) / oracle - 1))
                    checked += 1
    assert checked == 81
    assert worst <= 1e-12
    assert time.perf_counter() - start < 3.0


def test_criterion_09_nonnegativity_and_negative_witnesses():
    start = time.perf_counter()

    nonneg_cases = [
        deform.DeformedMetric(ReductiveSplit.diagonal(Su2Power(2)), 1),
        deform.DeformedMetric(ReductiveSplit.factor(Su2Power(2), 1), 1),
        deform.DeformedMetric(span_i_split(), 1),
        deform.DeformedMetric(span_i_split(), Fraction(4, 3)),
    ]
    for metric in nonneg_cases:
        scan = deform.scan_min_sectional(metric, n_planes=100_000, seed=7)
        assert scan.n_valid > 90_000
        assert scan.min_value >= -1e-9

    witness_cases = [
        (deform.DeformedMetric(ReductiveSplit.diagonal(Su2Power(2)), 1.05),
         100_000),
        (deform.DeformedMetric(span_i_split(), 1.5), 50_000),
    ]
    for metric, budget in witness_cases:
        res = deform.find_negative_plane(metric, budget=budget, seed=3)
        assert res.found
        assert res.value < -1e-10
        assert res.oracle_value < -1e-10
        assert abs(res.value - res.oracle_value) <= 1e-10

    assert time.perf_counter() - start < 120.0


def test_criterion_10_gluing_identity_is_exact():
    start = time.perf_counter()
    a = Fraction(4, 3)
    profile = glue.ProfileFunction.capped_sine(a, Fraction(1))
    t0 = profile.t_plateau
    factor = glue.orbit_metric_factor(profile, t0)
    assert isinstance(factor, Fraction)
    assert factor == Fraction(1)
    assert glue.orbit_metric_factor(profile, 2.0 * t0) == Fraction(1)

    lam = Fraction(3)
    assert deform.cheeger_quotient_factors(lam) == \
        (Fraction(1), Fraction(3, 4))
    assert deform.compensating_scale(lam) == a
    assert time.perf_counter() - start < 5.0


def test_criterion_11_mayer_vietoris_determinant():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    draws = rng.integers(-250, 251, size=(10_000, 2))
    for row in draws:
        p_minus = 4 * int(row[0]) + 1
        p_plus = 4 * int(row[1]) + 1
        k = bundles.euler_class(p_minus, p_plus)
        report = bundles.mayer_vietoris_matrix(p_minus, p_plus)
        assert report.det == -8 * k
    assert time.perf_counter() - start < 5.0


def test_criterion_12_total_space_residues():
    start = time.perf_counter()
    image = {k * (k + 1) // 2 % 12 for k in range(24)}
    assert image == S7_RESIDUES
    assert set(bundles.TOTAL_SPACE_RESIDUES) == S7_RESIDUES
    assert {bundles.s7_bundle_class(k) for k in range(-120, 121)} == \
        S7_RESIDUES
    assert time.perf_counter() - start < 5.0


def test_criterion_13_reproduction_suite(capsys):
    start = time.perf_counter()
    code = cli.main(["repro", "all"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    for target in ("table42", "k105", "ek16", "thm45", "s7"):
        assert any(line.startswith(target) and "ok" in line
                   for line in out.splitlines())
    assert elapsed < 10.0

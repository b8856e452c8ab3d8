"""Characters, exact root-of-unity sums, the Katz bound, and epsilon*."""

from __future__ import annotations

import cmath
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_cliques import (
    Character,
    NoValidTheta,
    NotADivisor,
    RootOfUnitySum,
    TrivialCharacter,
    ZeroEncountered,
    build_field,
    epsilon_star,
    katz_bound_check,
    line_sum,
    unit_root,
)
from field_oracle import FieldOracle

# ---------------------------------------------------------------------------
# characters

def test_cubic_residue_classes_mod_13(gf13):
    # The classes line_sum reads off the log table, log x mod 3, against
    # the oracle's x^4 = (2^4)^j.
    classes = {x: int(gf13.log[x]) % 3 for x in range(1, 13)}
    oracle = FieldOracle.of(gf13)
    assert classes == {x: oracle.cls(x, 3) for x in range(1, 13)}
    assert classes[5] == 0
    assert {x for x, c in classes.items() if c == 0} == {1, 5, 8, 12}
    assert sorted(classes.values()).count(0) == 4


def test_character_is_multiplicative(gf81):
    # The oracle's class of the schoolbook product xy is the sum of the
    # log classes of x and y.
    oracle = FieldOracle.of(gf81)
    for x in range(1, gf81.q, 5):
        for y in range(1, gf81.q, 7):
            lhs = oracle.classes(8)[oracle.mul(x, y)]
            assert lhs == (int(gf81.log[x]) + int(gf81.log[y])) % 8


def test_character_errors(gf13):
    with pytest.raises(NotADivisor):
        Character(gf13, 5)


def test_nontrivial_character_sums_to_zero(gf81):
    oracle = FieldOracle.of(gf81)
    for d in (2, 4, 5, 8, 16, 80):
        classes = gf81.log[1:] % d
        assert classes.tolist() == oracle.classes(d)[1:].tolist()
        acc = RootOfUnitySum(d, np.bincount(classes, minlength=d).tolist())
        assert acc.counts == [(gf81.q - 1) // d] * d
        assert acc.magnitude() < 1e-9


def test_root_sum_matches_direct_complex_arithmetic():
    acc = RootOfUnitySum(6, [3, 2, 0, 0, 5, 1])
    direct = 3 + 2 * unit_root(6, 1) + 5 * unit_root(6, 4) + unit_root(6, 5)
    assert abs(acc.value() - direct) < 1e-12
    assert abs(acc.magnitude() - abs(direct)) < 1e-12


# ---------------------------------------------------------------------------
# line sums and the Katz bound

def _chi_value(chi, x):
    """chi(x), with the class of x from the table-free oracle."""
    return cmath.rect(1.0, 2.0 * math.pi * FieldOracle.of(chi.table).classes(chi.d)[x] / chi.d)


def test_line_sum_matches_cmath_oracle(gf81):
    chi = Character(gf81, 5)
    base = gf81.subfield_elements(1)
    oracle = FieldOracle.of(gf81)
    for theta in (3, 9, 30, 77):
        got = line_sum(chi, theta, base)
        expected = sum(_chi_value(chi, oracle.add(theta, a)) for a in base)
        assert sum(got.counts) == len(base)
        assert abs(got.value() - expected) < 1e-9


def test_line_sum_rejects_zero_term(gf81):
    chi = Character(gf81, 5)
    base = gf81.subfield_elements(1)
    with pytest.raises(ZeroEncountered):
        line_sum(chi, FieldOracle.of(gf81).neg(1), base)


@pytest.mark.parametrize("p,e", [(3, 4), (7, 3), (3, 6)])
def test_line_sum_counts_match_a_vectorized_oracle_for_every_theta(p, e):
    """Counts from the table-free oracle: digitwise sums over the base, the
    oracle's classes and a bincount, so no table read in common with
    line_sum."""
    table = build_field(p, e)
    oracle = FieldOracle.of(table)
    ds = sympy.divisors(table.qm1)[1:]
    for r in sympy.divisors(e)[:-1]:
        base = table.subfield_elements(r)
        codes = np.array(base)
        for theta in table.full_degree_elements(r).tolist():
            terms = oracle.add_many(codes, theta)
            assert terms.all(), (r, theta)  # theta + a is never 0 off -F
            for d in ds:
                expected = np.bincount(oracle.classes(d)[terms], minlength=d).tolist()
                assert line_sum(Character(table, d), theta, base).counts == expected, (r, d, theta)
        # -F: the negated codes, 0 included, each put a zero term in the sum.
        negated = oracle.sub_many(0, codes)
        for theta in negated.tolist():
            with pytest.raises(ZeroEncountered):
                line_sum(Character(table, ds[0]), theta, base)


def _katz_oracle_max_ratio(table, r, d):
    """Recompute the scan with plain complex arithmetic."""
    chi = Character(table, d)
    n = table.e // r
    base = table.subfield_elements(r)
    bound = (n - 1) * math.sqrt(table.p**r)
    oracle = FieldOracle.of(table)
    worst = 0.0
    for theta in range(table.q):
        if table.degree_over_base(theta, r) != n:
            continue
        total = sum(_chi_value(chi, oracle.add(theta, a)) for a in base)
        worst = max(worst, abs(total) / bound)
    return worst


@pytest.mark.parametrize("r,d", [(1, 2), (1, 5), (1, 8), (2, 16), (2, 80)])
def test_katz_report_matches_oracle(gf81, r, d):
    report = katz_bound_check(gf81, r, d)
    assert report.bound_satisfied
    assert report.max_ratio <= 1 + 1e-9
    assert abs(report.max_ratio - _katz_oracle_max_ratio(gf81, r, d)) < 1e-9
    assert report.n == 4 // r
    assert abs(report.bound - (report.n - 1) * math.sqrt(3**r)) < 1e-12


def _katz_per_theta(table, r, d):
    """(max_ratio, worst_theta, theta_count) of a scan that filters theta by
    degree_over_base and evaluates one magnitude per theta."""
    chi = Character(table, d)
    n = table.e // r
    base = table.subfield_elements(r)
    bound = (n - 1) * math.sqrt(table.p**r)
    max_ratio, worst_theta, count = -1.0, -1, 0
    for theta in range(table.q):
        if table.degree_over_base(theta, r) != n:
            continue
        count += 1
        ratio = line_sum(chi, theta, base).magnitude() / bound
        if ratio > max_ratio:
            max_ratio, worst_theta = ratio, theta
    return max_ratio, worst_theta, count


@pytest.mark.parametrize("p,e", [(3, 4), (5, 4), (7, 3), (3, 6)])
def test_katz_scan_matches_a_per_theta_scan_bit_for_bit(p, e):
    """One magnitude per distinct count vector and the log-residue theta set
    change no bit of the report: n = 2, 3, 4 and 6 (two primes l | n)."""
    table = build_field(p, e)
    for r in sympy.divisors(e)[:-1]:
        for d in sympy.divisors(table.qm1)[1:]:
            report = katz_bound_check(table, r, d)
            expected = _katz_per_theta(table, r, d)
            assert (report.max_ratio, report.worst_theta, report.theta_count) == expected, (r, d)


def test_katz_worst_theta_is_deterministic(gf81):
    a = katz_bound_check(gf81, 1, 8)
    b = katz_bound_check(gf81, 1, 8)
    assert (a.worst_theta, a.max_ratio) == (b.worst_theta, b.max_ratio)
    assert gf81.degree_over_base(a.worst_theta, 1) == 4


def test_katz_errors(gf81):
    with pytest.raises(TrivialCharacter):
        katz_bound_check(gf81, 1, 1)
    with pytest.raises(NotADivisor):
        katz_bound_check(gf81, 3, 2)
    with pytest.raises(NoValidTheta):
        katz_bound_check(gf81, 4, 2)


# ---------------------------------------------------------------------------
# epsilon-lower-bounded sets

def _support_epsilon(d, classes):
    """max(0, max over directions u of min over J of <zeta_d^j, u>): the
    distance from the origin to the hull, through its support function.
    The maximising direction bisects two classes, so the 2d directions
    pi k / d suffice."""
    return max(0.0, max(
        min(math.cos(math.pi * (2 * j - k) / d) for j in classes) for k in range(2 * d)
    ))


def _largest_gap(d, classes):
    ordered = sorted(classes)
    return max(b - a for a, b in zip(ordered, ordered[1:] + [ordered[0] + d]))


def _class_sets_with_zero(d):
    for mask in range(1 << (d - 1)):
        yield [0] + [j for j in range(1, d) if mask >> (j - 1) & 1]


def test_epsilon_single_point_is_one():
    result = epsilon_star(7, {3})
    assert result.epsilon_star == 1.0
    assert result.weights == (1.0,)


def test_epsilon_quarter_circle():
    result = epsilon_star(4, {0, 1})
    assert result.epsilon_star == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_epsilon_antipodal_pair_is_zero():
    result = epsilon_star(2, {0, 1})
    assert result.epsilon_star == 0.0
    assert result.weights is None


def test_epsilon_full_triangle_is_zero():
    result = epsilon_star(3, range(3))
    assert result.epsilon_star == 0.0
    assert result.weights is None


def test_epsilon_validation():
    with pytest.raises(ValueError):
        epsilon_star(4, [])
    with pytest.raises(ValueError):
        epsilon_star(4, {0, 4})
    with pytest.raises(ValueError):
        epsilon_star(4, {-1, 0})


def test_epsilon_matches_the_support_function_on_every_class_set():
    sets = 0
    for d in range(1, 13):
        for classes in _class_sets_with_zero(d):
            assert epsilon_star(d, classes).epsilon_star == pytest.approx(
                _support_epsilon(d, classes), abs=1e-14), (d, classes)
            sets += 1
    assert sets == 4095


def test_epsilon_is_exactly_zero_when_the_largest_gap_is_half_the_circle():
    sets = 0
    for d in range(2, 17, 2):
        for classes in _class_sets_with_zero(d):
            if 2 * _largest_gap(d, classes) == d:
                result = epsilon_star(d, classes)
                assert result.epsilon_star == 0.0 and result.weights is None, (d, classes)
                sets += 1
    assert sets == 1271


@pytest.mark.parametrize("points", [
    (1, {0}),
    (4, {0, 1}),
    (3, {0, 1}),
    (6, range(3)),
    (8, range(4)),
    (5, {0, 1}),
    (12, {0, 2, 5}),
])
def test_epsilon_weights_attain_the_distance(points):
    d, classes = points  # the points zeta_d^j for j in classes
    result = epsilon_star(d, classes)
    assert len(result.weights) == len(classes)
    assert all(w >= 0.0 for w in result.weights)
    assert math.fsum(result.weights) == pytest.approx(1.0, abs=1e-12)
    combo = sum(w * cmath.rect(1.0, 2.0 * math.pi * j / d)
                for w, j in zip(result.weights, sorted(classes)))
    assert abs(combo) == pytest.approx(result.epsilon_star, abs=1e-12)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_no_multiset_beats_epsilon(d):
    points = [cmath.rect(1.0, 2.0 * math.pi * j / d) for j in range(d // 2)]
    eps = epsilon_star(d, range(d // 2)).epsilon_star
    for size in range(1, 7):
        for combo in combinations_with_replacement(points, size):
            assert abs(sum(combo)) / size >= eps - 1e-9


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_epsilon_shrinks_when_points_are_added(data):
    d = data.draw(st.integers(1, 12))
    classes = data.draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=d))
    extra = data.draw(st.integers(0, d - 1))
    eps_small = epsilon_star(d, classes).epsilon_star
    eps_big = epsilon_star(d, classes | {extra}).epsilon_star
    assert eps_big <= eps_small + 1e-12


def test_duplicate_points_do_not_change_epsilon():
    assert epsilon_star(6, [0, 1, 2, 2, 0, 1]) == epsilon_star(6, range(3))


# ---------------------------------------------------------------------------
# the half-circle set bound

def _chord_distance(d: int) -> float:
    # distance from the origin to the segment joining the two extreme
    # points of the half-circle arc
    lo, hi = unit_root(d, 0), unit_root(d, d // 2 - 1)
    t = max(0.0, min(1.0, ((-lo) * (hi - lo).conjugate()).real / abs(hi - lo) ** 2))
    return abs(lo + t * (hi - lo))


@pytest.mark.parametrize("d", [4, 6, 10, 62])
def test_half_circle_epsilon_is_the_chord_distance(d):
    eps = epsilon_star(d, range(d // 2)).epsilon_star
    assert eps == pytest.approx(_chord_distance(d), abs=1e-9)
    assert eps == pytest.approx(math.sin(math.pi / d), abs=1e-9)


@pytest.mark.parametrize("d", [4, 6, 62])
def test_lemma_bound_report(d):
    # The half-circle set is (pi/d - pi/d^2)-lower bounded: its epsilon* is
    # the chord distance sin(pi/d), which dominates that estimate.
    eps = epsilon_star(d, range(d // 2)).epsilon_star
    assert eps == pytest.approx(math.sin(math.pi / d), abs=1e-12)
    assert eps >= math.pi / d - math.pi / d**2

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
    FieldTable,
    InvariantError,
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
from cayley_cliques import charsum
from cayley_cliques.charsum import _theta_orbits
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
        assert sum(got.counts) == len(base) and {type(c) for c in got.counts} == {int}
        assert abs(got.value() - expected) < 1e-9


def test_line_sum_rejects_zero_term(gf81):
    chi = Character(gf81, 5)
    base = gf81.subfield_elements(1)
    with pytest.raises(ZeroEncountered):
        line_sum(chi, FieldOracle.of(gf81).neg(1), base)


@pytest.mark.parametrize("bad", [-1, 81, 86])
def test_line_sum_refuses_codes_outside_the_field(gf81, bad):
    chi = Character(gf81, 5)
    base = gf81.subfield_elements(1)
    for theta, elements in [(bad, base), (3, [0, bad])]:
        with pytest.raises(ValueError, match=rf"^{bad} is not a code of GF\(81\)$"):
            line_sum(chi, theta, elements)


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
    """One line sum per AGL(1, F) orbit, its counts turned for every other
    member, and the log-residue theta set change no bit of the report:
    n = 2, 3, 4 and 6 (two primes l | n).  The orbits hold p^r (p^r - 1)
    theta each, so theta_count line sums cover the per-theta scan's set."""
    table = build_field(p, e)
    for r in sympy.divisors(e)[:-1]:
        for d in sympy.divisors(table.qm1)[1:]:
            report = katz_bound_check(table, r, d)
            max_ratio, worst_theta, count = _katz_per_theta(table, r, d)
            assert (report.max_ratio, report.worst_theta) == (max_ratio, worst_theta), (r, d)
            assert report.theta_count * p**r * (p**r - 1) == count, (r, d)


@pytest.mark.parametrize("p,e", [(3, 4), (5, 4), (7, 3), (3, 6)])
def test_theta_orbits_partition_the_valid_theta_into_agl_orbits(p, e):
    """Member k Q + i of each orbit is c theta + b, c = g^(k step) and b = 0
    or g^((i-1) step), by the table-free oracle's products and sums; the
    members partition the valid theta, Q (Q - 1) to an orbit, and each
    representative is its orbit's least member, ascending."""
    table = build_field(p, e)
    oracle = FieldOracle.of(table)
    for r in sympy.divisors(e)[:-1]:
        q_r, step = p**r, table.subfield_step(r)
        thetas = table.full_degree_elements(r)
        reps, orbit, slot = _theta_orbits(table, r, thetas)
        units = np.array([oracle.pow(table.g, k * step) for k in range(q_r - 1)])
        scaled = oracle.mul_many(units[None, :], thetas[reps][:, None])  # c theta
        members = oracle.add_many(scaled[:, :, None], np.concatenate([[0], units])[None, None, :])
        members = members.reshape(len(reps), -1)
        assert members.shape[1] == q_r * (q_r - 1)
        assert np.array_equal(np.sort(members.ravel()), thetas), r
        assert np.array_equal(members[orbit, slot], thetas), r
        assert np.array_equal(members.min(axis=1), thetas[reps]), r
        assert reps == sorted(reps) and reps[0] == 0
        assert np.bincount(orbit).tolist() == [q_r * (q_r - 1)] * len(reps)


@pytest.mark.parametrize("chunk", [1, 20, 100])
def test_theta_orbits_do_not_depend_on_the_rows_per_pass(monkeypatch, chunk):
    """Orbits of 702 (r = 3) and 72 (r = 2) members, built one or a few
    rows of Q members per pass, equal the orbits built in one pass."""
    table = build_field(3, 6)
    whole = {r: _theta_orbits(table, r, table.full_degree_elements(r)) for r in (2, 3)}
    reports = {r: katz_bound_check(table, r, 728) for r in (2, 3)}
    monkeypatch.setattr(charsum, "_CHUNK", chunk)
    for r, (reps, orbit, slot) in whole.items():
        got_reps, got_orbit, got_slot = _theta_orbits(table, r, table.full_degree_elements(r))
        assert got_reps == reps and np.array_equal(got_orbit, orbit) and np.array_equal(got_slot, slot)
        assert katz_bound_check(table, r, 728) == reports[r]


def test_katz_n2_is_one_orbit_and_one_line_sum(monkeypatch):
    """GF(5^6) over F_125: the 15,500 theta of degree 2 are one orbit, so the
    scan takes one line sum, and its turned counts find the equality case."""
    calls = []
    monkeypatch.setattr(charsum, "line_sum",
                        lambda chi, theta, base: calls.append(theta) or line_sum(chi, theta, base))
    report = katz_bound_check(build_field(5, 6), 3, 62)
    assert len(calls) == report.theta_count == 1
    assert report.max_ratio == 1.0000000000000009  # |S| = bound, up to float error
    assert report.worst_theta == 710
    assert report.bound_satisfied


def _with_log(table, log):
    """The unchecked constructor: the same exp, a replaced log, its zech built from both."""
    return FieldTable(table.params, table.g, table.exp, log)


@pytest.mark.parametrize("swap,r,message", [
    # Swapped, log 1 = 22 and log 3 = 0: 1 reads as a theta of degree 4, 3 as a unit of F_3, and exp[22] = 3.
    ((1, 3), 1, r"x -> 1 x \+ 0 over F_\{3\^1\} sends theta=1 to 3, no valid theta"),
    ((4, 15), 2, r"x -> 22 x \+ 22 over F_\{3\^2\} sends theta=3 to 16, no valid theta"),
    ((3, 5), 1, r"the orbits over F_\{3\^1\} reach theta=5 twice"),
    ((3, 5), 2, r"the orbits over F_\{3\^2\} reach theta=5 twice"),
    ((3, 9), 1, r"theta=3 is not in its own orbit over F_\{3\^1\}"),
])
def test_orbit_images_off_the_valid_set_or_twice_are_invariant_errors(gf81, swap, r, message):
    """Swapping two logs of GF(81) leaves exp and the valid theta out of
    step: an image leaves the valid set, two orbits collide, or a
    representative misses its own orbit."""
    log = gf81.log.copy()
    log[list(swap)] = log[list(swap[::-1])]
    with pytest.raises(InvariantError, match=message + ": corrupt tables$"):
        katz_bound_check(_with_log(gf81, log), r, 2)


def test_orbit_image_zero_is_an_invariant_error(gf81):
    """A zech entry of -1 sends theta + b to 0, never a valid theta: the
    orbits read log(c theta + b) as log b + zech[log c theta - log b]."""
    zech = gf81.zech.copy()
    theta = int(gf81.full_degree_elements(1)[0])
    zech[gf81.log[theta]] = -1  # theta + 1 = 1 (1 + theta) = 0
    zech.setflags(write=False)
    table = _with_log(gf81, gf81.log)
    table.zech = zech  # shadows the cached property
    with pytest.raises(InvariantError, match=rf"x -> 1 x \+ 1 .* sends theta={theta} to 0, no valid theta"):
        katz_bound_check(table, 1, 2)


@pytest.mark.parametrize("r,d", [(1.0, 8), (1, 8.0), (2.5, 8), (1, 2.5), (np.float64(1.0), 8), (1, np.float32(8))])
def test_katz_refuses_non_integral_r_and_d(gf81, r, d):
    name = "r" if not isinstance(r, int) else "d"
    with pytest.raises(TypeError, match=rf"^{name}=.* is not an integer$"):
        katz_bound_check(gf81, r, d)


def test_katz_takes_numpy_integers(gf81):
    report = katz_bound_check(gf81, np.int64(1), np.int32(8))
    assert report == katz_bound_check(gf81, 1, 8)
    assert type(report.r) is int and type(report.d) is int


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

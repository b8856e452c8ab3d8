"""Field tables checked against from-scratch polynomial arithmetic.

The oracles here share no code with the table builder: schoolbook
multiplication on digit tuples, trial-division irreducibility, and
brute-force generator search.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_cliques import ff
from cayley_cliques.ff import (
    CapExceeded,
    InvariantError,
    NotADivisor,
    build_field,
    factorize,
)

# ---------------------------------------------------------------------------
# oracles

def _digits(code: int, p: int, e: int) -> tuple[int, ...]:
    out = []
    for _ in range(e):
        code, rem = divmod(code, p)
        out.append(rem)
    return tuple(out)


def _code(digits, p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    num = list(num)
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for shift in range(len(num) - len(den), -1, -1):
        coef = (num[shift + len(den) - 1] * inv_lead) % p
        quot[shift] = coef
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - coef * c) % p
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def oracle_mul(a_digits, b_digits, modulus, p: int) -> tuple[int, ...]:
    prod = [0] * (len(a_digits) + len(b_digits) - 1)
    for i, ai in enumerate(a_digits):
        for j, bj in enumerate(b_digits):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    _, rem = _poly_divmod(prod, list(modulus), p)
    rem += [0] * (len(modulus) - 1 - len(rem))
    return tuple(rem)


def _monic_polys(p: int, deg: int):
    # constant-coefficient-first lex order, leading coefficient fixed at 1
    for digits in itertools.product(range(p), repeat=deg):
        yield digits + (1,)


def _is_irreducible_by_sieve(poly, p: int) -> bool:
    deg = len(poly) - 1
    if poly[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for den in _monic_polys(p, d):
            _, rem = _poly_divmod(list(poly), list(den), p)
            if not rem:
                return False
    return True


def _first_irreducible(p: int, e: int) -> tuple[int, ...]:
    for poly in _monic_polys(p, e):
        if _is_irreducible_by_sieve(poly, p):
            return poly
    raise AssertionError("no irreducible found")


SMALL_TABLES = [build_field(p, e) for p, e in [(13, 1), (3, 2), (3, 3), (5, 2), (7, 2)]]


def _oracle_mul_codes(table, a: int, b: int) -> int:
    p, e, mod = table.p, table.e, table.params.modulus
    return _code(oracle_mul(_digits(a, p, e), _digits(b, p, e), mod, p), p)


# ---------------------------------------------------------------------------
# modulus and generator selection

@pytest.mark.parametrize("p,e", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (13, 2)])
def test_modulus_is_first_irreducible_in_lex_order(p, e):
    assert build_field(p, e).params.modulus == _first_irreducible(p, e)


def test_frozen_moduli(gf9, gf81):
    assert gf9.params.modulus == (1, 0, 1)
    assert gf81.params.modulus == (1, 0, 1, 1, 1)
    assert build_field(5, 6).params.modulus == (1, 0, 0, 0, 1, 1, 1)


def test_large_modulus_has_no_earlier_irreducible():
    # scan in constant-first lex order only up to the chosen modulus
    modulus = build_field(5, 6).params.modulus
    for poly in _monic_polys(5, 6):
        if poly == modulus:
            assert _is_irreducible_by_sieve(poly, 5)
            break
        assert not _is_irreducible_by_sieve(poly, 5), f"{poly} precedes the modulus"


@pytest.mark.parametrize("p,e", [(13, 1), (3, 2), (5, 2), (3, 3)])
def test_generator_is_smallest_by_code(p, e):
    table = build_field(p, e)
    q = table.q
    for candidate in range(1, table.g):
        acc, order = candidate, 1
        while acc != 1:
            acc = _oracle_mul_codes(table, acc, candidate)
            order += 1
        assert order < q - 1, f"code {candidate} < g={table.g} already generates"
    acc, order = table.g, 1
    while acc != 1:
        acc = _oracle_mul_codes(table, acc, table.g)
        order += 1
    assert order == q - 1


def test_frozen_generators(gf13, gf9, gf81):
    assert gf13.g == 2
    assert gf9.g == 4
    assert gf81.g == 10
    assert build_field(13, 6).g == 15


# ---------------------------------------------------------------------------
# table arithmetic against the schoolbook oracle

@pytest.mark.parametrize("p,e", [(13, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_mul_matches_oracle_exhaustively(p, e):
    table = build_field(p, e)
    for a in range(table.q):
        for b in range(table.q):
            assert table.mul(a, b) == _oracle_mul_codes(table, a, b)


def test_mul_matches_oracle_sampled_large(gf625):
    rng = np.random.default_rng(20260814)
    for a, b in rng.integers(0, gf625.q, size=(300, 2)):
        assert gf625.mul(int(a), int(b)) == _oracle_mul_codes(gf625, int(a), int(b))


@pytest.mark.parametrize("p,e", [(3, 2), (3, 4), (5, 2), (5, 4), (7, 3)])
def test_exp_chain_matches_oracle(p, e):
    # exp[k+1] = g * exp[k] for every k certifies the whole log table
    table = build_field(p, e)
    g_digits = _digits(table.g, p, e)
    mod = table.params.modulus
    acc = _digits(1, p, e)
    for k in range(table.q - 1):
        assert _code(acc, p) == int(table.exp[k])
        acc = oracle_mul(acc, g_digits, mod, p)
    assert _code(acc, p) == 1


def test_non_generator_is_an_invariant_error_under_optimize():
    # The order certificate must survive `python -O`, which strips asserts.
    src = Path(ff.__file__).parents[1]
    script = (
        "import sys\n"
        "import cayley_cliques.ff as ff\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(2)\n"
        "ff._smallest_generator = lambda p, e, q, modulus: 3  # order 3 in GF(13)*\n"
        "try:\n"
        "    ff.build_field(13, 1)\n"
        "except ff.InvariantError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "9 of 12 units have no log" in done.stdout


def test_exp_log_round_trip(gf81):
    for x in range(1, gf81.q):
        assert int(gf81.exp[int(gf81.log[x])]) == x
    assert int(gf81.log[0]) == -1


@pytest.mark.parametrize("p,e", [(13, 1), (3, 2), (5, 2), (3, 4), (7, 3)])
def test_add_matches_digitwise_oracle(p, e):
    # Every pair, so both Zech sentinels (x = 0 and x = -c) are hit.
    table = build_field(p, e)
    digits = [_digits(x, p, e) for x in range(table.q)]
    codes = np.arange(table.q)
    for b in range(table.q):
        sums = [_code([(x + y) % p for x, y in zip(digits[a], digits[b])], p) for a in codes]
        diffs = [_code([(x - y) % p for x, y in zip(digits[a], digits[b])], p) for a in codes]
        assert [table.add(int(a), b) for a in codes] == sums
        assert table.add_many(codes, b).tolist() == sums
        assert table.sub_many(codes, b).tolist() == diffs


def test_frozen_small_products(gf13, gf9):
    assert gf13.mul(5, 8) == 1
    assert gf9.add(4, 4) == 8
    assert factorize(15624) == [2, 2, 2, 3, 3, 7, 31]
    assert factorize(97) == [97]


# ---------------------------------------------------------------------------
# algebraic laws (sampled)

@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_field_axioms(data):
    table = data.draw(st.sampled_from(SMALL_TABLES))
    draw_code = st.integers(0, table.q - 1)
    a, b, c = (data.draw(draw_code) for _ in range(3))
    assert table.add(a, b) == table.add(b, a)
    assert table.mul(a, b) == table.mul(b, a)
    assert table.add(table.add(a, b), c) == table.add(a, table.add(b, c))
    assert table.mul(table.mul(a, b), c) == table.mul(a, table.mul(b, c))
    assert table.mul(a, table.add(b, c)) == table.add(table.mul(a, b), table.mul(a, c))
    assert table.add(a, table.neg(a)) == 0
    assert table.sub(a, b) == table.add(a, table.neg(b))
    if a:
        assert table.mul(a, table.inv(a)) == 1


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_pow_matches_repeated_mul(data):
    table = data.draw(st.sampled_from(SMALL_TABLES))
    a = data.draw(st.integers(1, table.q - 1))
    k = data.draw(st.integers(0, 2 * table.q))
    acc = 1
    for _ in range(k):
        acc = table.mul(acc, a)
    assert table.pow(a, k) == acc
    assert table.pow(a, -1) == table.inv(a)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_vector_ops_match_scalar(data):
    table = data.draw(st.sampled_from(SMALL_TABLES))
    xs = np.array(data.draw(st.lists(st.integers(0, table.q - 1), min_size=1, max_size=30)))
    c = data.draw(st.integers(0, table.q - 1))
    assert [int(v) for v in table.add_many(xs, c)] == [table.add(int(x), c) for x in xs]
    assert [int(v) for v in table.sub_many(xs, c)] == [table.sub(int(x), c) for x in xs]


@pytest.mark.parametrize("p,e", [(13, 1), (3, 4), (5, 4)])
def test_adding_zero_matches_scalar_loop_and_keeps_input(p, e):
    table = build_field(p, e)
    codes = np.random.default_rng(p * e).permutation(table.q)
    before = codes.copy()
    for many, scalar in ((table.add_many, table.add), (table.sub_many, table.sub)):
        out = many(codes, 0)
        assert out.tolist() == [scalar(int(x), 0) for x in codes]
        assert not out.flags.writeable
        np.testing.assert_array_equal(codes, before)


# ---------------------------------------------------------------------------
# subfields and degrees

def test_subfield_elements_are_frobenius_fixed_points(gf81):
    for r in (1, 2):
        fixed = tuple(sorted(x for x in gf81.elements() if gf81.pow(x, gf81.p**r) == x or x == 0))
        assert gf81.subfield_elements(r) == fixed
        assert len(fixed) == gf81.p**r


def test_subfield_closure(gf81):
    for r in (1, 2):
        sub = set(gf81.subfield_elements(r))
        for a in sub:
            for b in sub:
                assert gf81.add(a, b) in sub
                assert gf81.mul(a, b) in sub


def test_short_exp_table_is_an_invariant_error(gf81, monkeypatch):
    monkeypatch.setattr(gf81, "exp", gf81.exp[:40])  # F_3* would need exp[0], exp[40]
    with pytest.raises(InvariantError, match="units"):
        gf81.subfield_elements(1)


def test_frozen_subfield_codes(gf81):
    assert gf81.subfield_elements(1) == (0, 1, 2)
    assert gf81.subfield_elements(2) == (0, 1, 2, 15, 16, 17, 21, 22, 23)
    with pytest.raises(NotADivisor):
        gf81.subfield_elements(3)


def test_degree_over_base_partitions(gf81):
    by_degree = {}
    for x in gf81.elements():
        by_degree.setdefault(gf81.degree_over_base(x, 1), []).append(x)
    # 0 counts as degree 1; degree-2 elements are F_9 minus F_3
    assert sorted(by_degree) == [1, 2, 4]
    assert len(by_degree[1]) == 3
    assert len(by_degree[2]) == 6
    assert len(by_degree[4]) == 72
    assert all(gf81.degree_over_base(x, 2) in (1, 2) for x in gf81.elements())


# ---------------------------------------------------------------------------
# validation and error paths

def test_rejects_bad_characteristic():
    with pytest.raises(ValueError, match="odd prime"):
        build_field(2, 4)
    with pytest.raises(ValueError, match="not prime"):
        build_field(9, 1)
    with pytest.raises(ValueError, match="not prime"):
        build_field(1, 1)
    with pytest.raises(ValueError):
        build_field(3, 0)


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        build_field(3, 16)
    with pytest.raises(CapExceeded):
        build_field(5, 4, cap=100)
    assert build_field(5, 4, cap=625).q == 625


def test_zero_division(gf13):
    with pytest.raises(ZeroDivisionError):
        gf13.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf13.pow(0, -2)


def test_tables_are_read_only(gf13):
    with pytest.raises(ValueError):
        gf13.exp[0] = 5


def test_to_json_round_trip(gf81):
    doc = gf81.to_json()
    assert doc == {"p": 3, "e": 4, "modulus": [1, 0, 1, 1, 1], "g": 10}

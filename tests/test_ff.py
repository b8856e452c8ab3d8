"""Field tables checked against from-scratch polynomial arithmetic.

The oracles here share no code with the table builder: schoolbook
multiplication on digit tuples, trial-division irreducibility, and
brute-force generator search.  The package's number theory (primality,
factoring, divisors, Ben-Or irreducibility) is checked against sympy.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_pow_mod, gf_rem, gf_strip

from cayley_cliques import cli, ff
from cayley_cliques.ff import (
    CapExceeded,
    FieldTable,
    InvariantError,
    NotADivisor,
    build_field,
    divisors,
    factorize,
    is_prime,
    primerange,
)
from field_oracle import FieldOracle, mul_rows, poly_divmod
from field_oracle import code as _code, digits as _digits, mul_digits as oracle_mul

# ---------------------------------------------------------------------------
# oracles

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
            _, rem = poly_divmod(list(poly), list(den), p)
            if not rem:
                return False
    return True


def _first_irreducible(p: int, e: int) -> tuple[int, ...]:
    for poly in _monic_polys(p, e):
        if _is_irreducible_by_sieve(poly, p):
            return poly
    raise AssertionError("no irreducible found")


SMALL_FIELDS = [(13, 1), (3, 2), (3, 3), (5, 2), (7, 2)]


@functools.cache
def _small_table(p: int, e: int):
    # Built on first use, not at import: a broken build_field then fails the
    # tests that draw this field, not the collection of the whole module.
    return build_field(p, e)


def _table_mul(table, a, b) -> np.ndarray:
    """Products read off the tables, exp[(log a + log b) mod (q-1)], and 0
    where a or b is 0; the code arrays a and b broadcast."""
    a, b = np.asarray(a), np.asarray(b)
    out = table.exp[(table.log[a].astype(np.int64) + table.log[b]) % table.qm1]
    return np.where((a == 0) | (b == 0), 0, out)


# ---------------------------------------------------------------------------
# number theory against sympy

def test_is_prime_matches_sympy_below_200000():
    assert [n for n in range(200_000) if is_prime(n)] == list(sympy.primerange(0, 200_000))


# The largest primes below 2^31 / isqrt(2^31), and the largest prime square
# and semiprime of two such primes below 2^31: the worst cases of trial division.
P_BELOW_SQRT = 46337
WORST_CASES = [2**31 - 1, P_BELOW_SQRT**2, P_BELOW_SQRT * 46327]


def test_is_prime_matches_sympy_below_2_31_and_refuses_from_there_on():
    rng = random.Random(20261019)
    for n in [rng.randrange(2**30, 2**31) for _ in range(20_000)]:
        assert is_prime(n) == sympy.isprime(n), n
    assert is_prime(2**31 - 1)
    assert not is_prime(P_BELOW_SQRT**2) and not is_prime(P_BELOW_SQRT * 46327)
    # 2^31, a strong pseudoprime to the bases 2, 3, 5, 7, and psi_12, a strong
    # pseudoprime to the first twelve prime bases: refused, not decided
    for n in [2**31, 3215031751, 318665857834031151167461]:
        with pytest.raises(CapExceeded, match="2\\^31"):
            is_prime(n)


def _sympy_factors(m: int) -> list[int]:
    return [int(p) for p, mult in sorted(sympy.factorint(m).items()) for _ in range(mult)]


def test_factorize_matches_sympy_on_random_arguments():
    rng = random.Random(20261018)
    edges = [1, 2**31 - 2, 3**19] + WORST_CASES  # 2^31 - 2 = 2 * 3^2 * 7 * 11 * 31 * 151 * 331
    for m in [rng.randrange(1, 2**31) for _ in range(300)] + edges:
        assert factorize(m) == _sympy_factors(m), m


def test_factorize_is_quick_on_its_worst_cases():
    for m in WORST_CASES:
        best = float("inf")
        for _ in range(3):  # best of three: the cost of the loop, not of the scheduler
            start = time.perf_counter()
            factors = factorize(m)
            best = min(best, time.perf_counter() - start)
        assert best < 0.005, (m, best)
        assert factors == _sympy_factors(m)


def test_factorize_contract():
    with pytest.raises(ValueError):
        factorize(0)
    assert factorize(2**31 - 1) == [2**31 - 1]
    with pytest.raises(CapExceeded, match="2\\^31"):
        factorize(2**31)


def test_divisors_and_primerange_match_sympy():
    for m in [1, 2, 12, 15624, 2**20, 3**12 - 1, 16777213 * 3, 4093**2 - 1]:
        assert divisors(m) == sympy.divisors(m), m
    for lo, hi in [(0, 0), (0, 2), (0, 3), (3, 3), (5, 4), (3, 4097), (50, 100)]:
        assert primerange(lo, hi) == list(sympy.primerange(lo, hi)), (lo, hi)


@pytest.mark.parametrize(
    "p,e", [(3, e) for e in range(2, 7)] + [(5, e) for e in range(2, 5)] + [(7, 2), (7, 3), (13, 2)]
)
def test_ben_or_matches_sympy_on_every_monic_polynomial(p, e):
    for poly in _monic_polys(p, e):
        expected = gf_irreducible_p(list(reversed(poly)), p, ZZ)
        assert ff._is_irreducible(poly, p) == expected, poly


def test_smallest_irreducible_matches_a_sympy_search_up_to_2_to_the_24():
    """Every GF(p^e) with e >= 2 and q <= 2^24, against the first monic
    polynomial (constant-first lex order) that gf_irreducible_p accepts."""
    checked = 0
    for p in sympy.primerange(3, 2**12 + 1):
        for e in itertools.count(2):
            if p**e > 2**24:
                break
            # constant-first lex order from c_0 = 1: every c_0 = 0 polynomial has the root 0
            candidates = itertools.product(range(1, p), *[range(p)] * (e - 1), [1])
            expected = next(f for f in candidates if gf_irreducible_p(f[::-1], p, ZZ))
            assert ff._smallest_irreducible(p, e) == expected, (p, e)
            checked += 1
    assert checked == 661


# ---------------------------------------------------------------------------
# modulus and generator selection

@pytest.mark.parametrize(
    "p,e",
    [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (13, 2), (3, 6), (3, 8), (3, 9), (7, 4)],
)
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
    oracle = FieldOracle.of(table)
    q = table.q
    for candidate in range(1, table.g):
        acc, order = candidate, 1
        while acc != 1:
            acc = oracle.mul(acc, candidate)
            order += 1
        assert order < q - 1, f"code {candidate} < g={table.g} already generates"
    acc, order = table.g, 1
    while acc != 1:
        acc = oracle.mul(acc, table.g)
        order += 1
    assert order == q - 1


def _is_generator_by_sympy(code: int, p: int, e: int, f: list[int], exponents: list[int]) -> bool:
    a = gf_strip(list(reversed(_digits(code, p, e))))
    return all(gf_pow_mod(a, k, f, p, ZZ) != [1] for k in exponents)


def test_generator_is_the_first_code_of_full_order_by_a_sympy_oracle():
    """Every GF(p^e) with e >= 2 and q <= 2^20, and one seeded prime field
    per bit length up to 2^24: g is the first code from p (2 for e = 1)
    whose powers to every (q-1)/l, l a prime factor of q - 1, are not 1,
    computed with galoistools on the field's own modulus."""
    rng = random.Random(20261019)
    fields = [(p, e) for p in sympy.primerange(3, 2**10 + 1)
              for e in range(2, 20) if p**e <= 2**20]
    fields += [(sympy.prevprime(rng.randrange(2 ** (bits - 1) + 1, 2**bits)), 1)
               for bits in range(3, 25)]
    for p, e in fields:
        table = build_field(p, e)
        q, f = table.q, list(reversed(table.params.modulus))
        exponents = [(q - 1) // ell for ell in sympy.primefactors(q - 1)]
        for code in range(2 if e == 1 else p, table.g):
            assert not _is_generator_by_sympy(code, p, e, f, exponents), (p, e, code)
        assert _is_generator_by_sympy(table.g, p, e, f, exponents), (p, e)
    assert len(fields) == 223 + 22


def test_frozen_generators(gf13, gf9, gf81):
    assert gf13.g == 2
    assert gf9.g == 4
    assert gf81.g == 10
    assert build_field(13, 6).g == 15


# ---------------------------------------------------------------------------
# the oracle itself against sympy

@pytest.mark.parametrize("p,e", [(13, 1), (3, 4), (5, 4)])
def test_field_oracle_matches_sympy_galoistools(p, e):
    """The test oracle's products, inverses, powers and residue classes
    against galoistools on the field's own modulus: every pair and unit of
    the small fields, a seeded sample of GF(5^4)'s, and every d | q - 1."""
    table = build_field(p, e)
    oracle = FieldOracle.of(table)
    q, f = table.q, list(reversed(table.params.modulus))
    rng = random.Random(q)

    def poly(x: int) -> list:
        return gf_strip(list(reversed(_digits(x, p, e))))

    def power(x: int, k: int) -> int:
        return int(_code(list(reversed(gf_pow_mod(poly(x), k, f, p, ZZ))), p))

    small = q < 100
    pairs = list(itertools.product(range(q), repeat=2)) if small else [
        (rng.randrange(q), rng.randrange(q)) for _ in range(1000)]
    for a, b in pairs:
        product = gf_rem(gf_mul(poly(a), poly(b), p, ZZ), f, p, ZZ)
        assert oracle.mul(a, b) == int(_code(list(reversed(product)), p)), (a, b)
    units = range(1, q)
    assert [oracle.inv(x) for x in units] == [power(x, q - 2) for x in units]
    for x in rng.sample(units, min(40, q - 1)):
        for k in [0, 1, q - 1, q, rng.randrange(2, 3 * q), -rng.randrange(1, 3 * q)]:
            assert oracle.pow(x, k) == power(x, k % (q - 1)), (x, k)
    for k in (0, 1, 2, p, q + 1):
        assert oracle.pow_many(np.arange(q), k).tolist() == [oracle.pow(x, k) for x in range(q)]
    checked = units if small else sorted(rng.sample(units, 100))
    for d in sympy.divisors(q - 1):
        step = (q - 1) // d
        classes = {power(table.g, j * step): j for j in range(d)}
        expected = [classes[power(x, step)] for x in checked]
        assert oracle.classes(d)[checked].tolist() == expected, d
        assert oracle.classes(d)[0] == -1
        for i in rng.sample(range(len(checked)), 5):
            assert oracle.cls(checked[i], d) == expected[i], (d, checked[i])


# ---------------------------------------------------------------------------
# table arithmetic against the schoolbook oracle

@pytest.mark.parametrize("p,e", [(13, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_mul_matches_oracle_exhaustively(p, e):
    table = build_field(p, e)
    codes = np.arange(table.q)
    oracle = FieldOracle.of(table)
    expected = [[oracle.mul(a, b) for b in range(table.q)] for a in range(table.q)]
    assert _table_mul(table, codes[:, None], codes).tolist() == expected


def test_mul_matches_oracle_sampled_large(gf625):
    pairs = np.random.default_rng(20260814).integers(0, gf625.q, size=(300, 2))
    expected = [FieldOracle.of(gf625).mul(int(a), int(b)) for a, b in pairs]
    assert _table_mul(gf625, pairs[:, 0], pairs[:, 1]).tolist() == expected


# The exp builder sums digit products in the smallest unsigned type holding
# e * (p-1)^2.  These fields sit at the edges of that bound: (11, 2) = 200 and
# (17, 1) = 256 straddle uint8; (181, 2) = 64,800, (191, 2) = 72,200 and
# (257, 1) = 65,536 straddle uint16; (65521, 1) fills uint32 and (65537, 1)
# needs uint64.  In (13, 3) = 432 and (193, 2) = 73,728 the single product
# (p-1)^2 fits a narrower type than the sum, and the sum overflows it.
@pytest.mark.parametrize("p,e", [(13, 1), (65537, 1), (3, 2), (3, 4), (5, 2), (5, 4), (7, 3),
                                 (11, 2), (17, 1), (181, 2), (191, 2), (257, 1), (65521, 1),
                                 (13, 3), (193, 2)])
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


def test_exp_and_zech_across_block_and_chunk_boundaries():
    # q - 1 > 2^17, so doubling blocks span many row chunks of the exp
    # kernel.  Check exp[k+1] = g * exp[k] for every k (scalar oracle around
    # every power of two, every multiple of 2^16 and every row-chunk edge,
    # the vectorised one on the whole table), log as the inverse of exp, and
    # the whole Zech table against digitwise 1 + x.
    p, e = 3, 12
    table = build_field(p, e)
    qm1, mod = table.q - 1, table.params.modulus
    g_digits = _digits(table.g, p, e)
    blocks = [1 << i for i in range(qm1.bit_length())]
    rows = ff._CHUNK // e
    edges = set(blocks) | set(range(1 << 16, qm1, 1 << 16))
    edges |= {m + lo for m in blocks for lo in range(0, m, rows) if m + lo < qm1}
    for k in sorted({k for b in edges for k in (b - 2, b - 1, b) if 0 <= k < qm1}):
        step = oracle_mul(_digits(int(table.exp[k]), p, e), g_digits, mod, p)
        assert _code(step, p) == int(table.exp[(k + 1) % qm1]), k
    pow_p = p ** np.arange(e, dtype=np.int64)
    successor = np.roll(table.exp, -1)
    for lo in range(0, qm1, 1 << 16):
        digits = table.exp[lo : lo + (1 << 16), None] // pow_p % p
        stepped = mul_rows(digits, g_digits, mod, p) @ pow_p
        np.testing.assert_array_equal(stepped, successor[lo : lo + (1 << 16)],
                                      err_msg=f"rows from {lo}")
    np.testing.assert_array_equal(table.log[table.exp], np.arange(qm1))

    digits = table.exp[:, None] // p ** np.arange(e) % p
    digits[:, 0] = (digits[:, 0] + 1) % p
    plus_one = digits @ p ** np.arange(e)
    np.testing.assert_array_equal(table.zech, table.log[plus_one])
    assert int(table.zech[qm1 // 2]) == -1


# exp is built as p - 1 rows of s = (q-1)/(p-1) entries, row j the first one
# scaled digitwise by c^j = g^(js); log is scattered below 2T, T = p^(e-1),
# and composed in blocks [aT, (a+1)T) for a >= 2.  GF(3^13) has one scaled
# row with s > 2^16, GF(251^2) 250 rows of 252, and GF(65537) is all
# constants: its rows and composition are empty.
@pytest.mark.parametrize("p,e", [(3, 13), (13, 5), (251, 2), (101, 3), (65537, 1)])
def test_scaled_rows_and_composed_log_match_the_oracle(p, e):
    table = build_field(p, e)
    q, qm1, mod = table.q, table.qm1, table.params.modulus
    s, top = qm1 // (p - 1), q // p
    g_digits = _digits(table.g, p, e)
    pow_p = p ** np.arange(e, dtype=np.int64)
    successor = np.roll(table.exp, -1)
    for lo in range(0, qm1, 1 << 16):
        digits = table.exp[lo : lo + (1 << 16), None] // pow_p % p
        stepped = mul_rows(digits, g_digits, mod, p) @ pow_p
        np.testing.assert_array_equal(stepped, successor[lo : lo + (1 << 16)],
                                      err_msg=f"rows from {lo}")
    np.testing.assert_array_equal(table.log[table.exp], np.arange(qm1))
    assert int(table.log[0]) == -1
    # The scalar chain across every row edge js and at the logs of the codes
    # around every composition block edge aT.
    edge_codes = {x for a in range(1, p) for x in (a * top - 1, a * top, a * top + 1) if 0 < x < q}
    ks = {k % qm1 for j in range(p - 1) for k in (j * s - 1, j * s, j * s + 1)}
    ks |= {int(table.log[x]) for x in edge_codes}
    for k in sorted(ks):
        step = oracle_mul(_digits(int(table.exp[k]), p, e), g_digits, mod, p)
        assert _code(step, p) == int(table.exp[(k + 1) % qm1]), k
    assert all(int(table.exp[table.log[x]]) == x for x in edge_codes)


# sha256 of the little-endian int32 bytes of exp, log and zech, recorded
# before the exp kernel's chunks shrank from 2^16 rows to 2^16 // e (the last
# two before exp was built by scaled rows and log by composition): any byte
# drift at a chunk, row or block edge of the construction shows here.
TABLE_DIGESTS = {
    (3, 12): ("9b71137fb6294152cf30ff5b0757f0b1b1ed3fe1018ff6a75ef8d25515b44bbc",
              "a86be36eb7453cf815f4c6bbd7106af69cfb57efa60d6d48171dfe9725c262d7",
              "3201ece9d769351131055da4cbdc613261c7179ea3a419cfe6ff0e295c88b8c5"),
    (3, 13): ("a9c506df94a600faecd4bef241734911e0430f06a31ea801bfbab6aee2b380f5",
              "6de124d03adb00cd844229504c1b53f4f56e80eb4a3986c31dace94439b15545",
              "d442cea5acfdf56c70deb2c4bdf358fc41d36abec184a3a34219f5837cbe85e1"),
    (13, 5): ("7f5b947e6322fa373eabef2cfdae0a9b04fbebf3d2ae84a1afa7d3c8cece431d",
              "a0fd8e17f6b058aeb217691d36ad2317ad8d050725f7186babd7695899571071",
              "59106cbf97d2a9edaf076c603a3bc128981d7991890ea49267b17fb749e2b23e"),
    (11, 5): ("9a101c315aa5d713be61e66abfd9ef4ba3f2a2d41a6b4706ed1f1ae3ffadc0a0",
              "88e9442abec54f4bb1bca8f15f2fd48dc18550496988b9c7a5a7af2b033fa2f0",
              "7cd0a94cff108535b37008987ab05bbca9f2e3d4f82f66889202f9e494a9c2c8"),
    (7, 6): ("5008445df72c0313ec0686b1df621af7d6edcf6a7864e98252a50a0bca19b8ad",
             "56468986e9b103d48eaddde9a74609c863aa69af35ca19bc2209df8b1e0fd480",
             "58fc6694e921cad875b733acb4e44f495a9b3162be19a5e98f4901161824c7db"),
    (5, 8): ("41e7b960e55ad72084fa8aac233c1bd8ad2d6cd8c0bfcf682f36d2860e8b576e",
             "ff4015517372532460af44e06d442bf76c24505f5d7928198abfc1faf9c17c4a",
             "77b14ed45bd45fc8601ae3ba67770973ca7b6b728bf05726ddb9e8dc872a4ac1"),
    (17, 3): ("7d57036344be4c0dba12efeb32928c4fa86f09d98f81839c68adf09068fa2b0c",
              "de8e3202be37bd7dc1ba6ff3cd6abc12210d9d176fd57adfaf42ed7f9fdeb483",
              "c1f349876089ef62e9eeb90078f7f233a5f5a7490f5b36f0e8b7ee159880e88c"),
    (65537, 1): ("79d68d6fed51b808732ce547f6ac47a97b69a1637d4090d5c0f1e35758eeaf6d",
                 "9da571a629636a84d5e2df58be480bcf8e5f2106cb11da267c1ac258d6199e12",
                 "69eaf2955a49299a9723606c2ea37b207dd9db5e065927e30cd98f3bdee23be7"),
    (13, 6): ("01e189c3129bf883c16ea1b58a0b7cb79c217008c82a6198f02c9f1bfbae95ef",
              "cb2e39fd480d003fa8f1757de3f4b4478d592293e7fdab8517ef5ad3fd4af623",
              "80ed1ea07213f6b32257e755937336dad3738b2d3785111ed95937945b237ef4"),
    (4093, 2): ("0362fbb2e37e352d319da447bb29a6c62c7acc13a138b05674fa10455988e33e",
                "92f3f862c71927c0ccc8916755c134d5deee04326c6cf0e9932e54b999fe640c",
                "fa93e9f649b939b7426876df5d8b56bca7b9d454f21c6ce1a313760b9ea1d06f"),
    (16777213, 1): ("9e7a6d1e78b6219d894be3f1107db32338772cfe4069d1c61730b9f5b66c1de8",
                    "0ad9a99a429edee5bfb5f4be865b94b728ae4c4c9ddea65da6142da7c1864cfc",
                    "fbec78f802753ccd00fb7432a8cce7e5462fddff8108e191f69b630743347394"),
}


@pytest.mark.parametrize("p,e", list(TABLE_DIGESTS))
def test_table_bytes_are_pinned(p, e):
    table = build_field(p, e)
    digests = tuple(hashlib.sha256(getattr(table, name).astype("<i4").tobytes()).hexdigest()
                    for name in ("exp", "log", "zech"))
    assert digests == TABLE_DIGESTS[p, e]


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
        "else:\n"
        "    sys.exit(1)\n"
        "from cayley_cliques import cli\n"
        "sys.exit(cli.main(['field', '--p', '13', '--s', '1']) != 1)\n"
    )
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "9 of 12 units have no log" in done.stdout
    [line] = done.stderr.splitlines()  # `field` keeps no exp, yet certifies it
    assert line.startswith("error: ") and "9 of 12 units have no log" in line


# g^5 in GF(3^4) has order 16: exp[0:40] collides while c = g^200 = -1 still
# generates F_3*.  g^2 in GF(5^2) has order 12: exp[0:6] is distinct, but
# c = g^12 = -1 has order 2 in F_5*, so the constants repeat.
@pytest.mark.parametrize("p,e,k,expected", [(3, 4, 5, "64 of 80"), (5, 2, 2, "12 of 24")])
def test_extension_field_non_generator_is_an_invariant_error_under_optimize(p, e, k, expected):
    src = Path(ff.__file__).parents[1]
    script = (
        "import sys\n"
        "import cayley_cliques.ff as ff\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(2)\n"
        f"h = int(ff.build_field({p}, {e}).exp[{k}])\n"
        "ff._smallest_generator = lambda p, e, q, modulus: h\n"
        "try:\n"
        f"    ff.build_field({p}, {e})\n"
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
    assert f"{expected} units have no log" in done.stdout


@pytest.mark.parametrize("value", [-1, 60])
def test_a_scaled_row_entry_past_lim_is_refused_at_the_first_log_read(value):
    # In GF(3^4), s = 40 and lim = 54: exp[71] = 75 lies in the row scaled
    # off the column.  The certificate takes that row as built, so -1 or 60
    # there passes it; the composed log of 75 is still 71, so the first read
    # of log refuses the table, and so does every later one.
    table = build_field(3, 4)
    exp = table.exp.copy()
    assert int(exp[71]) == 75
    exp[71] = value
    ff._certify(3, 4, 81, table.g, _blocks(exp, 3))
    corrupt = FieldTable(table.params, table.g, exp)
    for _ in range(2):
        with pytest.raises(InvariantError, match=f"code 75 has the composed log 71, "
                           f"but exp\\[71\\] = {value}$"):
            corrupt.log


def test_log_certificate_needs_both_the_count_and_the_cover():
    # In GF(3^4), lim = 2 * 27.  Overwriting an entry past lim with the code 2
    # leaves [1, lim) covered but puts lim entries below lim; overwriting
    # the entry 2 with the code 3 keeps the count but uncovers 2.  Either way
    # exp[0] = 1 and log[1] = 0 still hold, and one unit has no log.
    table = build_field(3, 4)
    past = int(np.flatnonzero(table.exp >= 2 * 27)[-1])
    for pos, code in [(past, 2), (int(table.log[2]), 3)]:
        exp = table.exp.copy()
        exp[pos] = code
        with pytest.raises(InvariantError, match="1 of 80 units have no log"):
            ff._certify(3, 4, 81, table.g, _blocks(exp, 3))


def _blocks(exp: np.ndarray, p: int):
    """exp as a stream of blocks for _certify: bands of at least two whole
    rows of its (p-1) x s view, about ff._CHUNK entries each."""
    rows = exp.reshape(p - 1, -1)
    band = max(2, ff._CHUNK // rows.shape[1])
    return lambda: ((j, 0, rows[j : j + band]) for j in range(0, p - 1, band))


def _refusal(table: FieldTable, exp: np.ndarray) -> str:
    """The message of the InvariantError _certify raises on exp."""
    with pytest.raises(InvariantError) as refused:
        ff._certify(table.p, table.e, table.q, table.g, _blocks(exp, table.p))
    return str(refused.value)


@pytest.mark.parametrize("p,e", [(3, 2), (7, 1), (3, 4)])
@pytest.mark.parametrize("value", [-2, -1])
def test_negative_entries_are_refused_with_a_true_message(p, e, value):
    # Every entry below lim = 2p^(e-1) and every entry of the column exp[::s]
    # is replaced in turn.  A unit below lim then has no log; on the column
    # (all of exp for e = 1) the table stops being the powers of g.
    table = build_field(p, e)
    q, s, lim = table.q, (table.q - 1) // (p - 1), 2 * p ** (e - 1)
    positions = sorted(set(np.flatnonzero(table.exp < lim).tolist()) | set(range(0, q - 1, s)))
    for pos in positions:
        exp = table.exp.copy()
        exp[pos] = value
        message = _refusal(table, exp)
        if pos < 2:
            assert f"starts {int(exp[0])}, {int(exp[1])}," in message
        elif table.exp[pos] < lim:
            assert f"1 of {q - 1} units have no log" in message
        else:
            assert f"is not the powers of g={table.g}" in message and f"= {value}," in message


@pytest.mark.parametrize("p,e,i,j,k", [
    # exp[s] <-> exp[2s] makes c' = c^2, so the column reads 1, c^2, c and
    # breaks at exp[2s] = c != c' c^2 = c^4 (c has order p - 1 > 3)
    (5, 2, 6, 12, 12),
    (7, 2, 8, 16, 16),
    # in a prime field the column is all of exp: it breaks at exp[i]
    (13, 1, 3, 5, 3),
    (7, 1, 2, 4, 2),
    # the first entry of the second block of the column, checked against
    # the last entry of the first
    (1048573, 1, 1 << 16, (1 << 16) + 1, 1 << 16),
])
def test_a_permutation_of_the_units_that_is_not_the_powers_of_g_is_refused(p, e, i, j, k):
    # Swapping two entries keeps exp a bijection onto the units, so no unit
    # lacks a log; the refusal names the first entry off the powers of g.
    table = build_field(p, e)
    exp = table.exp.copy()
    exp[[i, j]] = exp[[j, i]]
    assert sorted(exp.tolist()) == list(range(1, table.q))
    s = (table.q - 1) // (p - 1)
    c = int(exp[s])
    assert _refusal(table, exp) == (
        f"exp is not the powers of g={table.g} in GF({p}^{e}): exp[{k}] = {int(exp[k])}, "
        f"not c * exp[{k - s}] = {c * int(exp[k - s]) % p} mod {p} for c = exp[{s}] = {c}"
    )


def test_a_stream_with_a_block_missing_or_out_of_order_is_refused():
    # Every block must reach the certificate, and the column's in order.
    p, g = 1048573, build_field(1048573, 1).g
    blocks = list(ff._exp_blocks(p, 1, p, (0, 1), g, np.empty(p - 1, dtype=np.int32)))
    kept = p - 1 - blocks[-1][2].size
    with pytest.raises(InvariantError, match=f"hold {kept} entries, {kept} in its column, "
                       f"not {p - 1} and {p - 1}"):
        ff._certify(p, 1, p, g, lambda: blocks[:-1])
    with pytest.raises(InvariantError, match=f"resumes at row {2 << 16}, not {1 << 16}"):
        ff._certify(p, 1, p, g, lambda: [blocks[0], blocks[2], blocks[1]] + blocks[3:])


@pytest.mark.parametrize("p,e", [(3, 4), (13, 1), (7, 2)])
def test_exp_whose_second_entry_is_not_g_is_refused(p, e):
    table = build_field(p, e)
    exp = table.exp.copy()
    exp[[1, 2]] = exp[[2, 1]]
    assert f"starts 1, {int(table.exp[2])}, not g^0, g^1 = 1, {table.g}" in _refusal(table, exp)


def test_certificate_of_a_prime_field_keeps_no_map_of_the_field():
    # The certificate of GF(4194301) marks 2 bytes and slices exp in chunks:
    # its traced peak stays far below one byte per element.
    table = build_field(4194301, 1)
    tracemalloc.start()
    try:
        ff._certify(table.p, table.e, table.q, table.g, _blocks(table.exp, table.p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.q // 2


@pytest.mark.parametrize("p,e", [(4093, 2), (13, 6)])
def test_field_command_keeps_no_table(capsys, p, e):
    # exp alone takes 4q bytes.  `field` certifies it from a stream of blocks
    # and holds row 0 (s + 1 codes, 4q / 12 bytes for GF(13^6)), the column
    # and a map of lim = 2p^(e-1) bytes: its traced peak stays below q bytes.
    tracemalloc.start()
    try:
        assert cli.main(["field", "--p", str(p), "--s", str(e)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out
    assert peak < p**e


@pytest.mark.parametrize("p,e", [(1048573, 1), (3, 4), (13, 6)])
@pytest.mark.parametrize("keep_exp", [True, False])
def test_the_certificate_sees_every_entry(monkeypatch, p, e, keep_exp):
    # Every block _exp_blocks yields passes through _certify: their sizes add
    # up to q - 1 whether build_field keeps exp or not.  GF(1048573) is a
    # prime field whose column, all of exp, takes 16 runs.
    sizes = []
    exp_blocks = ff._exp_blocks

    def counted(*args):
        for j, i, block in exp_blocks(*args):
            sizes.append(block.size)
            yield j, i, block

    monkeypatch.setattr(ff, "_exp_blocks", counted)
    table = build_field(p, e, keep_exp=keep_exp)
    assert sum(sizes) == table.q - 1
    assert ("exp" in vars(table)) == keep_exp
    if e == 1:
        assert len(sizes) == -(-(table.q - 1) // ff._CHUNK) == 16


def _capture_tables(monkeypatch) -> list[FieldTable]:
    """Every FieldTable constructed from here on, in order."""
    tables = []
    init = FieldTable.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(self)

    monkeypatch.setattr(FieldTable, "__init__", capture)
    return tables


def test_build_field_and_the_table_free_commands_build_no_log(monkeypatch, capsys):
    tables = _capture_tables(monkeypatch)
    build_field(4093, 2)
    assert cli.main(["field", "--p", "4093", "--s", "2"]) == 0
    assert cli.main(["graph-info", "--p", "4093", "--s", "1", "--n", "2", "--d", "2"]) == 0
    capsys.readouterr()
    assert len(tables) == 3
    for table in tables:
        assert "log" not in vars(table)
        assert "zech" not in vars(table)
    # field and graph-info certify exp as a stream and keep none of it; a
    # later read builds it through the same certificate, with the same bytes
    assert ["exp" in vars(table) for table in tables] == [True, False, False]
    exp = tables[1].exp
    assert not exp.flags.writeable and tables[1].exp is exp
    assert hashlib.sha256(exp.astype("<i4").tobytes()).hexdigest() == TABLE_DIGESTS[4093, 2][0]


def test_log_is_built_once_on_first_read(monkeypatch):
    built = []
    build_log = ff._build_log
    monkeypatch.setattr(ff, "_build_log", lambda *args: built.append(args) or build_log(*args))
    table = build_field(3, 4)
    assert built == []
    log = table.log
    assert len(built) == 1
    assert table.log is log
    assert len(built) == 1
    assert int(log[0]) == -1 and not log.flags.writeable


def _corrupt_row_0(monkeypatch) -> tuple[list, list[FieldTable]]:
    """Make _exp_blocks of GF(3^4) yield row 0 (exp[1:40]) with exp[7] = exp[8],
    which repeats one unit and loses another.  The copy leaves the rows built
    from row 0 intact.  Returns the calls of _build_log (which records them
    and builds nothing) and the FieldTables constructed."""
    exp_blocks = ff._exp_blocks

    def corrupt(*args):
        for j, i, block in exp_blocks(*args):
            if (j, i) == (0, 1):
                block = block.copy()
                block[0, 6] = block[0, 7]
            yield j, i, block

    built = []
    monkeypatch.setattr(ff, "_exp_blocks", corrupt)
    monkeypatch.setattr(ff, "_build_log", lambda *args: built.append(args))
    return built, _capture_tables(monkeypatch)


def test_corrupt_exp_is_refused_by_build_field_before_any_log(monkeypatch):
    # build_field itself must raise, and _build_log must never run on the
    # corrupt table.
    built, tables = _corrupt_row_0(monkeypatch)
    with pytest.raises(InvariantError, match="1 of 80 units have no log"):
        build_field(3, 4)
    assert built == [] and tables == []


def test_corrupt_exp_is_refused_by_the_table_free_field_command(monkeypatch, capsys):
    # `field` keeps no exp, yet certifies every block: one error line, exit 1.
    built, tables = _corrupt_row_0(monkeypatch)
    assert cli.main(["field", "--p", "3", "--s", "4"]) == 1
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    assert out == "" and line.startswith("error: ") and "1 of 80 units have no log" in line
    assert built == [] and tables == []


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
        got = [table.add(int(a), b) for a in codes]
        assert got == sums and {type(x) for x in got} == {int}
        minus_b = int(table.exp[(table.log[b] + table.qm1 // 2) % table.qm1]) if b else 0
        assert [table.add(int(a), minus_b) for a in codes] == diffs


@pytest.mark.parametrize("bad", [-1, 81, 86])
def test_scalar_calls_refuse_codes_outside_the_field(gf81, bad):
    # -1 would wrap to the last table entry; 81 and 86 lie past every table.
    message = f"^{bad} is not a code of GF\\(81\\)$"
    for a, b in [(bad, 1), (1, bad), (bad, 0), (0, bad)]:
        with pytest.raises(ValueError, match=message):
            gf81.add(a, b)
    with pytest.raises(ValueError, match=message):
        gf81.degree_over_base(bad, 1)


def test_frozen_small_products(gf13, gf9):
    assert _table_mul(gf13, 5, 8) == 1 == FieldOracle.of(gf13).mul(5, 8)
    assert gf9.add(4, 4) == 8
    assert factorize(15624) == [2, 2, 2, 3, 3, 7, 31]
    assert factorize(97) == [97]


# ---------------------------------------------------------------------------
# algebraic laws (sampled)

@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_field_axioms(data):
    # The tables' sums (add), products, negatives and inverses
    # obey the axioms and agree with the oracle.
    table = _small_table(*data.draw(st.sampled_from(SMALL_FIELDS)))
    oracle = FieldOracle.of(table)
    draw_code = st.integers(0, table.q - 1)
    a, b, c = (data.draw(draw_code) for _ in range(3))
    add = table.add

    def mul(x: int, y: int) -> int:
        return int(_table_mul(table, x, y))

    assert add(a, b) == add(b, a) == oracle.add(a, b)
    assert mul(a, b) == mul(b, a) == oracle.mul(a, b)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    minus_b = int(table.exp[(table.log[b] + table.qm1 // 2) % table.qm1]) if b else 0
    assert add(b, minus_b) == 0 and minus_b == oracle.neg(b)
    assert add(a, minus_b) == oracle.sub(a, b)
    if a:
        inverse = int(table.exp[-int(table.log[a]) % table.qm1])
        assert mul(a, inverse) == 1 and inverse == oracle.inv(a)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_pow_matches_repeated_mul(data):
    # exp[k log a] against k schoolbook products, and exp[-log a] against
    # the oracle's inverse.
    table = _small_table(*data.draw(st.sampled_from(SMALL_FIELDS)))
    oracle = FieldOracle.of(table)
    a = data.draw(st.integers(1, table.q - 1))
    k = data.draw(st.integers(0, 2 * table.q))
    acc = 1
    for _ in range(k):
        acc = oracle.mul(acc, a)
    log_a = int(table.log[a])
    assert int(table.exp[log_a * k % table.qm1]) == acc
    assert int(table.exp[-log_a % table.qm1]) == oracle.inv(a)


# ---------------------------------------------------------------------------
# subfields and degrees

def test_subfield_elements_are_frobenius_fixed_points(gf81):
    oracle = FieldOracle.of(gf81)
    for r in (1, 2):
        fixed = tuple(x for x in range(gf81.q) if oracle.pow(x, gf81.p**r) == x)
        assert gf81.subfield_elements(r) == fixed
        assert len(fixed) == gf81.p**r


def test_subfield_closure(gf81):
    oracle = FieldOracle.of(gf81)
    for r in (1, 2):
        sub = set(gf81.subfield_elements(r))
        for a in sub:
            for b in sub:
                assert oracle.add(a, b) in sub
                assert oracle.mul(a, b) in sub


def test_short_exp_table_is_an_invariant_error(gf81):
    short = FieldTable(gf81.params, gf81.g, gf81.exp[:40], gf81.log)  # F_3* needs exp[0], exp[40]
    with pytest.raises(InvariantError, match="units"):
        short.subfield_elements(1)


def test_frozen_subfield_codes(gf81):
    assert gf81.subfield_elements(1) == (0, 1, 2)
    assert gf81.subfield_elements(2) == (0, 1, 2, 15, 16, 17, 21, 22, 23)
    with pytest.raises(NotADivisor):
        gf81.subfield_elements(3)


def test_degree_over_base_partitions(gf81):
    by_degree = {}
    for x in range(gf81.q):
        m = gf81.degree_over_base(x, 1)
        assert type(m) is int
        by_degree.setdefault(m, []).append(x)
    # 0 counts as degree 1; degree-2 elements are F_9 minus F_3
    assert sorted(by_degree) == [1, 2, 4]
    assert len(by_degree[1]) == 3
    assert len(by_degree[2]) == 6
    assert len(by_degree[4]) == 72
    assert all(gf81.degree_over_base(x, 2) in (1, 2) for x in range(gf81.q))


def test_full_degree_elements_match_degree_over_base():
    """Log-residue theta sets vs degree_over_base on every unit: every
    GF(p^E) of order <= 4096 with E >= 2 and every r | E (r = E included)."""
    checked = 0
    for p in sympy.primerange(3, 65):
        for e in range(2, 13):
            if p**e > 4096:
                break
            table = build_field(p, e)
            for r in sympy.divisors(e):
                expected = [x for x in range(1, table.q) if table.degree_over_base(x, r) == e // r]
                assert table.full_degree_elements(r).tolist() == expected, (p, e, r)
                checked += 1
    assert checked == 63
    with pytest.raises(NotADivisor):
        build_field(3, 4).full_degree_elements(3)


# ---------------------------------------------------------------------------
# validation and error paths

def test_rejects_bad_characteristic():
    with pytest.raises(ValueError, match="odd prime"):
        build_field(2, 4)
    with pytest.raises(ValueError, match="not prime"):
        build_field(9, 1)
    with pytest.raises(ValueError, match="not prime"):
        build_field(1, 1)
    with pytest.raises(CapExceeded, match="2\\^31"):
        build_field(2**64 + 13, 1)  # prime, but past the range of is_prime
    with pytest.raises(ValueError):
        build_field(3, 0)


def test_numpy_integers_are_accepted_and_non_integers_refused():
    expected = build_field(3, 4)
    for p, e in [(np.int64(3), 4), (3, np.int64(4)), (np.int32(3), np.uint8(4))]:
        table = build_field(p, e)
        assert (table.p, table.e, table.g) == (3, 4, expected.g)
        assert type(table.p) is int and type(table.e) is int
        np.testing.assert_array_equal(table.exp, expected.exp)
    with pytest.raises(TypeError, match="p=3.0 is not an integer"):
        build_field(3.0, 4)
    with pytest.raises(TypeError, match="e=4.0 is not an integer"):
        build_field(3, 4.0)


@pytest.mark.parametrize("r", [2.0, 2.5, np.float64(1.0)])
def test_subfield_queries_refuse_non_integral_r(gf81, r):
    calls = [gf81.subfield_step, gf81.subfield_elements, gf81.full_degree_elements,
             lambda r: gf81.degree_over_base(5, r)]
    for call in calls:
        with pytest.raises(TypeError, match=rf"^r={re.escape(repr(r))} is not an integer$"):
            call(r)


def test_subfield_queries_take_numpy_integers(gf81):
    r = np.int64(2)
    assert gf81.subfield_step(r) == gf81.subfield_step(2) == 10
    assert type(gf81.subfield_step(r)) is int
    assert gf81.subfield_elements(r) == gf81.subfield_elements(2)
    assert gf81.full_degree_elements(r).tolist() == gf81.full_degree_elements(2).tolist()
    assert [gf81.degree_over_base(x, r) for x in range(81)] == [gf81.degree_over_base(x, 2) for x in range(81)]


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        build_field(3, 16)
    with pytest.raises(CapExceeded):
        build_field(5, 4, cap=100)
    assert build_field(5, 4, cap=625).q == 625


def test_fields_of_2_to_the_31_elements_are_refused_whatever_the_cap(monkeypatch):
    def no_build(*args):
        raise AssertionError("build_field went past the size check")

    # If the refusal were missing, the build would stop here instead of
    # allocating int32 tables of 2^31 entries.
    monkeypatch.setattr(ff, "_smallest_generator", no_build)
    monkeypatch.setattr(ff, "_smallest_irreducible", no_build)
    with pytest.raises(CapExceeded, match="2\\^31"):
        build_field(2147483659, 1, cap=2**40)
    with pytest.raises(CapExceeded, match="2\\^31"):
        build_field(3, 20, cap=2**40)  # 3^20 = 3,486,784,401


def test_tables_are_int32(gf81):
    assert {t.dtype for t in (gf81.exp, gf81.log, gf81.zech)} == {np.dtype(np.int32)}


def test_tables_are_read_only():
    for p, e in VIEW_FIELDS:
        table = build_field(p, e)
        for name in ("exp", "log", "zech"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0] = 5


# ---------------------------------------------------------------------------
# negatives, inverses and powers from the tables, every element

VIEW_FIELDS = [(13, 1), (7, 2), (3, 4), (5, 3)]


@pytest.mark.parametrize("p,e", VIEW_FIELDS)
def test_scalar_views_are_read_only_and_share_the_tables_memory(p, e):
    # The scalar reads in add are ndarray.item on the tables themselves: the
    # table keeps each of exp, log and zech once, with no mirror beside it.
    table = build_field(p, e)
    assert table.add(1, 1) == FieldOracle.of(table).add(1, 1)  # builds zech
    arrays = {name: v for name, v in vars(table).items() if isinstance(v, np.ndarray)}
    assert sorted(arrays) == ["exp", "log", "zech"]
    for name, arr in arrays.items():
        assert getattr(table, name) is arr
        assert not arr.flags.writeable
        assert type(arr.item(1)) is int
        for other_name, other in arrays.items():
            assert np.shares_memory(arr, other) == (other_name == name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


@pytest.mark.parametrize("p,e", VIEW_FIELDS)
def test_neg_inv_pow_match_numpy_log_arithmetic_on_every_element(p, e):
    # -x, 1/x and x^k by numpy log arithmetic on the tables, for every unit
    # x and -2 <= k <= q, against digitwise negation and repeated products.
    table = build_field(p, e)
    oracle = FieldOracle.of(table)
    qm1 = table.qm1
    logs = table.log[1:].astype(np.int64)  # the logs of the units 1 .. q-1
    ks = np.arange(-2, table.q + 1)
    units = np.arange(1, table.q)
    assert table.exp[(logs + qm1 // 2) % qm1].tolist() == oracle.sub_many(0, units).tolist()
    inverses = np.array([oracle.inv(int(x)) for x in units])
    assert table.exp[-logs % qm1].tolist() == inverses.tolist()
    columns = [oracle.mul_many(inverses, inverses), inverses, np.ones_like(units)]
    while len(columns) < len(ks):
        columns.append(oracle.mul_many(columns[-1], units))
    assert table.exp[logs[:, None] * ks % qm1].tolist() == np.stack(columns, axis=1).tolist()


def test_to_json_round_trip(gf81):
    doc = gf81.to_json()
    assert doc == {"p": 3, "e": 4, "modulus": [1, 0, 1, 1, 1], "g": 10}

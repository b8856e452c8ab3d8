"""The acceptance checklist: end-to-end results with hard runtime budgets.

Each test prints one PASS line with the measured result and elapsed time;
run with -v (or -s) to read the checklist.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from itertools import combinations_with_replacement

import numpy as np
import pytest
import sympy

from clique_corpus import _unpack_masks, corpus, exhaustive_max_clique
from field_oracle import FieldOracle
from cayley_cliques import (
    GraphKind,
    SweepConfig,
    build_field,
    katz_bound_check,
    make_case,
    make_graph,
    maximum_clique,
    sweep,
    verify_case,
)
from cayley_cliques.charsum import epsilon_star
from cayley_cliques.cli import main


def test_criterion_1_gpstar_81_4_extension_is_size_nine(capsys):
    t0 = time.perf_counter()
    code = main(["verify", "--p", "3", "--s", "1", "--n", "4", "--d", "4",
                 "--kind", "peisert"])
    doc = json.loads(capsys.readouterr().out)
    report = verify_case(make_case(3, 1, 4, 4, "peisert"))
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert doc["maximal_subfield_clique"] is True
    assert doc["maximal_clique"] is False
    assert doc["extended_clique_size"] == 9 and doc["extension_method"] == "exact"
    assert report.extended_clique_size == 9
    assert elapsed < 1.0, f"{elapsed:.2f}s over the 1s budget"
    print(f"PASS criterion 1: GP*(81,4) F_3 extends to a maximal clique of "
          f"size 9 ({elapsed:.2f}s < 1s)")


def test_criterion_2_gpstar_15625_62_extension_is_size_25():
    t0 = time.perf_counter()
    report = verify_case(make_case(5, 1, 6, 62, "peisert"))
    elapsed = time.perf_counter() - t0
    assert report.maximal_subfield_clique is True
    assert report.maximal_clique is False
    assert report.extended_clique_size == 25
    assert report.extension_method == "exact"
    assert elapsed < 60.0, f"{elapsed:.2f}s over the 60s budget"
    print(f"PASS criterion 2: GP*(15625,62) F_5 extends to a maximal clique "
          f"of size 25 ({elapsed:.2f}s < 60s)")


def test_criterion_3_square_order_paley_clique_numbers():
    t0 = time.perf_counter()
    for p, s in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        q = p**s
        table = build_field(p, 2 * s)
        graph = make_graph(table, GraphKind.paley(2))
        assert graph.clique_number() == q, f"GP({q}^2,2) clique number"
        assert graph.is_maximal_clique(table.subfield_elements(s)) == (True, [])
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.2f}s over the 30s budget"
    print(f"PASS criterion 3: clique number of GP(q^2,2) is q with F_q maximal "
          f"for q in {{3,5,7,9}} ({elapsed:.2f}s < 30s)")


def test_criterion_4_paley_sweep_below_square_threshold():
    t0 = time.perf_counter()
    totals = 0
    for n in (2, 3, 4, 5, 6):
        base_cap = 13 if n == 6 else (n - 1) ** 2
        config = SweepConfig(max_order=max(base_cap**n, 9), n_min=n, n_max=n,
                             max_base=base_cap, kinds=("paley",))
        reports = sweep(config)
        totals += len(reports)
        assert all(r.verdict != "VIOLATION" for r in reports), f"violation at n={n}"
        # stronger than the verdict bookkeeping: in this whole range every
        # maximal subfield clique really is a maximal clique
        assert all(r.maximal_clique is True for r in reports
                   if r.maximal_subfield_clique), f"counterexample at n={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"{elapsed:.1f}s over the 300s budget"
    print(f"PASS criterion 4: {totals} Paley cases, n in 2..5 with q <= (n-1)^2 "
          f"plus n=6 with q <= 13, zero violations ({elapsed:.1f}s < 300s)")


def test_criterion_5_katz_bound_over_gf81_and_gf625():
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for p in (3, 5):
        table = build_field(p, 4)
        for r in (1, 2):
            for d in sympy.divisors(table.qm1):
                if d == 1:
                    continue
                report = katz_bound_check(table, r, d)
                assert report.bound_satisfied, (p, r, d)
                worst = max(worst, report.max_ratio)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1 + 1e-9
    assert elapsed < 60.0, f"{elapsed:.2f}s over the 60s budget"
    print(f"PASS criterion 5: {checked} character sums within (n-1)sqrt(q), "
          f"worst ratio {worst:.6f} ({elapsed:.2f}s < 60s)")


def test_criterion_6_epsilon_star_of_half_circle_sets():
    t0 = time.perf_counter()
    for d in range(4, 65, 2):
        eps = epsilon_star(d, range(d // 2)).epsilon_star
        assert eps == pytest.approx(math.sin(math.pi / d), abs=1e-9)
        assert eps >= math.pi / d - math.pi / d**2
    for d in (4, 6, 8):
        points = [cmath.rect(1.0, 2.0 * math.pi * j / d) for j in range(d // 2)]
        eps = epsilon_star(d, range(d // 2)).epsilon_star
        for size in range(1, 7):
            for combo in combinations_with_replacement(points, size):
                assert abs(sum(combo)) / size >= eps - 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"{elapsed:.2f}s over the 10s budget"
    print(f"PASS criterion 6: epsilon* = sin(pi/d) >= pi/d - pi/d^2 for even "
          f"d in 4..64, multisets confirm ({elapsed:.2f}s < 10s)")


def test_criterion_7_subfield_clique_criterion_is_the_divisibility_rule():
    t0 = time.perf_counter()
    checks = 0
    for p in sympy.primerange(3, 64):
        e = 2
        while (order := p**e) <= 4096:
            table = build_field(p, e)
            for d in sympy.divisors((order - 1) // 2):
                if d < 2:
                    continue
                graph = make_graph(table, GraphKind.paley(d))
                for r in range(1, e):
                    if e % r == 0:
                        divides = (order - 1) % (d * (p**r - 1)) == 0
                        assert graph.subfield_is_clique(r) == divides, (p, e, d, r)
                        checks += 1
            e += 1
    elapsed = time.perf_counter() - t0
    assert checks == 459
    assert elapsed < 60.0, f"{elapsed:.2f}s over the 60s budget"
    print(f"PASS criterion 7: membership scan equals the divisibility rule in "
          f"all {checks} (field,d,r) combinations up to order 4096 "
          f"({elapsed:.2f}s < 60s)")


# ---------------------------------------------------------------------------
# criterion 8 helpers: a table-free multiplication oracle

# Every value below fits int32: codes and logs are below q <= 4096, products
# of two codes below 2^24, and convolution sums below e * p^2 < 2^16.

def _digit_matrix(q: int, p: int, e: int) -> np.ndarray:
    codes = np.arange(q, dtype=np.int32)
    out = np.empty((q, e), dtype=np.int32)
    for i in range(e):
        codes, out[:, i] = np.divmod(codes, p)
    return out


def _reduction_rows(p: int, e: int, modulus) -> np.ndarray:
    # digit vectors of x^(e+k) mod modulus for k = 0..e-2
    rows = np.zeros((e - 1, e), dtype=np.int32)
    cur = np.array([(-c) % p for c in modulus[:e]], dtype=np.int32)
    rows[0] = cur
    for k in range(1, e - 1):
        shifted = np.concatenate(([0], cur[:-1]))
        cur = (shifted + cur[-1] * rows[0]) % p
        rows[k] = cur
    return rows


def _assert_all_products_match(table, block: int = 96) -> None:
    p, e, q = table.p, table.e, table.q
    log = table.log
    # log a + log b < 2(q - 1), so exp read twice over needs no reduction mod q - 1
    exp_twice = np.concatenate([table.exp, table.exp])
    codes = np.arange(q, dtype=np.int32)
    digits = _digit_matrix(q, p, e)
    reduction = _reduction_rows(p, e, table.params.modulus) if e > 1 else None
    pow_p = np.array([p**i for i in range(e)], dtype=np.int32)
    rng = np.random.default_rng(q)
    for start in range(0, q, block):
        a = codes[start:start + block]
        if e == 1:
            expected = a[:, None] * codes % p
        else:
            da = digits[a]
            conv = np.zeros((len(a), q, 2 * e - 1), dtype=np.int32)
            for i in range(e):
                conv[:, :, i:i + e] += da[:, i][:, None, None] * digits[None, :, :]
            conv %= p
            res = conv[:, :, :e].copy()
            for k in range(e - 1):
                res += conv[:, :, e + k][:, :, None] * reduction[k][None, None, :]
            res %= p
            expected = res @ pow_p
        # log[0] = -1 reads some code here; those rows and columns are set below
        produced = np.take(exp_twice, log[a][:, None] + log)
        produced[a == 0, :] = 0
        produced[:, 0] = 0
        assert np.array_equal(produced, expected), f"GF({p}^{e}) rows {a[0]}..{a[-1]}"
    # tie the vectorized oracle to the scalar schoolbook one
    oracle = FieldOracle.of(table)
    for x, y in rng.integers(0, q, size=(50, 2)):
        psi = int(table.exp[(log[x] + log[y]) % (q - 1)]) if x and y else 0
        assert oracle.mul(int(x), int(y)) == psi


def test_criterion_8_oracle_equivalences():
    t0 = time.perf_counter()
    fields = 0
    pairs = 0
    for p in sympy.primerange(3, 4097):
        e = 1
        while (q := p**e) <= 4096:
            table = build_field(p, e)
            _assert_all_products_match(table)
            fields += 1
            pairs += q * q
            e += 1
    for name, neighbors in corpus():
        assert len(neighbors) <= 24
        adjacency = _unpack_masks(neighbors)
        assert maximum_clique(adjacency).bit_count() == exhaustive_max_clique(neighbors), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"{elapsed:.1f}s over the 120s budget"
    print(f"PASS criterion 8: {pairs:,} products across {fields} fields match "
          f"the polynomial oracle; clique search matches exhaustive "
          f"enumeration on {len(corpus())} graphs ({elapsed:.1f}s < 120s)")

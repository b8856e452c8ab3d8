"""Exact arithmetic for GF(p^e) backed by discrete-log tables.

An element of GF(p^e) is an integer code in [0, q), q = p^e, packing the
coefficients of its polynomial representative as base-p digits, constant
coefficient least significant.  A FieldTable carries exp/log tables for
the full multiplicative group: a product is exp[log a + log b], one
lookup.  Addition is a lookup too, in the log domain: with Zech logarithms
Z[k] = log(1 + g^k), log(a + b) = log a + Z[log b - log a] (Huber, "Some
comments on Zech's logarithms", IEEE Trans. IT 36(4), 1990; the lookup
mode of the galois library, https://github.com/mhostetter/galois, keeps
the same three tables).  Prime and extension fields share every method.
The scalar add indexes zero-copy read-only memoryviews of the same
tables, so each lookup is one buffer read, not an ndarray method call.
Vectorized sums stay in the log domain (the pair kernel in cayley.py).

Construction is deterministic: the reducing polynomial is the
lexicographically smallest monic irreducible of its degree (coefficient
vectors compared from the constant term upward; irreducibility in GF(p)[x]
is Ben-Or's test, "Probabilistic algorithms in finite fields", FOCS 1981)
and the primitive root is the generator with the smallest code.  Two runs
over the same (p, e) therefore produce identical tables.

The tables come from the factorisation F* = F_p* x {monic codes}.  A
constant scales each base-p digit mod p, so with s = (q-1)/(p-1) and
c = g^s in F_p*, g^(js+i) = c^j ⊙ g^i.  exp comes as a stream of blocks
of its (p-1) x s view (_exp_blocks): row 0, g^0..g^(s-1), from the
doubling kernel; the constants column exp[::s] = c^j in runs, each after
the first the one before times c^_CHUNK mod p; every other row the first
one scaled digitwise.  build_field certifies the stream as it passes
(_certify): the column must be the powers of c mod p, and exactly lim - 1
entries lie below lim = 2T, T = p^(e-1), covering [1, lim).  That makes
exp a bijection onto the units (proof in build_field) with no q-byte map.
build_field writes each block into exp, or with keep_exp=False (the
`field` and `graph-info` commands) keeps none: it holds row 0, the column
and the map of lim bytes, and exp is built through the same stream and
certificate on its first read.  log is built on its first read, not by
build_field: it is scattered only for the codes below max(2T, p), the
units with top digit 0 or 1; the log of every other code aT + l is
log a plus the log of the monic code a^(-1) ⊙ (aT + l) in [T, 2T), a
gather from that block (_build_log).  So a random write into log is paid
2T - 1 times, not q - 1; for e = 1, max(2T, p) = q and both steps reduce
to the kernel and one full scatter.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Element = int

DEFAULT_CAP = 1 << 24
# Tables are int32: codes and logs stay below q.  At q = 2^31 the three
# tables alone would take 24 GiB, so such fields are refused whatever the cap.
MAX_FIELD = 1 << 31


class CapExceeded(ValueError):
    """Requested object is larger than the configured size cap."""


def refuse_huge_power(p: int, e: int) -> None:
    """Refuse the field size p^e before computing it when e alone puts it past 2^31.

    |p| >= 2 makes |p|^e >= 2^e, so e >= 31 is past MAX_FIELD whatever p is.
    The power itself is never built: 3^(10^7) takes seconds, and its digits
    are too many to print.
    """
    if e >= 31 and abs(p) >= 2:
        raise CapExceeded(f"field size {p}^{e} is not below the int32 table limit 2^31")


class NotADivisor(ValueError):
    """Subfield degree that does not divide the extension degree."""


class InvariantError(RuntimeError):
    """A mathematical invariant failed: the tables or the code are broken."""


# --------------------------------------------------------------------------
# integer arithmetic

def primerange(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi), ascending: a sieve of Eratosthenes up to hi."""
    lo = max(lo, 0)
    if hi <= max(lo, 2):
        return []
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(hi - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, hi, i)))
    return list(itertools.compress(range(lo, hi), sieve[lo:]))


# Every prime up to isqrt(MAX_FIELD - 1) = 46340: trial division by these
# factors any m < 2^31 completely.
_PRIMES = primerange(2, math.isqrt(MAX_FIELD - 1) + 1)


def factorize(m: int) -> list[int]:
    """Prime factorization of 1 <= m < 2^31 with multiplicity, ascending.

    factorize(1) == []; factorize(15624) == [2, 2, 2, 3, 3, 7, 31].
    Trial division by the primes up to sqrt(m); the cofactor left over is 1
    or prime.  Arguments of MAX_FIELD = 2^31 or more raise CapExceeded, as
    fields of that size do.
    """
    if m < 1:
        raise ValueError(f"cannot factor {m}: argument must be >= 1")
    if m >= MAX_FIELD:
        raise CapExceeded(f"{m} is not below 2^31, the limit of primality, factoring and tables")
    out: list[int] = []
    for prime in _PRIMES:
        if prime * prime > m:
            break
        while m % prime == 0:
            out.append(prime)
            m //= prime
    if m > 1:
        out.append(m)
    return out


def is_prime(n: int) -> bool:
    """Primality of n < 2^31 by trial division; CapExceeded from 2^31 on."""
    return n >= 2 and factorize(n) == [n]


def divisors(m: int) -> list[int]:
    """All positive divisors of m >= 1, ascending."""
    divs = [1]
    for prime, run in itertools.groupby(factorize(m)):
        powers = [prime**k for k in range(len(list(run)) + 1)]
        divs = [d * pk for d in divs for pk in powers]
    return sorted(divs)


# --------------------------------------------------------------------------
# polynomial arithmetic over F_p
#
# Fixed-length coefficient lists, low degree first.  The modulus is monic of
# degree e and has length e + 1.

def _poly_mul_mod(a: list[int], b: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    e = len(modulus) - 1
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for t in range(e):
                prod[k - e + t] = (prod[k - e + t] - c * modulus[t]) % p
    return prod[:e]


def _poly_pow_mod(a: list[int], k: int, modulus: tuple[int, ...], p: int) -> list[int]:
    e = len(modulus) - 1
    result = [1] + [0] * (e - 1)
    base = list(a)
    while k:
        if k & 1:
            result = _poly_mul_mod(result, base, modulus, p)
        base = _poly_mul_mod(base, base, modulus, p)
        k >>= 1
    return result


def _decode(code: int, p: int, e: int) -> list[int]:
    digits = []
    for _ in range(e):
        code, r = divmod(code, p)
        digits.append(r)
    return digits


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd of a and b in F_p[x], low degree first, without trailing zeros."""
    a, b = list(a), list(b)
    for poly in (a, b):
        while poly and poly[-1] == 0:
            poly.pop()
    while b:
        inv_lead = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv_lead % p
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return a


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Ben-Or: monic f of degree e >= 2 is irreducible over F_p exactly when
    gcd(x^(p^i) - x, f) = 1 for every i <= e/2."""
    e = len(modulus) - 1
    h = [0, 1] + [0] * (e - 2)  # x
    for _ in range(e // 2):
        h = _poly_pow_mod(h, p, modulus, p)  # x^(p^i)
        h_minus_x = list(h)
        h_minus_x[1] = (h_minus_x[1] - 1) % p
        if len(_poly_gcd(modulus, h_minus_x, p)) > 1:
            return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    # Lex order on (c_0, ..., c_{e-1}); candidates with c_0 = 0 have the
    # root 0 and are skipped wholesale.  The base-p digits of k, lowest
    # first, are c_{e-1}, ..., c_0.
    for k in range(p ** (e - 1), p**e):
        modulus = (*reversed(_decode(k, p, e)), 1)
        if _is_irreducible(modulus, p):
            return modulus
    raise RuntimeError(f"no irreducible polynomial of degree {e} over F_{p}")  # unreachable


def _smallest_generator(p: int, e: int, q: int, modulus: tuple[int, ...]) -> int:
    """The smallest code of order q - 1: the first c with c^((q-1)/l) != 1
    for every prime l | q - 1.

    Codes below p are the constants F_p*, whose orders divide p - 1 < q - 1,
    so extension fields start at p.  Candidates are tested in stacked
    batches of 8, 16, 32, ... codes, each by its multiplication matrix M(c)
    (see _mul_matrices): the squares M(c)^(2^j) are formed once and shared
    by every exponent (q-1)/l, which multiplies the digit row of 1 by the
    squares its binary digits select.  int64 stays exact: entries are
    reduced below p, so every sum is at most e * (p-1)^2 < 2^63 for q < 2^31.
    """
    exponents = [(q - 1) // ell for ell in sorted(set(factorize(q - 1)))]
    # selected[j]: the exponents with bit j set, a Python list, so an empty
    # one costs no array test
    selected = [[i for i, k in enumerate(exponents) if k >> j & 1]
                for j in range(max(exponents).bit_length())]
    one = np.eye(1, e, dtype=np.int64)[0]  # digits of 1
    lo, batch = (2 if e == 1 else p), 8
    while lo < q:
        codes = np.arange(lo, min(lo + batch, q), dtype=np.int64)
        square = _mul_matrices(codes, p, modulus)  # M(c)^(2^j) for the current j
        power = np.tile(one, (len(codes), len(exponents), 1))  # digits of c^(k mod 2^j)
        for j, chosen in enumerate(selected):
            if j:
                square = square @ square % p
            if chosen:
                power[:, chosen] = power[:, chosen] @ square % p
        found = np.flatnonzero((power != one).any(axis=2).all(axis=1))
        if found.size:
            return int(codes[found[0]])
        lo, batch = lo + batch, 2 * batch
    raise RuntimeError(f"no generator found for GF({p}^{e})")  # unreachable


# --------------------------------------------------------------------------
# table construction

_CHUNK = 1 << 16  # elements per vectorized pass; bounds the transients
_SEED = 64  # powers _powers takes from a stack of matrix powers


def _mul_matrices(codes: np.ndarray, p: int, modulus: tuple[int, ...]) -> np.ndarray:
    """M(c) for every code c, stacked as an (n, e, e) int64 array.

    Row i of M(c) holds the digits of c * x^i mod f, so digits(a) @ M(c)
    gives the digits of a * c and M(a * b) = M(a) @ M(b), all mod p.  Rows
    follow from the companion shift, the matrix of multiplication by x.
    """
    e = len(modulus) - 1
    shift = np.eye(e, k=1, dtype=np.int64)
    shift[-1] = [(-c) % p for c in modulus[:e]]
    rows = [codes[:, None] // p ** np.arange(e, dtype=np.int64) % p]
    for _ in range(e - 1):
        rows.append(rows[-1] @ shift % p)
    return np.stack(rows, axis=1)


def _digit_rows(codes: np.ndarray, p: int, pow_p: np.ndarray, dtype) -> np.ndarray:
    """The low base-p digits of int32 codes, digit-major as dtype:
    D[i] = codes // p^i % p for i < len(pow_p) - 1, pow_p = p^0, p^1, ...

    Remainders are x - (x // p) * p: numpy divides by a scalar with a
    multiply and shift, but not in `%`.
    """
    quot = codes // pow_p[:, None]
    return (quot[:-1] - quot[1:] * p).astype(dtype)


def _powers(p: int, scale: np.ndarray, out: np.ndarray, pow_p: np.ndarray) -> None:
    """Fill out[k] with the code of b^k in GF(p^e) for every k < len(out),
    given the e x e multiplication matrix scale = M(b) (see _mul_matrices)
    and pow_p = p^0, ..., p^e.  out may be a strided view.

    Seed: the first min(len(out), _SEED) powers are row 0 of the matrix
    powers M(b)^k (row 0 of M(c) holds the digits of c), doubled as a stack
    of matrices.  A seed round costs a few numpy calls whatever e; a
    doubling round below costs about 4e + 9, whatever its length.

    Doubling: once b^0..b^(m-1) are known, the next block is the first one
    scaled by b^m, an F_p-linear map: the matrix M(b^m).  Each round
    squares it: M(b^2m) = M(b^m)^2.  Chunks are decoded digit-major and
    scaled as sum_i M[i] D[i] in the smallest unsigned type holding its
    bound e * (p-1)^2 (uint8 for GF(3^12)).  One reduction mod p follows,
    then a Horner encoding in int32.

    A chunk holds _CHUNK // e rows, so its (e + 1) x rows quotients and
    e x rows digits stay near _CHUNK entries whatever e: 2^16 rows of
    GF(3^12) would need 3.4 MB of int32 quotients alone, more than a
    core's L2 cache, and every decode pass would stream from memory.
    """
    e, n = len(scale), len(out)
    powers = np.eye(e, dtype=np.int64)[None]  # M(b)^0; int64 holds e * (p-1)^2
    while len(powers) < min(n, _SEED):
        powers = np.concatenate([powers, powers @ scale % p])
        scale = scale @ scale % p
    m = min(len(powers), n)
    out[:m] = powers[:m, 0] @ pow_p[:e]
    acc_t = np.min_scalar_type(e * (p - 1) ** 2)
    rows = _CHUNK // e
    while m < n:
        take = min(m, n - m)
        coef = scale.astype(acc_t)[:, :, None]  # coef[i] scales row i of D
        for lo in range(0, take, rows):
            hi = min(lo + rows, take)
            digits = _digit_rows(out[lo:hi], p, pow_p, acc_t)
            acc = coef[0] * digits[0]
            for i in range(1, e):
                acc += coef[i] * digits[i]
            acc = (acc - acc // p * p).astype(np.int32)
            code = acc[-1]
            for i in range(e - 2, -1, -1):
                code = code * p + acc[i]
            out[m + lo : m + hi] = code
        m += take
        scale = scale @ scale % p


Block = tuple[int, int, np.ndarray]  # (j, i, B), as _exp_blocks yields them


def _exp_blocks(p: int, e: int, q: int, modulus: tuple[int, ...], g: int,
                out: np.ndarray | None = None) -> Iterator[Block]:
    """Yield the exp codes g^0, ..., g^(q-2) of GF(p^e), e >= 1, as int32
    blocks of rows = exp.reshape(p-1, s), s = (q-1)/(p-1): each block B
    comes as (j, i, B) with B = rows[j : j + len(B), i : i + B.shape[1]].

    With c = g^s in F_p*, and multiplying by a constant scaling each base-p
    digit mod p, g^(js+i) = c^j ⊙ g^i: row j is row 0 scaled digitwise by
    the column entry c^j.  The blocks, in this order:
    - the first _CHUNK run of the column rows[:, 0] = c^0, c^1, ... from the
      doubling kernel (_powers in GF(p)), so exp[0] and exp[s] come first;
    - row 0 past its column, g^1..g^(s-1), in _CHUNK slices, from the
      doubling kernel for g^0..g^s (g^s = c);
    - the later column runs, each the one before times c^_CHUNK mod p;
    - the digit-scaled blocks rows[j, i] = c^j ⊙ rows[0, i], i >= 1, j >= 1,
      one digit decode per chunk of row 0 and a band of rows at a time.
    For e = 1, s = 1 and the column is the whole table.  A c that is no
    nonzero constant means broken arithmetic and raises InvariantError.

    With out, an int32 array of q - 1 entries, every block is a view of
    out.reshape(p - 1, s), written once and never again.  Without it, the
    producer holds only row 0 and, for e >= 2, the column (p - 1 <= sqrt(q)
    entries); for e = 1 it holds one run, so a block is valid until the
    next one is asked for.
    """
    s = (q - 1) // (p - 1)
    pow_p = p ** np.arange(e + 1, dtype=np.int32)  # p^e = q < MAX_FIELD
    rows = None if out is None else out.reshape(p - 1, s)
    head = np.empty(s + 1, dtype=np.int32) if out is None else out[: s + 1]  # g^0..g^s
    _powers(p, _mul_matrices(np.array([g], dtype=np.int64), p, modulus)[0], head, pow_p)
    c = int(head[s])
    if not 0 < c < p:
        raise InvariantError(f"g^{s} = {c} in GF({p}^{e}) is not a nonzero constant")

    held = rows is not None or e > 1  # the scaled rows read the whole column
    if rows is not None:
        col = rows[:, 0]
    else:
        col = np.empty(p - 1 if held else min(_CHUNK, p - 1), dtype=np.int32)
    run = col[:_CHUNK]
    _powers(p, np.array([[c]]), run, pow_p[:2])  # M(c) in GF(p)
    yield 0, 0, run[:, None]
    for lo in range(1, s, _CHUNK):
        yield 0, lo, head[None, lo : min(lo + _CHUNK, s)]
    step = pow(c, _CHUNK, p)
    for lo in range(_CHUNK, p - 1, _CHUNK):
        nxt = np.multiply(run[: p - 1 - lo], step, dtype=np.int64)  # < p^2 < 2^62
        nxt -= nxt // p * p
        run = col[lo : lo + len(nxt)] if held else run[: len(nxt)]  # else reused
        run[:] = nxt
        yield lo, 0, run[:, None]

    # Digits and constants share a type that holds (p-1)^2, so each product
    # needs one reduction; the Horner encoding runs in int32, every partial
    # value below q < MAX_FIELD.
    mul_t = np.min_scalar_type((p - 1) ** 2)
    width = _CHUNK // e
    for lo in range(1, s, width):
        hi = min(lo + width, s)
        digits = _digit_rows(head[lo:hi], p, pow_p, mul_t)[:, None, :]
        band = max(1, _CHUNK // (e * (hi - lo)))
        for j in range(1, p - 1, band):
            scaled = digits * col[j : j + band, None].astype(mul_t)  # by c^j
            scaled -= scaled // p * p
            if rows is None:
                code = scaled[-1].astype(np.int32)
            else:
                code = rows[j : j + band, lo:hi]
                code[:] = scaled[-1]
            for i in range(e - 2, -1, -1):
                code *= p
                code += scaled[i]
            yield j, lo, code


def _certify(p: int, e: int, q: int, g: int, blocks: Callable[[], Iterable[Block]]) -> None:
    """The order certificate of exp (see build_field), read from one pass
    over blocks(), a stream of exp blocks as _exp_blocks yields them: raise
    InvariantError unless the blocks hold q - 1 entries, p - 1 of them in
    the column col = exp[::s], s = (q-1)/(p-1), exp[0] = 1, exp[1] = g and
    (a) the column holds the powers of c = exp[s] mod p: col[j+1] = c col[j]
        mod p for j < p - 2;
    (b) exactly lim - 1 entries of exp lie below lim = 2T, T = p^(e-1),
        and they cover [1, lim).  For e = 1, lim = 2: 1 occurs once.
    (b) leaves no 0 in exp, so c != 0 and c^(p-1) = 1 mod p by Fermat:
    the column closes up with no check of its own.

    Blocks are read through their uint32 view, so a negative entry lies
    past q.  The column's blocks (i = 0) must come in order of j, the first
    holding col[0] and col[1]; other blocks may come in any order.  Each
    block's entries below lim are picked out and marked in a bool map of
    lim bytes, so no entry past lim costs a write.  (a) runs on each column
    block in the smallest unsigned type that holds c (p-1), the last entry
    of one block carried into the next.  It tests equality, not congruence,
    so from col[0] = 1 on each entry is the residue c^j itself, below p (a
    wrapped product can only follow an earlier failure).  The checks are
    decided after the pass: the entry counts, exp[0] and exp[1], then (b),
    whose message counts every unit that no in-range entry of exp holds, in
    a second pass over blocks(), then (a), whose message names the first
    entry off the powers.
    """
    qm1, s, lim = q - 1, (q - 1) // (p - 1), 2 * (q // p)
    mark = np.zeros(lim, dtype=bool)
    size = below = col_len = 0
    start = [None, None]  # exp[0], exp[1]
    c = prev = slip = None  # slip: the first column entry off the powers
    for j, i, block in blocks():
        codes = block.view(np.uint32)
        size += codes.size
        if codes.flags.c_contiguous:  # a strided block takes the mask: ravel would copy it
            hits = codes.ravel().compress(codes.ravel() < lim)
        else:
            hits = codes[codes < lim]
        below += len(hits)
        mark[hits] = True
        if j == 0 and i <= 1 < i + block.shape[1]:  # s > 1: exp[1] opens row 0
            start[1] = int(block[0, 1 - i])
        if i != 0:
            continue
        if j != col_len:
            raise InvariantError(f"exp column of GF({p}^{e}) resumes at row {j}, not {col_len}")
        run = codes[:, 0]
        col_len += len(run)
        if slip is not None:
            continue
        if c is None:
            start[0] = int(block[0, 0])
            if s == 1:
                start[1] = int(block[1, 0])
            c = int(run[1])
            mul_t = np.min_scalar_type(c * (p - 1))
        elif run[0] != prev * c % p:
            slip = j, int(block[0, 0]), prev * c % p
            continue
        scaled = np.multiply(run[:-1], c, dtype=mul_t)
        scaled -= scaled // p * p
        if not np.array_equal(scaled, run[1:]):
            bad = int(np.flatnonzero(scaled != run[1:])[0])
            slip = j + bad + 1, int(block[bad + 1, 0]), int(scaled[bad])
        prev = int(run[-1])

    if size != qm1 or col_len != p - 1:
        raise InvariantError(
            f"exp blocks of GF({p}^{e}) hold {size} entries, {col_len} in its column, "
            f"not {qm1} and {p - 1}"
        )
    if start != [1, g]:
        raise InvariantError(
            f"exp of GF({p}^{e}) starts {start[0]}, {start[1]}, not g^0, g^1 = 1, {g}"
        )
    if below != lim - 1 or not mark[1:].all():
        seen = np.zeros(q, dtype=bool)
        for _, _, block in blocks():
            codes = block.view(np.uint32)
            seen[codes[codes < q]] = True
        covered = int(np.count_nonzero(seen[1:]))
        raise InvariantError(
            f"g={g} does not generate GF({p}^{e})*: {qm1 - covered} of {qm1} units have no log"
        )
    if slip is not None:
        k, value, expected = slip[0] * s, slip[1], slip[2]
        raise InvariantError(
            f"exp is not the powers of g={g} in GF({p}^{e}): exp[{k}] = {value}, "
            f"not c * exp[{k - s}] = {expected} mod {p} for c = exp[{s}] = {c}"
        )


def _build_log(p: int, e: int, q: int, exp: np.ndarray) -> np.ndarray:
    """The discrete-log table of a certified exp (see _certify), log[0] = -1.

    With T = p^(e-1) and lim = max(2T, p), only the exp entries below lim,
    the units with top digit 0 or 1, are scattered into log: entries past
    lim are clamped onto log[lim], one hot slot that the composition below
    overwrites, so they cost no random write (for e = 1, lim = q and the
    clamp changes nothing).  Every code aT + l with a >= 2 and l < T is
    a ⊙ (T + σ_a(l)), σ_a(l) = a^(-1) ⊙ l, so its log is
    log a + log(T + σ_a(l)) mod (q-1): a gather from the block [T, 2T).
    The certificate makes the scatter cover [1, lim) and the composition
    the rest, so no entry but log[0] needs a fill.  Then exp[log c] = c is
    checked for every composed code c >= lim, _CHUNK at a time, which the
    certificate leaves open for the rows scaled off the column: the first
    failing code raises InvariantError.  Prime fields compose nothing.
    """
    qm1, top = q - 1, q // p  # top = T, the place value of the top digit
    lim = max(2 * top, p)
    log = np.empty(q, dtype=np.int32)
    log[0] = -1
    index = np.empty(min(_CHUNK, qm1), dtype=np.intp)
    for lo in range(0, qm1, _CHUNK):
        hi = min(lo + _CHUNK, qm1)
        log[np.minimum(exp[lo:hi], lim, out=index[: hi - lo])] = np.arange(lo, hi, dtype=np.int32)

    # σ_a maps each digit d of l to π(d) = a^(-1) d mod p.  Per band of a,
    # low[u, r] = σ_u(r) for the r below the top place P = p^(e-2) of l is
    # built digit by digit; a span of top digits d then gives
    # σ_u(d P + r) = π_u(d) P + low[u, r], one broadcast add, and a gather
    # from the monic block.  Every value stays below p^2 <= q < 2^31.
    # Unsigned, log a + log m < 2(q - 1) < 2^32 cannot wrap, and subtracting
    # q - 1 wraps past it exactly when the sum is already reduced.
    blocks = log.reshape(p, top).view(np.uint32)  # blocks[a, l] = log[aT + l]
    first = lim // top  # 2 for e >= 2; p for e = 1, where nothing is left to compose
    logs = blocks[0, first:p, None]  # log a for the constants a >= first
    inverses = exp[qm1 - logs]  # a^(-1), a column
    place = top // p  # P
    band = max(1, _CHUNK // top)
    for a in range(first, p, band):
        k = slice(a - first, a - first + band)
        perm = inverses[k] * np.arange(p, dtype=np.int32)
        perm -= perm // p * p  # perm[u, d] = π_u(d)
        n = len(perm)
        low = np.zeros((n, 1), dtype=np.int32)
        for i in range(e - 2):
            low = (perm[:, :, None] * p**i + low[:, None, :]).reshape(n, -1)
        perm *= place
        span = max(1, _CHUNK // (n * place))
        for d in range(0, p, span):
            dst = blocks[a : a + n, d * place : (d + span) * place]
            sigma = (perm[:, d : d + span, None] + low[:, None, :]).reshape(dst.shape)
            np.take(blocks[1], sigma, out=dst, mode="clip")  # sigma < T: clip never acts
            dst += logs[k]
            np.minimum(dst, dst - qm1, out=dst)

    for lo in range(lim, q, _CHUNK):  # exp[log c] = c, c >= lim: see the docstring
        got = exp[log[lo : lo + _CHUNK]]
        bad = np.flatnonzero(got != np.arange(lo, lo + len(got), dtype=np.int32))
        if bad.size:
            c = lo + int(bad[0])
            raise InvariantError(f"exp of GF({p}^{e}) is not the powers of g: code {c} has the "
                                 f"composed log {log[c]}, but exp[{log[c]}] = {exp[log[c]]}")
    return log


@dataclass(frozen=True)
class FieldParams:
    """Construction parameters: characteristic, degree and reducing polynomial."""

    p: int
    e: int
    modulus: tuple[int, ...]  # length e + 1, monic, low degree first


class FieldTable:
    """Tables for GF(p^e), immutable once built via build_field, with the
    scalar sum add and the subfield queries below.

    Attributes
    ----------
    params : FieldParams
    p, e, q : int
        Characteristic, extension degree, field size p^e.
    g : int
        Code of the primitive root the tables are based on.
    exp : int32 ndarray, shape (q-1,)
        exp[k] is the code of g^k.  Certified by build_field, which keeps
        it unless told keep_exp=False; then it is built through the same
        certificate on the first read.
    log : int32 ndarray, shape (q,)
        Discrete log base g; log[0] = -1 is a sentinel, never a valid log.
        Built from the certified exp on the first read, not by build_field.
    zech : int32 ndarray, shape (q-1,)
        Zech logarithm: zech[k] = log(1 + g^k), so zech[(q-1)/2] = -1 marks
        1 + g^k = 0.  Built on the first addition, not by build_field.
    exp_view, log_view, zech_view : memoryview
        Read-only views of the same three tables, for the scalar add and
        other scalar reads: indexing one returns a Python int.  Each array is read back from its view
        (memoryview.obj), so a table and its view cannot disagree, and
        exp, log and zech cannot be rebound.

    The tables take 4 bytes per element after build_field (none with
    keep_exp=False), 8 once log is read and 12 once zech is built; the
    views share their memory.  A log passed to the constructor is used as
    given, unchecked: that is how tests build corrupt tables.
    """

    def __init__(self, params: FieldParams, g: int, exp: np.ndarray | None = None,
                 log: np.ndarray | None = None):
        self.params = params
        self.p = params.p
        self.e = params.e
        self.q = params.p**params.e
        self.qm1 = self.q - 1
        self.g = g
        if exp is not None:
            exp.setflags(write=False)
            self.exp_view = memoryview(exp)  # shadows the cached_property
        if log is not None:
            log.setflags(write=False)
            self.log_view = memoryview(log)  # shadows the cached_property

    @property
    def exp(self) -> np.ndarray:
        return self.exp_view.obj

    @cached_property
    def exp_view(self) -> memoryview:
        """exp, built and certified on first use when build_field kept none."""
        exp = _certified_exp(self.p, self.e, self.q, self.params.modulus, self.g, keep=True)
        exp.setflags(write=False)
        return memoryview(exp)

    @property
    def log(self) -> np.ndarray:
        return self.log_view.obj

    @cached_property
    def log_view(self) -> memoryview:
        """log, built on first use by _build_log from the certified exp."""
        log = _build_log(self.p, self.e, self.q, self.exp)
        log.setflags(write=False)
        return memoryview(log)

    def __repr__(self) -> str:
        return f"FieldTable(GF({self.p}^{self.e}))"

    @property
    def zech(self) -> np.ndarray:
        return self.zech_view.obj

    @cached_property
    def zech_view(self) -> memoryview:
        """zech[k] = log(1 + g^k), built in chunks on first use.

        1 + x only bumps the constant digit of x's code, wrapping p - 1 to
        0: the codes y = x + 1 with y mod p == 0 lose p again.  The
        remainder is taken as y - (y // p) * p, as in _exp_blocks: numpy
        divides by a scalar with a multiply and shift, but not in `%`.  The
        wrap subtracts p times the 0/1 mask rather than through it, and the
        lookup writes into zech directly: no masked scatter, no copy.
        """
        p = self.p
        zech = np.empty(self.qm1, dtype=np.int32)
        for lo in range(0, self.qm1, _CHUNK):
            plus_one = self.exp[lo : lo + _CHUNK] + 1
            plus_one -= p * (plus_one - plus_one // p * p == 0)
            np.take(self.log, plus_one, out=zech[lo : lo + _CHUNK])
        zech.setflags(write=False)
        return memoryview(zech)

    def add(self, a: Element, b: Element) -> Element:
        if a == 0 or b == 0:
            return a + b
        log, qm1 = self.log_view, self.qm1
        la = log[a]
        z = self.zech_view[(log[b] - la) % qm1]
        return 0 if z < 0 else self.exp_view[(la + z) % qm1]

    # ------------------------------------------------------------ subfields

    def subfield_step(self, r: int) -> int:
        """(q-1)/(p^r-1), the log of a generator of F_{p^r}*; requires r | e."""
        if r < 1 or self.e % r != 0:
            raise NotADivisor(f"r={r} does not divide e={self.e}")
        return self.qm1 // (self.p**r - 1)

    def subfield_elements(self, r: int) -> tuple[Element, ...]:
        """The subfield F_{p^r} as a sorted tuple of codes; requires r | e.

        Nonzero subfield elements are exactly the powers g^(k * subfield_step(r)).
        """
        codes = self.exp[:: self.subfield_step(r)]
        if len(codes) != self.p**r - 1:
            raise InvariantError(
                f"exp table of length {len(self.exp)} yields {len(codes)} units "
                f"of F_{{{self.p}^{r}}}, not {self.p**r - 1}"
            )
        return tuple(sorted([0] + [int(c) for c in codes]))

    def degree_over_base(self, theta: Element, r: int) -> int:
        """Degree of F_{p^r}(theta) over F_{p^r}: least m with theta^(p^(r m)) = theta."""
        if r < 1 or self.e % r != 0:
            raise NotADivisor(f"r={r} does not divide e={self.e}")
        if theta == 0:
            return 1
        k = self.log_view[theta]
        n_over = self.e // r
        for m in range(1, n_over + 1):
            if n_over % m == 0 and (k * pow(self.p, r * m, self.qm1)) % self.qm1 == k:
                return m
        raise RuntimeError("Frobenius orbit did not close")  # unreachable

    def full_degree_elements(self, r: int) -> np.ndarray:
        """Nonzero codes theta, ascending, with F_{p^r}(theta) the whole field; requires r | e.

        0 has degree 1, so for r < e no theta is left out.  A unit theta has
        degree n = e/r over F_{p^r} exactly when it lies in no field
        F_{p^(r n / l)} for a prime l | n, that is, when its log is a multiple
        of none of those subfields' steps.  degree_over_base(theta, r) == n
        is the same test, one code at a time.
        """
        if r < 1 or self.e % r != 0:
            raise NotADivisor(f"r={r} does not divide e={self.e}")
        n = self.e // r
        units = self.log[1:]  # the logs of the codes 1 .. q-1
        valid = np.ones(self.qm1, dtype=bool)
        for ell in set(factorize(n)):
            valid &= units % self.subfield_step(r * n // ell) != 0
        return np.flatnonzero(valid) + 1

    # --------------------------------------------------------------- output

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "e": self.e,
            "modulus": list(self.params.modulus),
            "g": self.g,
        }


FIELD_SCHEMA = {
    "type": "object",
    "required": ["p", "e", "modulus", "g"],
    "properties": {
        "p": {"type": "integer", "minimum": 3},
        "e": {"type": "integer", "minimum": 1},
        "modulus": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "g": {"type": "integer", "minimum": 2},
    },
    "additionalProperties": False,
}


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name}={value!r} is not an integer") from None


def _certified_exp(p: int, e: int, q: int, modulus: tuple[int, ...], g: int,
                   *, keep: bool) -> np.ndarray | None:
    """One pass of _exp_blocks through _certify: the certified exp when
    keep, else None, with no table held past a block."""
    exp = np.empty(q - 1, dtype=np.int32) if keep else None
    _certify(p, e, q, g, lambda: _exp_blocks(p, e, q, modulus, g, exp))
    return exp


def build_field(p: int, e: int, *, cap: int = DEFAULT_CAP, keep_exp: bool = True) -> FieldTable:
    """Build the tables for GF(p^e); p an odd prime, e >= 1, p^e <= cap.

    p and e may be any integer type, numpy's included (operator.index);
    anything else, 3.0 say, raises TypeError.  Fields of MAX_FIELD = 2^31
    elements or more are refused whatever the cap.  keep_exp=False makes
    the same pass over exp and certificate but stores no block, for callers
    that need only p, e, the modulus and g; exp is then built, through the
    same stream and certificate, on its first read.

    Certificate.  _exp_blocks yields exp[js+i] = c^j ⊙ exp[i] for i < s =
    (q-1)/(p-1) and j < p-1, with exp[0..s] = g^0..g^s from the doubling
    kernel and the column exp[::s] as runs of powers of c = g^s.  _certify,
    run on every build over every block of that stream as it passes, kept
    or not, raises InvariantError unless the blocks hold q - 1 entries,
    exp[0] = 1, exp[1] = g, the column exp[::s] is c^0, ..., c^(p-2) mod p
    for c = exp[s], and exactly lim - 1 entries of exp lie below lim = 2T,
    T = p^(e-1), and cover [1, lim).  The codes below lim are the units
    with top digit 0 or 1, so each of those occurs in exp exactly once, and
    0 nowhere.
    That makes exp a bijection onto the q - 1 units:
    - for e = 1, s = 1 and lim = 2: the column is all of exp and c = g,
      so exp[k] = g^k mod p is read off the table itself, and 1 = g^0
      occurs once, so g has order p - 1.  Nothing of the construction is
      assumed.
    - for e >= 2 the p - 1 constants c^j = exp[js] lie below p < lim, so
      they are distinct: c generates F_p*.  A unit u with top digit a != 0
      has the monic a^(-1) ⊙ u, which occurs as exp[js+i] = c^j ⊙ exp[i];
      picking j' with c^j' = a c^j, u = c^j' ⊙ exp[i] = exp[j's+i].  Units
      with top digit 0 occur directly, so all q - 1 units occur among the
      q - 1 entries.  The scaled rows off the column are taken as built
      here: one of their entries past lim, changed to another past lim,
      passes the certificate, and the first read of log refuses it.
    So the g^k = exp[k], k < q-1, are distinct and g generates GF(p^e)*.
    log, built on its first read by _build_log, is exp's inverse on the
    scattered codes, and it checks exp[log c] = c on every composed code c,
    so log is exp's inverse on every unit.  Conversely, a
    collision in exp[0:s] repeats a whole column and a c of order below
    p - 1 repeats the constants (for e = 1, a g of order below p - 1
    repeats 1), so a code below lim is hit twice, and lim - 1 entries
    below lim cannot cover [1, lim).  exp is read-only from here on, and
    exp built on a first read passes the same certificate, so it holds for
    every later read of log and every Zech lookup: it guards addition too.
    """
    p, e = _integer("p", p), _integer("e", e)
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p == 2:
        raise ValueError("p must be an odd prime")
    if e < 1:
        raise ValueError(f"extension degree e={e} must be >= 1")
    refuse_huge_power(p, e)
    q = p**e
    if q >= MAX_FIELD:
        raise CapExceeded(f"field size {p}^{e} = {q} is not below the int32 table limit 2^31")
    if q > cap:
        raise CapExceeded(f"field size {p}^{e} = {q} exceeds cap {cap}")

    modulus = (0, 1) if e == 1 else _smallest_irreducible(p, e)
    g = _smallest_generator(p, e, q, modulus)

    exp = _certified_exp(p, e, q, tuple(modulus), g, keep=keep_exp)
    return FieldTable(FieldParams(p, e, tuple(modulus)), g, exp)

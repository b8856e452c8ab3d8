"""Exact arithmetic for GF(p^e) backed by discrete-log tables.

An element of GF(p^e) is an integer code in [0, q), q = p^e, packing the
coefficients of its polynomial representative as base-p digits, constant
coefficient least significant.  A FieldTable carries exp/log tables for
the full multiplicative group, so products, inverses and powers are O(1)
lookups.  Addition is a lookup too, in the log domain: with Zech logarithms
Z[k] = log(1 + g^k), log(a + b) = log a + Z[log b - log a] (Huber, "Some
comments on Zech's logarithms", IEEE Trans. IT 36(4), 1990; the lookup
mode of the galois library, https://github.com/mhostetter/galois, keeps
the same three tables).  Prime and extension fields share every method.
Scalar operations index zero-copy read-only memoryviews of the same
tables, so each lookup is one buffer read, not an ndarray method call;
vectorized operations index the arrays.

Construction is deterministic: the reducing polynomial is the
lexicographically smallest monic irreducible of its degree (coefficient
vectors compared from the constant term upward; irreducibility in GF(p)[x]
is Ben-Or's test, "Probabilistic algorithms in finite fields", FOCS 1981)
and the primitive root is the generator with the smallest code.  Two runs
over the same (p, e) therefore produce identical tables.

The tables come from the factorisation F* = F_p* x {monic codes}.  A
constant scales each base-p digit mod p, so with s = (q-1)/(p-1) and
c = g^s in F_p*, g^(js+i) = c^j ⊙ g^i: exp is built by the doubling
kernel for g^0..g^s and the powers of c only, every other row of s
entries being the first one scaled digitwise (_build_exp).  log is
scattered only for the codes below lim = max(2T, p), T = p^(e-1), that
is the units with top digit 0 or 1; the log of every other code aT + l
is log a plus the log of the monic code a^(-1) ⊙ (aT + l) in [T, 2T), a
gather from that block (_build_log).  So a random write into log is
paid 2T - 1 times, not q - 1; for e = 1, lim = q and both steps reduce
to the kernel and one full scatter.  The order certificate, exactly
lim - 1 entries of exp below lim covering [1, lim), makes exp a
bijection onto the units and log its inverse (proof in build_field).
"""

from __future__ import annotations

import itertools
import math
import operator
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


def _build_exp(p: int, e: int, q: int, modulus: tuple[int, ...], g: int) -> np.ndarray:
    """Return the exp codes g^0, ..., g^(q-2) of GF(p^e), e >= 1, as int32.

    With s = (q-1)/(p-1), c = g^s lies in F_p*, and multiplying by a
    constant scales each base-p digit mod p, so g^(js+i) = c^j ⊙ g^i.  Read
    as a (p-1) x s array, row j of the table is row 0 scaled digitwise by
    c^j.  So _powers runs only for g^0..g^s and then, in GF(p), for the
    p - 1 powers of c, the column exp[::s]; every other column is decoded
    once per chunk and scaled, a band of rows at a time.  For e = 1, s = 1:
    the second run is the doubling over the whole table, which is all
    constants, and there are no other columns.  A c that is no nonzero
    constant means broken arithmetic and raises InvariantError.
    """
    s = (q - 1) // (p - 1)
    exp = np.empty(q - 1, dtype=np.int32)
    pow_p = p ** np.arange(e + 1, dtype=np.int32)  # p^e = q < MAX_FIELD
    _powers(p, _mul_matrices(np.array([g], dtype=np.int64), p, modulus)[0], exp[: s + 1], pow_p)
    c = int(exp[s])
    if not 0 < c < p:
        raise InvariantError(f"g^{s} = {c} in GF({p}^{e}) is not a nonzero constant")
    rows = exp.reshape(p - 1, s)
    _powers(p, np.array([[c]]), rows[:, 0], pow_p[:2])  # M(c) in GF(p)
    # Digits and constants share a type that holds (p-1)^2, so each product
    # needs one reduction; the Horner encoding runs in int32, every partial
    # value below q < MAX_FIELD.
    mul_t = np.min_scalar_type((p - 1) ** 2)
    width = _CHUNK // e
    for lo in range(1, s, width):
        hi = min(lo + width, s)
        digits = _digit_rows(exp[lo:hi], p, pow_p, mul_t)[:, None, :]
        band = max(1, _CHUNK // (e * (hi - lo)))
        for j in range(1, p - 1, band):
            scaled = digits * rows[j : j + band, :1].astype(mul_t)  # by c^j
            scaled -= scaled // p * p
            code = rows[j : j + band, lo:hi]
            code[:] = scaled[-1]
            for i in range(e - 2, -1, -1):
                code *= p
                code += scaled[i]
    return exp


def _build_log(p: int, e: int, q: int, g: int, exp: np.ndarray) -> np.ndarray:
    """The discrete-log table of exp (see build_field), log[0] = -1.

    With T = p^(e-1) and lim = max(2T, p), only the exp entries below lim,
    the units with top digit 0 or 1, are scattered into log: entries past
    lim are clamped onto log[lim], one hot slot that the composition below
    overwrites, so they cost no random write (for e = 1, lim = q and the
    clamp changes nothing).  Every code aT + l with a >= 2 and l < T is
    a ⊙ (T + σ_a(l)), σ_a(l) = a^(-1) ⊙ l, so its log is
    log a + log(T + σ_a(l)) mod (q-1): a gather from the block [T, 2T).

    Raises InvariantError unless exactly lim - 1 entries fall below lim and
    cover [1, lim); build_field proves that this makes exp a bijection onto
    the units and log its inverse.  The message counts every unit missing
    from exp.
    """
    qm1, top = q - 1, q // p  # top = T, the place value of the top digit
    lim = max(2 * top, p)
    log = np.empty(q, dtype=np.int32)
    log[:lim] = -1
    below = 0
    index = np.empty(min(_CHUNK, qm1), dtype=np.intp)
    for lo in range(0, qm1, _CHUNK):
        hi = min(lo + _CHUNK, qm1)
        below += np.count_nonzero(exp[lo:hi] < lim)
        log[np.minimum(exp[lo:hi], lim, out=index[: hi - lo])] = np.arange(lo, hi, dtype=np.int32)
    if int(exp[0]) != 1 or int(log[1]) != 0 or below != lim - 1 or log[1:lim].min() < 0:
        covered = int(np.count_nonzero(np.bincount(exp, minlength=q)[1:]))
        raise InvariantError(
            f"g={g} does not generate GF({p}^{e})*: {qm1 - covered} of {qm1} units have no log"
        )

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
    return log


@dataclass(frozen=True)
class FieldParams:
    """Construction parameters: characteristic, degree and reducing polynomial."""

    p: int
    e: int
    modulus: tuple[int, ...]  # length e + 1, monic, low degree first


class FieldTable:
    """Arithmetic tables for GF(p^e); immutable once built via build_field.

    Attributes
    ----------
    params : FieldParams
    p, e, q : int
        Characteristic, extension degree, field size p^e.
    g : int
        Code of the primitive root the tables are based on.
    exp : int32 ndarray, shape (q-1,)
        exp[k] is the code of g^k.
    log : int32 ndarray, shape (q,)
        Discrete log base g; log[0] = -1 is a sentinel, never a valid log.
    zech : int32 ndarray, shape (q-1,)
        Zech logarithm: zech[k] = log(1 + g^k), so zech[(q-1)/2] = -1 marks
        1 + g^k = 0.  Built on the first addition, not by build_field.
    exp_view, log_view, zech_view : memoryview
        Read-only views of the same three tables, for scalar reads: indexing
        one returns a Python int.  Each array is read back from its view
        (memoryview.obj), so a table and its view cannot disagree, and
        exp, log and zech cannot be rebound.

    The three tables take 12 bytes per element once zech is built; the
    views share their memory.
    """

    def __init__(self, params: FieldParams, g: int, exp: np.ndarray, log: np.ndarray):
        self.params = params
        self.p = params.p
        self.e = params.e
        self.q = params.p**params.e
        self.qm1 = self.q - 1
        self.g = g
        for arr in (exp, log):
            arr.setflags(write=False)
        self.exp_view = memoryview(exp)
        self.log_view = memoryview(log)

    @property
    def exp(self) -> np.ndarray:
        return self.exp_view.obj

    @property
    def log(self) -> np.ndarray:
        return self.log_view.obj

    def __repr__(self) -> str:
        return f"FieldTable(GF({self.p}^{self.e}))"

    # ------------------------------------------------------------- elements

    def elements(self) -> range:
        return range(self.q)

    @property
    def zech(self) -> np.ndarray:
        return self.zech_view.obj

    @cached_property
    def zech_view(self) -> memoryview:
        """zech[k] = log(1 + g^k), built in chunks on first use.

        1 + x only bumps the constant digit of x's code, wrapping p - 1 to
        0: the codes y = x + 1 with y mod p == 0 lose p again.  The
        remainder is taken as y - (y // p) * p, as in _build_exp: numpy
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

    def neg(self, a: Element) -> Element:
        if a == 0:
            return 0
        return self.exp_view[(self.log_view[a] + self.qm1 // 2) % self.qm1]

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def mul(self, a: Element, b: Element) -> Element:
        if a == 0 or b == 0:
            return 0
        log = self.log_view
        return self.exp_view[(log[a] + log[b]) % self.qm1]

    def inv(self, a: Element) -> Element:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.exp_view[-self.log_view[a] % self.qm1]

    def pow(self, a: Element, k: int) -> Element:
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise ZeroDivisionError("0 cannot be raised to a negative power")
        return self.exp_view[self.log_view[a] * k % self.qm1]

    # ------------------------------------------------------- vectorized ops

    def add_many(self, codes: np.ndarray, c: Element) -> np.ndarray:
        """Codes of x + c for every x in codes.

        For c = 0 the result is a read-only view of codes: no table pass.
        """
        if c == 0:
            same = codes.view()
            same.setflags(write=False)
            return same
        la = self.log[codes]
        z = self.zech[(self.log_view[c] - la) % self.qm1]
        out = self.exp[np.add(la, z, dtype=np.int64) % self.qm1]  # la + z can pass 2^31
        out[z < 0] = 0  # x = -c
        out[codes == 0] = c
        return out

    def sub_many(self, codes: np.ndarray, c: Element) -> np.ndarray:
        """Codes of x - c for every x in codes."""
        return self.add_many(codes, self.neg(c))

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


def build_field(p: int, e: int, *, cap: int = DEFAULT_CAP) -> FieldTable:
    """Build the tables for GF(p^e); p an odd prime, e >= 1, p^e <= cap.

    p and e may be any integer type, numpy's included (operator.index);
    anything else, 3.0 say, raises TypeError.  Fields of MAX_FIELD = 2^31
    elements or more are refused whatever the cap.

    Certificate.  _build_exp gives exp[js+i] = c^j ⊙ exp[i] for i < s =
    (q-1)/(p-1) and j < p-1, with exp[0..s] = g^0..g^s and the powers of
    c = g^s from the doubling kernel.  _build_log raises InvariantError
    unless exactly lim - 1 entries of exp lie below lim = max(2T, p),
    T = p^(e-1), and cover [1, lim).  The codes below lim are the units
    with top digit 0 or 1 (all units for e = 1), so each of those occurs
    in exp exactly once.  That makes exp a bijection onto the q - 1 units:
    - for e = 1, lim = q and this is the claim;
    - for e >= 2 the p - 1 constants c^j = exp[js] lie below p < lim, so
      they are distinct: c generates F_p*.  A unit u with top digit a != 0
      has the monic a^(-1) ⊙ u, which occurs as exp[js+i] = c^j ⊙ exp[i];
      picking j' with c^j' = a c^j, u = c^j' ⊙ exp[i] = exp[j's+i].  Units
      with top digit 0 occur directly, so all q - 1 units occur among the
      q - 1 entries.
    So the g^k = exp[k], k < q-1, are distinct and g generates GF(p^e)*.
    log, exp's inverse on [1, lim) by the scatter, is its inverse on every
    unit: exp[log a + log m] = a m for the composed log(aT + l) =
    log a + log(T + σ_a(l)).  Conversely, a collision in exp[0:s] repeats a
    whole column and a c of order below p - 1 repeats the constants, so a
    code below lim (a monic code or a constant) is hit twice, and lim - 1
    entries below lim cannot cover [1, lim).  Every Zech lookup reads log,
    so the certificate also guards addition.
    """
    p, e = _integer("p", p), _integer("e", e)
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p == 2:
        raise ValueError("p must be an odd prime")
    if e < 1:
        raise ValueError(f"extension degree e={e} must be >= 1")
    q = p**e
    if q >= MAX_FIELD:
        raise CapExceeded(f"field size {p}^{e} = {q} is not below the int32 table limit 2^31")
    if q > cap:
        raise CapExceeded(f"field size {p}^{e} = {q} exceeds cap {cap}")

    modulus = (0, 1) if e == 1 else _smallest_irreducible(p, e)
    g = _smallest_generator(p, e, q, modulus)

    exp = _build_exp(p, e, q, modulus, g)
    log = _build_log(p, e, q, g, exp)
    return FieldTable(FieldParams(p, e, tuple(modulus)), g, exp, log)

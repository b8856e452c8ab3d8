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
"""

from __future__ import annotations

import itertools
import math
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
    bits = np.array([[k >> j & 1 for k in exponents] for j in range(max(exponents).bit_length())],
                    dtype=bool)  # bits[j, l]: bit j of exponent l
    one = np.eye(1, e, dtype=np.int64)[0]  # digits of 1
    lo, batch = (2 if e == 1 else p), 8
    while lo < q:
        codes = np.arange(lo, min(lo + batch, q), dtype=np.int64)
        square = _mul_matrices(codes, p, modulus)  # M(c)^(2^j) for the current j
        power = np.tile(one, (len(codes), len(exponents), 1))  # digits of c^(k mod 2^j)
        for j, selected in enumerate(bits):
            if j:
                square = square @ square % p
            if selected.any():
                power[:, selected] = power[:, selected] @ square % p
        found = np.flatnonzero((power != one).any(axis=2).all(axis=1))
        if found.size:
            return int(codes[found[0]])
        lo, batch = lo + batch, 2 * batch
    raise RuntimeError(f"no generator found for GF({p}^{e})")  # unreachable


# --------------------------------------------------------------------------
# table construction

_CHUNK = 1 << 16  # elements per vectorized pass; bounds the transients


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


def _build_exp(p: int, e: int, q: int, modulus: tuple[int, ...], g: int) -> np.ndarray:
    """Return the exp codes g^0, ..., g^(q-2) of GF(p^e), e >= 1, as int32.

    Doubling: once g^0..g^(m-1) are known, the next block is the first one
    scaled by b = g^m, an F_p-linear map: the multiplication matrix M(b)
    (see _mul_matrices).  Each round squares it: M(b^2) = M(b)^2.  Chunks
    are decoded digit-major, D[i] = exp // p^i % p, and scaled as
    sum_i M[i] D[i] in the smallest unsigned type holding its bound
    e * (p-1)^2 (uint8 for GF(3^12)).  One reduction mod p follows, then a
    Horner encoding in int32, every partial value below q < MAX_FIELD.
    Remainders are x - (x // p) * p: numpy divides by a scalar with a
    multiply and shift, but not in `%`.

    A chunk holds _CHUNK // e rows, so its (e + 1) x rows quotients and
    e x rows digits stay near _CHUNK entries whatever e: 2^16 rows of
    GF(3^12) would need 3.4 MB of int32 quotients alone, more than a
    core's L2 cache, and every decode pass would stream from memory.
    """
    pow_p = p ** np.arange(e + 1, dtype=np.int32)  # p^e = q < MAX_FIELD
    acc_t = np.min_scalar_type(e * (p - 1) ** 2)
    scale = _mul_matrices(np.array([g], dtype=np.int64), p, modulus)[0]  # M(g^m), m = 1
    rows = _CHUNK // e
    exp = np.empty(q - 1, dtype=np.int32)
    exp[0] = 1
    m = 1
    while m < q - 1:
        take = min(m, q - 1 - m)
        coef = scale.astype(acc_t)[:, :, None]  # coef[i] scales row i of D
        for lo in range(0, take, rows):
            hi = min(lo + rows, take)
            quot = exp[lo:hi] // pow_p[:, None]
            digits = (quot[:-1] - quot[1:] * p).astype(acc_t)
            acc = coef[0] * digits[0]
            for i in range(1, e):
                acc += coef[i] * digits[i]
            acc = (acc - acc // p * p).astype(np.int32)
            code = acc[-1]
            for i in range(e - 2, -1, -1):
                code = code * p + acc[i]
            exp[m + lo : m + hi] = code
        m += take
        scale = scale @ scale % p
    return exp


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


def build_field(p: int, e: int, *, cap: int = DEFAULT_CAP) -> FieldTable:
    """Build the tables for GF(p^e); p an odd prime, e >= 1, p^e <= cap.

    Fields of MAX_FIELD = 2^31 elements or more are refused whatever the cap.
    """
    if not isinstance(p, int) or not is_prime(p):
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

    log = np.full(q, -1, dtype=np.int32)
    for lo in range(0, q - 1, _CHUNK):
        hi = min(lo + _CHUNK, q - 1)
        log[exp[lo:hi].astype(np.intp)] = np.arange(lo, hi, dtype=np.int32)
    # Coverage doubles as an order certificate: a non-generator would revisit
    # codes and leave gaps.  Every Zech lookup reads log, so this also
    # guards addition.
    missing = int(np.count_nonzero(log == -1)) - 1
    if int(exp[0]) != 1 or int(log[1]) != 0 or missing:
        raise InvariantError(
            f"g={g} does not generate GF({p}^{e})*: {missing} of {q - 1} units have no log"
        )

    return FieldTable(FieldParams(p, e, tuple(modulus)), g, exp, log)

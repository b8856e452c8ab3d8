"""Exact arithmetic for GF(p^e) backed by discrete-log tables.

An element of GF(p^e) is an integer code in [0, q), q = p^e, packing the
coefficients of its polynomial representative as base-p digits, constant
coefficient least significant.  A FieldTable carries exp/log tables for
the full multiplicative group, so products, inverses and powers are O(1)
lookups; addition works digitwise on codes.

Construction is deterministic: the reducing polynomial is the
lexicographically smallest monic irreducible of its degree (coefficient
vectors compared from the constant term upward) and the primitive root is
the generator with the smallest code.  Two runs over the same (p, e)
therefore produce identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy

Element = int

DEFAULT_CAP = 1 << 24


class CapExceeded(ValueError):
    """Requested object is larger than the configured size cap."""


class NotADivisor(ValueError):
    """Subfield degree that does not divide the extension degree."""


class InvariantError(RuntimeError):
    """A mathematical invariant failed: the tables or the code are broken."""


def factorize(m: int) -> list[int]:
    """Prime factorization of m with multiplicity, ascending.

    factorize(1) == []; factorize(15624) == [2, 2, 2, 3, 3, 7, 31].
    """
    if m < 1:
        raise ValueError(f"cannot factor {m}: argument must be >= 1")
    if m > 1 << 48:
        raise CapExceeded(f"{m} exceeds the 2^48 factorization budget")
    out: list[int] = []
    for prime, mult in sorted(sympy.factorint(m).items()):
        out.extend([int(prime)] * mult)
    return out


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


def _trimmed(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_gcd(u: list[int], v: list[int], p: int) -> list[int]:
    u = _trimmed(list(u))
    v = _trimmed(list(v))
    while v:
        inv_lc = pow(v[-1], -1, p)
        dv = len(v) - 1
        r = list(u)
        _trimmed(r)
        while r and len(r) - 1 >= dv:
            c = (r[-1] * inv_lc) % p
            shift = len(r) - 1 - dv
            for t in range(dv + 1):
                r[shift + t] = (r[shift + t] - c * v[t]) % p
            _trimmed(r)
        u, v = v, r
    return u


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin test: root screen, then Frobenius/gcd on x^(p^k) mod f."""
    e = len(f) - 1
    if e == 1:
        return True
    if f[0] == 0:
        return False
    for c in range(p):
        acc = 0
        for coeff in reversed(f):
            acc = (acc * c + coeff) % p
        if acc == 0:
            return False
    modulus = tuple(f)
    x = [0, 1] + [0] * (e - 2)
    checkpoints = {e // ell for ell in set(factorize(e))}
    pw = list(x)
    for i in range(1, e + 1):
        pw = _poly_pow_mod(pw, p, modulus, p)
        if i in checkpoints and i < e:
            diff = [(pa - pb) % p for pa, pb in zip(pw, x)]
            g = _poly_gcd(diff, list(f), p)
            if len(g) != 1:
                return False
    return pw == x


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    # Lex order on (c_0, ..., c_{e-1}); candidates with c_0 = 0 have the
    # root 0 and are skipped wholesale.
    for k in range(p ** (e - 1), p**e):
        rem = k
        coeffs = []
        for i in range(e - 1, -1, -1):
            div = p**i
            coeffs.append(rem // div)
            rem %= div
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError(f"no irreducible polynomial of degree {e} over F_{p}")  # unreachable


def _decode(code: int, p: int, e: int) -> list[int]:
    digits = []
    for _ in range(e):
        code, r = divmod(code, p)
        digits.append(r)
    return digits


def _smallest_generator(p: int, e: int, q: int, modulus: tuple[int, ...]) -> int:
    one = [1] + [0] * (e - 1)
    prime_factors = sorted(set(factorize(q - 1)))
    for code in range(2, q):
        a = _decode(code, p, e)
        if all(_poly_pow_mod(a, (q - 1) // ell, modulus, p) != one for ell in prime_factors):
            return code
    raise RuntimeError(f"no generator found for GF({p}^{e})")  # unreachable


# --------------------------------------------------------------------------
# table construction

def _build_exp_prime(p: int, g: int) -> np.ndarray:
    # Doubling: once g^0..g^(m-1) are known, the next block is a single
    # vectorized scaling by g^m.
    exp = np.empty(p - 1, dtype=np.int64)
    exp[0] = 1
    m = 1
    while m < p - 1:
        take = min(m, p - 1 - m)
        b = (int(exp[m - 1]) * g) % p
        exp[m : m + take] = (exp[:take] * b) % p
        m += take
    return exp


def _build_exp_extension(
    p: int, e: int, q: int, modulus: tuple[int, ...], g: int
) -> tuple[np.ndarray, np.ndarray]:
    """Return (exp codes, digit table indexed by code) for GF(p^e), e >= 2.

    Same doubling scheme as the prime case, but blocks are digit matrices
    and the scaling is a polynomial multiplication followed by column-wise
    reduction by the modulus.  p <= 2^12 whenever e >= 2 fits the cap, so
    int32 intermediates cannot overflow.
    """
    neg_mod = np.array([(-c) % p for c in modulus[:e]], dtype=np.int32)
    g_digits = _decode(g, p, e)
    exp_digits = np.zeros((q - 1, e), dtype=np.int16)
    exp_digits[0, 0] = 1
    m = 1
    while m < q - 1:
        take = min(m, q - 1 - m)
        b = (
            _poly_mul_mod(list(map(int, exp_digits[m - 1])), g_digits, modulus, p)
            if m > 1
            else g_digits
        )
        block = exp_digits[:take].astype(np.int32)
        prod = np.zeros((take, 2 * e - 1), dtype=np.int32)
        for t, bt in enumerate(b):
            if bt:
                prod[:, t : t + e] += bt * block
        prod %= p
        for col in range(2 * e - 2, e - 1, -1):
            c = prod[:, col]
            prod[:, col - e : col] = (prod[:, col - e : col] + c[:, None] * neg_mod[None, :]) % p
        exp_digits[m : m + take] = prod[:, :e]
        m += take

    pow_p = p ** np.arange(e, dtype=np.int64)
    exp_codes = np.empty(q - 1, dtype=np.int64)
    chunk = 1 << 20
    for lo in range(0, q - 1, chunk):
        hi = min(lo + chunk, q - 1)
        exp_codes[lo:hi] = exp_digits[lo:hi].astype(np.int64) @ pow_p
    digit_table = np.zeros((q, e), dtype=np.int16)
    digit_table[exp_codes] = exp_digits
    return exp_codes, digit_table


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
    exp : ndarray, shape (q-1,)
        exp[k] is the code of g^k.
    log : ndarray, shape (q,)
        Discrete log base g; log[0] = -1 is a sentinel, never a valid log.
    """

    def __init__(
        self,
        params: FieldParams,
        g: int,
        exp: np.ndarray,
        log: np.ndarray,
        digits: np.ndarray | None,
    ):
        self.params = params
        self.p = params.p
        self.e = params.e
        self.q = params.p**params.e
        self.qm1 = self.q - 1
        self.g = g
        self.exp = exp
        self.log = log
        self._digits = digits
        self._pow_p = params.p ** np.arange(params.e, dtype=np.int64)
        for arr in (exp, log, self._pow_p) + ((digits,) if digits is not None else ()):
            arr.setflags(write=False)

    def __repr__(self) -> str:
        return f"FieldTable(GF({self.p}^{self.e}))"

    # ------------------------------------------------------------- elements

    def elements(self) -> range:
        return range(self.q)

    def digits_of(self, a: Element) -> tuple[int, ...]:
        if self.e == 1:
            return (a,)
        return tuple(int(x) for x in self._digits[a])

    def add(self, a: Element, b: Element) -> Element:
        if self.e == 1:
            return (a + b) % self.p
        row = (self._digits[a] + self._digits[b]) % self.p
        return int(row.astype(np.int64) @ self._pow_p)

    def neg(self, a: Element) -> Element:
        if self.e == 1:
            return (-a) % self.p
        row = (-self._digits[a]) % self.p
        return int(row.astype(np.int64) @ self._pow_p)

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def mul(self, a: Element, b: Element) -> Element:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(int(self.log[a]) + int(self.log[b])) % self.qm1])

    def inv(self, a: Element) -> Element:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.exp[(-int(self.log[a])) % self.qm1])

    def pow(self, a: Element, k: int) -> Element:
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise ZeroDivisionError("0 cannot be raised to a negative power")
        return int(self.exp[(int(self.log[a]) * k) % self.qm1])

    # ------------------------------------------------------- vectorized ops

    def add_many(self, codes: np.ndarray, c: Element) -> np.ndarray:
        """Codes of x + c for every x in codes.

        For c = 0 the result is a read-only view of codes: no digit pass.
        """
        if c == 0:
            same = codes.view()
            same.setflags(write=False)
            return same
        if self.e == 1:
            return (codes + c) % self.p
        rows = (self._digits[codes] + self._digits[c]) % self.p
        return rows.astype(np.int64) @ self._pow_p

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
        k = int(self.log[theta])
        n_over = self.e // r
        for m in range(1, n_over + 1):
            if n_over % m == 0 and (k * pow(self.p, r * m, self.qm1)) % self.qm1 == k:
                return m
        raise RuntimeError("Frobenius orbit did not close")  # unreachable

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
    """Build the tables for GF(p^e); p an odd prime, e >= 1, p^e <= cap."""
    if not isinstance(p, int) or p < 2 or not sympy.isprime(p):
        raise ValueError(f"p={p} is not prime")
    if p == 2:
        raise ValueError("p must be an odd prime")
    if e < 1:
        raise ValueError(f"extension degree e={e} must be >= 1")
    q = p**e
    if q > cap:
        raise CapExceeded(f"field size {p}^{e} = {q} exceeds cap {cap}")

    modulus = (0, 1) if e == 1 else _smallest_irreducible(p, e)
    g = _smallest_generator(p, e, q, modulus)

    if e == 1:
        exp = _build_exp_prime(p, g)
        digits = None
    else:
        exp, digits = _build_exp_extension(p, e, q, modulus, g)

    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(q - 1, dtype=np.int64)
    # Coverage doubles as an order certificate: a non-generator would revisit
    # codes and leave gaps.
    assert int(exp[0]) == 1 and int(log[1]) == 0
    assert int(np.count_nonzero(log == -1)) == 1

    return FieldTable(FieldParams(p, e, tuple(modulus)), g, exp, log, digits)

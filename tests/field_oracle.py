"""Table-free arithmetic in GF(p^e): the tests' oracle for the field tables.

An element is an integer code, the base-p digits of its polynomial
representative with the constant coefficient least significant, as in
cayley_cliques.ff.  Sums and differences are taken digit by digit,
products by schoolbook multiplication and long division by the monic
modulus, powers by square and multiply.  The residue class of a unit x mod
d, d | q - 1, is the j < d with x^((q-1)/d) = h^j for h = g^((q-1)/d),
found by polynomial powering.  A FieldOracle reads p, e, the modulus and g
of a FieldTable, and no entry of its exp, log or zech tables.
"""

from __future__ import annotations

import functools

import numpy as np


def digits(code: int, p: int, e: int) -> tuple[int, ...]:
    out = []
    for _ in range(e):
        code, rem = divmod(code, p)
        out.append(rem)
    return tuple(out)


def code(digits, p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
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


def mul_digits(a_digits, b_digits, modulus, p: int) -> tuple[int, ...]:
    """The digits of a * b mod the modulus: schoolbook product, long division."""
    prod = [0] * (len(a_digits) + len(b_digits) - 1)
    for i, ai in enumerate(a_digits):
        for j, bj in enumerate(b_digits):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    _, rem = poly_divmod(prod, list(modulus), p)
    rem += [0] * (len(modulus) - 1 - len(rem))
    return tuple(rem)


def mul_rows(a_digits: np.ndarray, b_digits: np.ndarray, modulus, p: int) -> np.ndarray:
    """mul_digits on every row of broadcastable (..., e) digit arrays:
    schoolbook product column by column, then long division by the monic
    modulus."""
    e = len(modulus) - 1
    a = np.asarray(a_digits, dtype=np.int64)
    b = np.asarray(b_digits, dtype=np.int64)
    prod = [0] * (2 * e - 1)
    for i in range(e):
        for j in range(e):
            prod[i + j] = prod[i + j] + a[..., i] * b[..., j]
    for k in range(2 * e - 2, e - 1, -1):
        coef = prod[k] % p
        for t in range(e):
            prod[k - e + t] = prod[k - e + t] - coef * modulus[t]
    return np.stack(np.broadcast_arrays(*prod[:e]), axis=-1) % p


class FieldOracle:
    """GF(p^e) arithmetic on codes from p, e, the modulus and g alone."""

    def __init__(self, p: int, e: int, modulus, g: int):
        self.p, self.e, self.modulus, self.g = p, e, tuple(modulus), g
        self.q = p**e
        self.pow_p = p ** np.arange(e, dtype=np.int64)
        self._classes: dict[int, np.ndarray] = {}

    @staticmethod
    def of(table) -> "FieldOracle":
        """The oracle of the table's field, one per (p, e, modulus, g)."""
        return _oracle(table.p, table.e, tuple(table.params.modulus), table.g)

    # ------------------------------------------------------------- scalars

    def add(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        return code([(x + y) % p for x, y in zip(digits(a, p, e), digits(b, p, e))], p)

    def neg(self, a: int) -> int:
        return code([-x % self.p for x in digits(a, self.p, self.e)], self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        return code(mul_digits(digits(a, p, e), digits(b, p, e), self.modulus, p), p)

    def pow(self, a: int, k: int) -> int:
        """a^k; a negative k needs a unit a."""
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("0 has no inverse")
            return int(k == 0)
        k %= self.q - 1
        out = 1
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def cls(self, x: int, d: int) -> int:
        """The j < d with x^((q-1)/d) = (g^((q-1)/d))^j, for a unit x."""
        root, h = self.pow(x, (self.q - 1) // d), self.pow(self.g, (self.q - 1) // d)
        power = 1
        for j in range(d):
            if power == root:
                return j
            power = self.mul(power, h)
        raise AssertionError(f"{x}^((q-1)/{d}) is no power of g^((q-1)/{d}): g is no generator")

    # ------------------------------------------------------------- vectors

    def digit_rows(self, codes) -> np.ndarray:
        return np.asarray(codes, dtype=np.int64)[..., None] // self.pow_p % self.p

    def encode(self, rows: np.ndarray) -> np.ndarray:
        return rows @ self.pow_p

    def sub_many(self, us, vs) -> np.ndarray:
        """Codes of u - v, broadcast over the arrays us and vs."""
        return self.encode((self.digit_rows(us) - self.digit_rows(vs)) % self.p)

    def add_many(self, us, vs) -> np.ndarray:
        return self.encode((self.digit_rows(us) + self.digit_rows(vs)) % self.p)

    def mul_many(self, us, vs) -> np.ndarray:
        return self.encode(mul_rows(self.digit_rows(us), self.digit_rows(vs), self.modulus, self.p))

    def pow_many(self, codes, k: int) -> np.ndarray:
        """Codes of x^k for every x in codes, k >= 0."""
        base = self.digit_rows(codes)
        out = np.zeros_like(base)
        out[..., 0] = 1
        while k:
            if k & 1:
                out = mul_rows(out, base, self.modulus, self.p)
            base = mul_rows(base, base, self.modulus, self.p)
            k >>= 1
        return self.encode(out)

    def classes(self, d: int) -> np.ndarray:
        """cls(x, d) for every code x, -1 at 0, by one vectorised powering."""
        if d not in self._classes:
            step = (self.q - 1) // d
            h, roots = self.pow(self.g, step), np.ones(1, dtype=np.int64)
            while len(roots) < d:  # h^0..h^(m-1), then those times h^m
                roots = np.concatenate([roots, self.mul_many(roots, self.mul(int(roots[-1]), h))])
            roots = roots[:d]
            if len(set(roots.tolist())) != d:
                raise AssertionError(f"g^((q-1)/{d}) has order below {d}: g is no generator")
            lut = np.full(self.q, -1, dtype=np.int64)
            lut[roots] = np.arange(d)
            out = lut[self.pow_many(np.arange(self.q), step)]
            self._classes[d] = out
        return self._classes[d]

    def members(self, d: int, j) -> np.ndarray:
        """The connection set of the classes j mod d as a mask over every code."""
        classes = self.classes(d)
        return (classes >= 0) & np.isin(classes, sorted(j))

    def adjacency(self, us, vs, d: int, j) -> np.ndarray:
        """Matrix of u - v in S for u in us (rows) and v in vs (columns), S
        the classes j mod d; u - u = 0 is never in S."""
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        member = self.members(d, j)
        out = np.empty((len(us), len(vs)), dtype=bool)
        rows = max(1, (1 << 16) // max(len(vs), 1))
        for lo in range(0, len(us), rows):
            out[lo : lo + rows] = member[self.sub_many(us[lo : lo + rows, None], vs[None, :])]
        return out


@functools.cache
def _oracle(p: int, e: int, modulus: tuple[int, ...], g: int) -> FieldOracle:
    return FieldOracle(p, e, modulus, g)


def graph_adjacency(graph, us, vs) -> np.ndarray:
    """The oracle's adjacency matrix for the connection set of a CayleyGraph."""
    return FieldOracle.of(graph.table).adjacency(us, vs, graph.d, graph.j)


def adjacent(graph, u: int, v: int) -> bool:
    return bool(graph_adjacency(graph, [u], [v])[0, 0])

"""Exact arithmetic over finite fields F_q, q = p^e a prime power.

Elements are canonical integers in [0, q).  The base-p digits of an
element are the coefficients of its polynomial residue, digit i being
the coefficient of x^i.  For prime fields (e = 1) this is just the
integer mod p.
"""

from __future__ import annotations

import functools
import operator

from .errors import FieldTooLargeError, NotPrimePowerError

MAX_Q = 1 << 16

# Lookup tables are built for fields up to this size; larger fields fall
# back to on-the-fly arithmetic (a 2^16 x 2^16 table would not fit).
TABLE_Q_LIMIT = 256

_field_cache: dict[int, "Field"] = {}


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise NotPrimePowerError."""
    if q < 2:
        raise NotPrimePowerError(f"q must be >= 2, got {q}")
    p = None
    d = 2
    r = q
    while d * d <= r:
        if r % d == 0:
            p = d
            while r % d == 0:
                r //= d
            break
        d += 1
    if p is None:
        p = r
        r = 1
    if r != 1:
        raise NotPrimePowerError(f"{q} has more than one prime factor")
    e = 0
    t = q
    while t > 1:
        t //= p
        e += 1
    return p, e


def _poly_mulmod(a: tuple[int, ...], b: tuple[int, ...], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_divmod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num / den over F_p; den must be monic."""
    num = list(num)
    dd = len(den) - 1
    for k in range(len(num) - 1 - dd, -1, -1):
        c = num[k + dd]
        if c:
            num[k + dd] = 0
            for j in range(dd):
                num[k + j] = (num[k + j] - c * den[j]) % p
    rem = num[:dd]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return rem


def _is_zero_poly(poly: list[int]) -> bool:
    return all(c == 0 for c in poly)


def _monic_polys(degree: int, p: int):
    """Yield monic polynomials of the given degree as coefficient lists
    (constant term first), in ascending order of their base-p encoding."""
    for code in range(p**degree):
        coeffs = []
        t = code
        for _ in range(degree):
            coeffs.append(t % p)
            t //= p
        yield coeffs + [1]


def _is_irreducible(poly: list[int], p: int) -> bool:
    e = len(poly) - 1
    if e == 1:
        return True
    if poly[0] == 0:
        return False  # divisible by x
    for d in range(1, e // 2 + 1):
        for div in _monic_polys(d, p):
            if _is_zero_poly(_poly_divmod(list(poly), div, p)):
                return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    for cand in _monic_polys(e, p):
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible polynomial of degree {e} over F_{p}")


class Field:
    """The finite field F_q.

    Immutable after construction; all operations are pure functions on
    canonical integer representatives, so a Field may be shared freely
    across threads.
    """

    __slots__ = ("p", "e", "q", "modulus", "_add_table", "_sub_table",
                 "_mul_table", "_inv_table")

    def __init__(self, q: int):
        if q > MAX_Q:
            raise FieldTooLargeError(f"q = {q} exceeds the cap {MAX_Q}")
        p, e = _factor_prime_power(q)
        self.p = p
        self.e = e
        self.q = q
        # modulus: coefficients of the monic degree-e irreducible,
        # constant term first; empty for prime fields.
        self.modulus: tuple[int, ...] = () if e == 1 else _smallest_irreducible(p, e)
        self._add_table = self._sub_table = None
        self._mul_table = self._inv_table = None
        if q <= TABLE_Q_LIMIT and e > 1:
            self._build_tables()

    # -- encoding helpers ------------------------------------------------

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, digs) -> int:
        a = 0
        for c in reversed(list(digs)):
            a = a * self.p + c
        return a

    def _build_tables(self) -> None:
        q = self.q
        table = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                v = self._mul_poly(a, b)
                table[a][b] = v
                table[b][a] = v
        inv = [0] * q
        for a in range(1, q):
            row = table[a]
            for b in range(1, q):
                if row[b] == 1:
                    inv[a] = b
                    break
        self._mul_table = table
        self._inv_table = inv
        if self.p != 2:     # characteristic 2 adds by XOR, without a table
            self._add_table, self._sub_table = (
                [[self._digitwise(op, a, b) for b in range(q)] for a in range(q)]
                for op in (operator.add, operator.sub))

    def _digitwise(self, op, a: int, b: int) -> int:
        """op applied to a's and b's base-p digits, each mod p."""
        return self._undigits([op(x, y) % self.p for x, y
                               in zip(self._digits(a), self._digits(b))])

    # -- arithmetic ------------------------------------------------------

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not a canonical element of F_{self.q}")
        return a

    def add(self, a: int, b: int) -> int:
        if self.p == 2:                 # digit-wise mod 2 is XOR
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._digitwise(operator.add, a, b)

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:                 # in characteristic 2, sub is add
            return a ^ b
        if self.e == 1:
            return (a - b) % self.p
        if self._sub_table is not None:
            return self._sub_table[a][b]
        return self._digitwise(operator.sub, a, b)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def _mul_poly(self, a: int, b: int) -> int:
        prod = _poly_mulmod(tuple(self._digits(a)), tuple(self._digits(b)), self.p)
        rem = _poly_divmod(prod, list(self.modulus), self.p)
        rem += [0] * (self.e - len(rem))
        return self._undigits(rem)

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, k: int) -> int:
        result = 1
        base = a
        while k > 0:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    # -- identity --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.q == other.q and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash((self.q, self.modulus))

    def __repr__(self) -> str:
        return f"Field({self.q})"


def field_for(q: int) -> Field:
    """Cached Field constructor; fields are immutable so sharing is safe."""
    f = _field_cache.get(q)
    if f is None:
        f = Field(q)
        _field_cache[q] = f
    return f


class _FieldOp:
    """A binary Field operation read as op[a][b], for fields too large
    to tabulate."""

    __slots__ = ("op", "a")

    def __init__(self, op, a=None):
        self.op = op
        self.a = a

    def __getitem__(self, b):
        if self.a is None:
            return _FieldOp(self.op, b)
        return self.op(self.a, b)


@functools.lru_cache(maxsize=16)
def arithmetic(field: Field):
    """The field's (add, sub, mul), each indexed as op[a][b]: q x q
    tables, or views calling the Field when q is too large to tabulate."""
    ops = (field.add, field.sub, field.mul)
    if field.q > TABLE_Q_LIMIT:
        return tuple(_FieldOp(op) for op in ops)
    elements = range(field.q)
    return tuple([[op(a, b) for b in elements] for a in elements] for op in ops)

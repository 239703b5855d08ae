"""Exact arithmetic over finite fields F_q, q = p^e a prime power.

Elements are canonical integers in [0, q).  The base-p digits of an
element are the coefficients of its polynomial residue, digit i being
the coefficient of x^i.  For prime fields (e = 1) this is just the
integer mod p.

A field of at most TABLE_Q_LIMIT elements builds one add, sub, mul and
inverse table when it is constructed; its methods read them, and
``arithmetic`` hands the same tables to the table-driven code in
``linalg``, ``decoder`` and ``simulation``.  The add and sub tables are
built digit by digit, the mul and inverse tables from the powers of a
primitive element (log and antilog), so a build makes about q
polynomial products instead of one per entry.  A larger field computes
each operation from the digits, and ``arithmetic`` hands out views
that call it.
"""

from __future__ import annotations

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
    across threads.  Up to TABLE_Q_LIMIT the field holds one add, sub,
    mul and inverse table, built once at construction, which its methods
    and ``arithmetic`` read; above it every operation is computed from
    the base-p digits.
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
        if q <= TABLE_Q_LIMIT:
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
        """add and sub digit by digit, mul and inv from the powers of a
        primitive element: about q untabulated products, not q^2."""
        p, q = self.p, self.q
        # an element of F_{p^(k+1)} is a + p^k * t, a in F_{p^k} and t its
        # top digit, and both parts add on their own
        add = top = [[(a + b) % p for b in range(p)] for a in range(p)]
        size = p
        while size < q:
            add = [[size * t + c for t in top[a // size] for c in add[a % size]]
                   for a in range(size * p)]
            size *= p
        neg = [row.index(0) for row in add]
        power = self._powers()          # power[k] = g^k, k < q - 1
        log = [0] * q
        for k, a in enumerate(power):
            log[a] = k
        # a * b = g^(log a + log b): row a reads the powers from g^(log a) on
        mul = [[0] * q]
        for a in range(1, q):
            turn = power[log[a]:] + power[:log[a]]
            mul.append([0] + [turn[k] for k in log[1:]])
        self._add_table, self._mul_table = add, mul
        self._sub_table = [[row[c] for c in neg] for row in add]
        self._inv_table = [0] + [power[-log[a]] for a in range(1, q)]

    def _powers(self) -> list[int]:
        """g^0, ..., g^(q-2) for the least primitive element g, found by
        walking the powers of 1, 2, ... until one reaches every nonzero
        element."""
        for g in range(1, self.q):
            power, a = [1], g
            while a != 1:
                power.append(a)
                a = self._mul(a, g)
            if len(power) == self.q - 1:
                return power
        raise AssertionError(f"F_{self.q} has no primitive element")

    def _digitwise(self, op, a: int, b: int) -> int:
        """op applied to a's and b's base-p digits, each mod p."""
        return self._undigits([op(x, y) % self.p for x, y
                               in zip(self._digits(a), self._digits(b))])

    # -- untabulated arithmetic: every field above TABLE_Q_LIMIT, and the
    #    powers the mul table is built from

    def _add(self, a: int, b: int) -> int:
        if self.p == 2:                 # digit-wise mod 2 is XOR
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        return self._digitwise(operator.add, a, b)

    def _sub(self, a: int, b: int) -> int:
        if self.p == 2:                 # in characteristic 2, sub is add
            return a ^ b
        if self.e == 1:
            return (a - b) % self.p
        return self._digitwise(operator.sub, a, b)

    def _mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        prod = _poly_mulmod(tuple(self._digits(a)), tuple(self._digits(b)), self.p)
        rem = _poly_divmod(prod, list(self.modulus), self.p)
        rem += [0] * (self.e - len(rem))
        return self._undigits(rem)

    # -- arithmetic ------------------------------------------------------

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not a canonical element of F_{self.q}")
        return a

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add(a, b)

    def sub(self, a: int, b: int) -> int:
        if self._sub_table is not None:
            return self._sub_table[a][b]
        return self._sub(a, b)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
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


def arithmetic(field: Field):
    """The field's (add, sub, mul), each indexed as op[a][b]: its q x q
    tables, or views calling the Field when q is too large to tabulate."""
    if field._add_table is None:
        return tuple(_FieldOp(op) for op in (field.add, field.sub, field.mul))
    return field._add_table, field._sub_table, field._mul_table

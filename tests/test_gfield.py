import pytest

from icsie import gfield
from icsie.errors import FieldTooLargeError, NotPrimePowerError
from icsie.gfield import TABLE_Q_LIMIT, Field, _FieldOp, arithmetic, field_for

SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 16, 25]


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive(q):
    f = Field(q)
    elems = range(q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(f.add(a, b), b) == a
            for c in elems:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)


@pytest.mark.parametrize("q", SMALL_Q)
def test_mul_group_no_zero_divisors(q):
    f = Field(q)
    for a in range(1, q):
        seen = {f.mul(a, b) for b in range(1, q)}
        assert seen == set(range(1, q))


def test_gf4_is_not_mod_4():
    f = Field(4)
    # characteristic 2: x + x = 0, so 2*2 cannot be 0 the mod-4 way
    assert f.add(2, 2) == 0
    assert f.mul(2, 2) != 0


def test_gf2_matches_xor():
    f = Field(2)
    assert f.add(1, 1) == 0 and f.mul(1, 1) == 1


@pytest.mark.parametrize("q", [4, 8, 256, 1024])
def test_characteristic_2_add_and_sub_are_digitwise(q):
    # the XOR shortcut against the base-2 digit definition, operands
    # spread over the whole field
    f, e = Field(q), q.bit_length() - 1
    elems = sorted({0, 1, q - 1} | set(range(0, q, max(1, q // 37))))
    for a in elems:
        for b in elems:
            want = sum((((a >> i) + (b >> i)) % 2) << i for i in range(e))
            assert f.add(a, b) == f.sub(a, b) == want


@pytest.mark.parametrize("q", [9, 25, 27, 49, 81, 121, 125, 243, 343, 625])
def test_odd_extension_add_and_sub_are_digitwise(q):
    # tabulated up to TABLE_Q_LIMIT, digit by digit above it: both
    # against the base-p digit definition
    f = Field(q)
    p, e = f.p, f.e
    elems = (range(q) if q <= TABLE_Q_LIMIT
             else sorted({0, 1, q - 1} | set(range(0, q, q // 37))))

    def digits(a):
        return [a // p ** i % p for i in range(e)]

    def element(ds):
        return sum(d * p ** i for i, d in enumerate(ds))

    for a in elems:
        da = digits(a)
        for b in elems:
            db = digits(b)
            assert f.add(a, b) == element([(x + y) % p for x, y in zip(da, db)])
            assert f.sub(a, b) == element([(x - y) % p for x, y in zip(da, db)])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 256])
def test_tables_equal_the_untabulated_route(monkeypatch, q):
    # the one table set a field holds, read by its methods and handed out
    # by arithmetic, against the same field built past the table limit,
    # which computes every operation from the digits
    tabulated = Field(q)
    monkeypatch.setattr(gfield, "TABLE_Q_LIMIT", 1)
    raw = Field(q)
    assert all(isinstance(op, _FieldOp) for op in arithmetic(raw))
    add, sub, mul = arithmetic(tabulated)
    assert all(len(t) == q and all(len(row) == q for row in t)
               for t in (add, sub, mul))
    for a in range(q):
        for b in range(q):
            want = raw.add(a, b), raw.sub(a, b), raw.mul(a, b)
            assert (add[a][b], sub[a][b], mul[a][b]) == want
            assert (tabulated.add(a, b), tabulated.sub(a, b),
                    tabulated.mul(a, b)) == want
        if a:
            assert tabulated.inv(a) == raw.inv(a)
    # handed out as held, never rebuilt
    assert all(x is y for x, y in zip(arithmetic(tabulated),
                                      arithmetic(tabulated)))


@pytest.mark.parametrize("q", SMALL_Q)
def test_pow(q):
    f = Field(q)
    for a in range(1, q):
        assert f.pow(a, q - 1) == 1     # multiplicative group order divides q-1
        acc = 1
        for k in range(5):
            assert f.pow(a, k) == acc
            acc = f.mul(acc, a)


@pytest.mark.parametrize("q", SMALL_Q)
def test_frobenius(q):
    f = Field(q)
    for a in range(q):
        assert f.pow(a, q) == a


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Field(4).inv(0)


def test_gf4_modulus_forced():
    # the only irreducible monic quadratic over F_2 is x^2 + x + 1,
    # so alpha * alpha = alpha + 1, i.e. 2 * 2 = 3
    assert Field(4).mul(2, 2) == 3


def test_gf5_schoolbook():
    assert Field(5).mul(3, 4) == 2


@pytest.mark.parametrize("q", [6, 10, 12, 15, 1, 0, -3])
def test_non_prime_power_rejected(q):
    with pytest.raises((NotPrimePowerError, ValueError)):
        Field(q)


def test_too_large_rejected():
    with pytest.raises(FieldTooLargeError):
        Field(2 ** 17)


def test_field_for_caches():
    assert field_for(8) is field_for(8)


def test_check_rejects_outside_range():
    f = Field(4)
    with pytest.raises(ValueError):
        f.check(4)
    with pytest.raises(ValueError):
        f.check(-1)

import pytest

from icsie.errors import FieldTooLargeError, NotPrimePowerError
from icsie.gfield import Field, field_for

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

import random

import pytest

from hilbtorus.cyclotomic import CycInt

W3 = CycInt(3, 0, 1)
W4 = CycInt(4, 0, 1)


def test_only_orders_three_and_four_exist():
    with pytest.raises(ValueError):
        CycInt(5, 1, 0)


def test_root_powers():
    assert W3 ** 3 == 1
    assert W3 ** 2 == CycInt(3, -1, -1)  # w^2 = -1 - w
    assert W3 ** 2 + W3 + 1 == 0
    assert W4 ** 2 == -1
    assert W4 ** 4 == 1


def test_sixth_root_from_minus_w3():
    w6 = -W3
    assert w6 ** 6 == 1
    assert w6 ** 3 == -1
    assert w6 ** 2 != 1
    assert w6 + w6 ** -1 == 1  # trace of the primitive sixth root


def test_norms():
    assert W3.norm() == 1
    assert W4.norm() == 1
    assert CycInt(4, 3, 4).norm() == 25
    assert CycInt(3, 2, 1).norm() == 3  # 4 - 2 + 1


def test_conjugate_gives_norm():
    rng = random.Random(31)
    for _ in range(40):
        order = rng.choice([3, 4])
        z = CycInt(order, rng.randint(-9, 9), rng.randint(-9, 9))
        assert z * z.conjugate() == z.norm()


def test_units_and_inverse():
    assert W3.is_unit
    assert W3.inverse() == W3 ** 2
    assert W4.inverse() == -W4
    assert (W4 * W4.inverse()) == 1
    z = CycInt(4, 1, 1)
    assert not z.is_unit
    with pytest.raises(ValueError):
        z.inverse()


def test_negative_powers_of_units():
    assert W3 ** -1 == W3 ** 2
    assert W4 ** -3 == W4
    assert (-W3) ** -5 == (-W3)  # order six: -5 = 1 mod 6


def test_ring_laws_on_random_triples():
    rng = random.Random(77)
    for order in (3, 4):
        for _ in range(40):
            a, b, c = (CycInt(order, rng.randint(-9, 9), rng.randint(-9, 9))
                       for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_int_interop():
    assert 2 * W3 == CycInt(3, 0, 2)
    assert CycInt(3, 7, 0) == 7
    assert W3 != 1


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        W3 + W4
    with pytest.raises(ValueError):
        W3 * W4

import random

import pytest

from hilbtorus.laurent import LaurentPoly
from hilbtorus.series import TruncatedSeries
from laurent_ring import Poly

C1 = LaurentPoly({2: 1, 1: -2, 0: 1})  # q^2 - 2q + 1


def _random_poly(rng, terms=4, span=6, bound=9):
    return LaurentPoly({rng.randint(-span, span): rng.randint(-bound, bound)
                        for _ in range(terms)})


def test_zero_and_one():
    assert LaurentPoly() == 0
    assert LaurentPoly({0: 1}) == 1
    assert not LaurentPoly()
    assert LaurentPoly({-1: 1})


def test_canonicalization_drops_zero_coefficients():
    p = LaurentPoly({3: 0, 1: 2, -1: 0})
    assert dict(p.items()) == {1: 2}
    assert p.coeff(3) == 0


def test_non_integer_exponent_or_coefficient_raises():
    # int() would truncate 1.5 and 2.7 and store 0.4 as a zero coefficient
    for coeffs in ({0: 1.5}, {2.7: 3}, {0: 0.4}, {0: 0.0}):
        with pytest.raises(TypeError):
            LaurentPoly(coeffs)


def test_int_interop_both_sides():
    p = LaurentPoly({1: 1})
    assert 2 * p == p * 2 == LaurentPoly({1: 2})


def test_unhashable_since_a_constant_equals_its_int():
    # a hash unlike hash(5) would lose LaurentPoly({0: 5}) in sets and dicts
    assert LaurentPoly({0: 5}) == 5
    with pytest.raises(TypeError):
        hash(LaurentPoly({0: 5}))


def test_ring_laws_on_random_triples():
    rng = random.Random(110)
    for _ in range(60):
        a, b, c = (Poly(_random_poly(rng)) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_poly_defers_other_operands():
    # so the other operand's reflected operation is tried, not Poly(other)
    p, t = Poly({0: 2}), TruncatedSeries(2, [1, 1])
    for op in (Poly.__add__, Poly.__sub__, Poly.__mul__):
        assert op(p, t) is NotImplemented


def test_monomial_and_shift():
    m = Poly({-3: 5})
    assert m.coeff(-3) == 5
    assert m.shift(3) == LaurentPoly({0: 5})
    assert m.shift(1) == LaurentPoly({-2: 5})
    assert m.shift(0) == m and type(m.shift(0)) is Poly
    # recentering the n = 1 count polynomial
    assert Poly(C1).shift(-1) == LaurentPoly({1: 1, 0: -2, -1: 1})


def test_evaluate_int():
    assert C1.evaluate_int(-1) == 4
    assert C1.evaluate_int(2) == 1
    assert LaurentPoly({-2: 3, 1: 1}).evaluate_int(-1) == 2
    with pytest.raises(ValueError):
        C1.evaluate_int(0)
    with pytest.raises(ValueError):
        LaurentPoly({-1: 1}).evaluate_int(2)


def test_evaluate_generic_matches_int():
    rng = random.Random(7)
    for _ in range(20):
        p = LaurentPoly({rng.randint(0, 6): rng.randint(-5, 5) for _ in range(4)})
        x = rng.choice([1, -1, 2, 3])
        assert p.evaluate(x) == p.evaluate_int(x)


def test_pretty_formatting():
    assert C1.pretty() == "q^2 - 2q + 1"
    assert LaurentPoly({1: 1, -1: 1, 0: -2}).pretty() == "q - 2 + q^-1"
    assert LaurentPoly().pretty() == "0"
    assert LaurentPoly({0: 1}).pretty() == "1"

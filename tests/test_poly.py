"""Polynomial algebra: arithmetic, factorization, cosets, minimal polynomials."""

import math
import random

import pytest

from sympair import errors, gf, poly
from sympair.poly import Poly

F2 = gf.prime_field(2)
F3 = gf.prime_field(3)
F5 = gf.prime_field(5)
F7 = gf.prime_field(7)
F9 = gf.extension_field(3, 2)


def _random_poly(rng, field, max_degree):
    degree = rng.randrange(max_degree + 1)
    coeffs = [rng.randrange(field.q) for _ in range(degree)] + [rng.randrange(1, field.q)]
    return Poly(field, coeffs)


def test_construction_normalizes_trailing_zeros():
    p = Poly(F5, [1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Poly(F5, []).is_zero()
    assert Poly(F5, [0, 0]).is_zero()


def test_outside_coefficients_are_validated_and_results_canonical():
    for bad in ([5], [1.5], [-1], [True], [1, 7, 1]):
        with pytest.raises(errors.BadParameterError):
            Poly(F5, bad)
    with pytest.raises(errors.BadParameterError):
        Poly(F9, [9])
    # arithmetic builds its results unchecked: they must already be canonical
    assert (Poly(F5, [4, 3]) * Poly(F5, [2, 1])).coeffs == (3, 0, 3)
    rng = random.Random(37)
    for field in (F2, F5, F9):
        for _ in range(50):
            f, g = _random_poly(rng, field, 5), _random_poly(rng, field, 3)
            for h in (f + g, -f, f - f, f * g, f.scale(rng.randrange(field.q)),
                      *divmod(f, g), f.derivative()):
                assert Poly(field, h.coeffs) == h
                assert all(type(c) is int for c in h.coeffs)
                assert not h.coeffs or h.coeffs[-1] != 0


def test_zero_polynomial_degree_sentinel():
    zero = Poly.zero(F5)
    assert zero.degree == poly.NEG_INF
    assert poly.NEG_INF == -math.inf
    # keeps deg(fg) = deg f + deg g total even with zero factors
    assert (zero * Poly.x(F5)).degree == poly.NEG_INF


def test_degree_law_on_random_products():
    rng = random.Random(29)
    for field in (F2, F5, F9):
        for _ in range(200):
            f = _random_poly(rng, field, 6)
            g = _random_poly(rng, field, 6)
            assert (f * g).degree == f.degree + g.degree


def test_divrem_example_and_round_trip():
    x = Poly.x(F5)
    cubic = x**3 - Poly.one(F5)
    q, r = divmod(cubic, x - Poly.one(F5))
    assert q == Poly(F5, [1, 1, 1])
    assert r.is_zero()

    rng = random.Random(31)
    for field in (F2, F7, F9):
        for _ in range(200):
            f = _random_poly(rng, field, 8)
            g = _random_poly(rng, field, 5)
            q, r = divmod(f, g)
            assert g * q + r == f
            assert r.is_zero() or r.degree < g.degree


def test_division_by_zero_and_field_mismatch():
    with pytest.raises(errors.DivisionByZeroError):
        divmod(Poly.x(F5), Poly.zero(F5))
    with pytest.raises(errors.FieldMismatchError):
        Poly.x(F5) + Poly.x(F7)
    with pytest.raises(errors.FieldMismatchError):
        Poly.x(F5) * Poly.x(F3)


def test_gcd_examples():
    x = Poly.x(F7)
    one = Poly.one(F7)
    assert poly.poly_gcd(x**2 - one, x - one) == x - one
    # gcd is monic even when inputs are scaled
    g = poly.poly_gcd((x - one).scale(3), (x**2 - one).scale(5))
    assert g == x - one
    assert poly.poly_gcd(Poly.zero(F7), x + one) == x + one


def test_eval_at_roots():
    x = Poly.x(F7)
    one = Poly.one(F7)
    two = Poly(F7, [2])
    g = (x - one) ** 3 * (x**2 + x + one)
    assert g(1) == 0
    assert ((x - two) * (x - one))(2) == 0
    assert (x**2 + one)(0) == 1


def test_formal_derivative_examples():
    x5 = Poly.x(F5)
    assert (x5**3 - Poly.one(F5)).derivative() == Poly(F5, [0, 0, 3])
    # characteristic kills the exponent
    assert (x5**5).derivative().is_zero()
    # second derivative of x^3 over GF(7) is 6x
    x7 = Poly.x(F7)
    assert (x7**3).derivative().derivative() == Poly(F7, [0, 6])


def test_cyclotomic_cosets_examples():
    cosets = poly.cyclotomic_cosets(8, 3)
    assert [c.members for c in cosets] == [(0,), (1, 3), (2, 6), (4,), (5, 7)]
    assert [c.representative for c in cosets] == [0, 1, 2, 4, 5]

    cosets24 = {c.representative: c.members for c in poly.cyclotomic_cosets(24, 5)}
    assert cosets24[0] == (0,)
    assert cosets24[19] == (19, 23)

    # q = 1 mod n: all orbits are singletons
    assert all(len(c.members) == 1 for c in poly.cyclotomic_cosets(4, 5))

    with pytest.raises(errors.NotCoprimeError):
        poly.cyclotomic_cosets(6, 3)


def test_cyclotomic_cosets_partition_and_closure():
    for q in (2, 3, 5, 7, 9):
        for n in range(2, 31):
            if math.gcd(n, q) != 1:
                continue
            cosets = poly.cyclotomic_cosets(n, q)
            union = [m for c in cosets for m in c.members]
            assert sorted(union) == list(range(n))
            for c in cosets:
                members = set(c.members)
                assert c.representative == min(members)
                assert {(m * q) % n for m in members} == members


def test_single_coset_lookup():
    c = poly.cyclotomic_coset(24, 5, 23)
    assert c.members == (19, 23)
    assert c.representative == 19
    for n, q, exponent in ((0, 2, 1), (8, 3, 1.5)):
        with pytest.raises(errors.BadParameterError):
            poly.cyclotomic_coset(n, q, exponent)


def test_minimal_polynomial_examples():
    x7 = Poly.x(F7)
    c1 = poly.cyclotomic_coset(3, 7, 1)
    assert poly.minimal_polynomial(c1, F7) == x7 - Poly(F7, [2])

    c12 = poly.cyclotomic_coset(3, 5, 1)
    assert c12.members == (1, 2)
    assert poly.minimal_polynomial(c12, F5) == Poly(F5, [1, 1, 1])

    c0 = poly.cyclotomic_coset(15, 2, 0)
    assert poly.minimal_polynomial(c0, F2) == Poly.x(F2) - Poly.one(F2)


def test_minimal_polynomials_multiply_to_unity_binomial():
    # product over a full coset partition reconstructs x^n - 1
    for q, field in ((2, F2), (3, F3), (5, F5), (7, F7), (9, F9)):
        for n in range(2, 31):
            if math.gcd(n, q) != 1:
                continue
            order = poly.multiplicative_order_mod(q, n)
            if q**order > gf.Q_LIMIT:
                continue  # splitting field beyond the build-time size limit
            product = Poly.one(field)
            for coset in poly.cyclotomic_cosets(n, q):
                m = poly.minimal_polynomial(coset, field)
                assert m.is_monic()
                assert poly.is_irreducible(m)
                assert len(coset.members) == m.degree
                product = product * m
            assert product == poly.binomial(field, n, 1)


def test_factor_repeated_root_structure():
    f = poly.binomial(F5, 15, 1)  # x^15 - 1 = (x-1)^5 (x^2+x+1)^5 over GF(5)
    fac = poly.factor(f)
    assert fac.unit == 1
    assert [(p.coeffs, e) for p, e in fac] == [((4, 1), 5), ((1, 1, 1), 5)]


def test_factor_named_generator():
    x = Poly.x(F5)
    one = Poly.one(F5)
    g = (x - one) ** 3 * (x**2 + x + one)
    fac = poly.factor(g)
    assert [(p.coeffs, e) for p, e in fac] == [((4, 1), 3), ((1, 1, 1), 1)]


def test_factor_distinct_linear_factors():
    x = Poly.x(F7)
    fac = poly.factor(x**2 - Poly.one(F7))
    assert [(p.coeffs, e) for p, e in fac] == [((1, 1), 1), ((6, 1), 1)]


def test_factor_zero_rejected():
    with pytest.raises(errors.ZeroPolynomialError):
        poly.factor(Poly.zero(F5))


def test_factor_reconstructs_random_inputs():
    rng = random.Random(41)
    for field in (F2, F3, F5, F9):
        for _ in range(250):
            f = _random_poly(rng, field, 12)
            if f.degree < 1:
                continue
            fac = poly.factor(f)
            rebuilt = Poly(field, [fac.unit])
            for factor_poly, mult in fac:
                assert factor_poly.is_monic()
                assert poly.is_irreducible(factor_poly)
                rebuilt = rebuilt * factor_poly**mult
            assert rebuilt == f
            # factors are distinct and sorted deterministically
            keys = [p.coeffs for p, _ in fac]
            assert len(keys) == len(set(keys))


def test_factor_deterministic_across_calls():
    f = poly.binomial(F9, 16, 1)
    first = poly.factor(f)
    again = poly.factor(f)
    assert [(p.coeffs, e) for p, e in first] == [(p.coeffs, e) for p, e in again]


def test_multiplicity_examples():
    x = Poly.x(F7)
    one = Poly.one(F7)
    g = (x - one) ** 4 * (x - Poly(F7, [2])) ** 2 * (x - Poly(F7, [4]))
    assert poly.multiplicity(g, x - one) == 4
    assert poly.multiplicity(g, x - Poly(F7, [4])) == 1
    assert poly.multiplicity(g, x - Poly(F7, [3])) == 0


def test_repeated_factors_divide_derivative_gcd():
    rng = random.Random(43)
    x = Poly.x(F5)
    for _ in range(100):
        f = _random_poly(rng, F5, 4)
        g = _random_poly(rng, F5, 3)
        if f.degree < 1:
            continue
        h = f * f * g
        for factor_poly, mult in poly.factor(h):
            if mult >= 2:
                gc = poly.poly_gcd(h, h.derivative())
                _, r = divmod(gc, factor_poly)
                assert r.is_zero()


def test_is_irreducible_known_cases():
    assert poly.is_irreducible(Poly(F5, [1, 1, 1]))  # x^2+x+1, 5 = 2 mod 3
    assert not poly.is_irreducible(Poly(F7, [1, 1, 1]))  # (x-2)(x-4) over GF(7)
    assert poly.is_irreducible(Poly(F2, [1, 1, 0, 1]))  # x^3+x+1
    assert poly.is_irreducible(Poly(F3, [1, 0, 1]))  # x^2+1 over GF(3)
    assert not poly.is_irreducible(Poly(F5, [1, 0, 1]))  # (x-2)(x-3) over GF(5)
    assert not poly.is_irreducible(Poly(F5, [4, 1]) * Poly(F5, [4, 1]))


def test_binomial_builds_x_n_minus_lambda():
    b = poly.binomial(F5, 15, 1)
    assert b.coeffs == (4,) + (0,) * 14 + (1,)
    b2 = poly.binomial(F5, 4, 2)
    assert b2.coeffs == (3, 0, 0, 0, 1)
    with pytest.raises(errors.BadParameterError):
        poly.binomial(F5, 0, 1)


def test_powmod_matches_plain_power():
    mod = Poly(F2, [1, 1, 0, 1])
    x = Poly.x(F2)
    # multiplicative order of x mod an irreducible cubic over GF(2) divides 7
    assert poly.powmod(x, 7, mod) == Poly.one(F2)
    assert poly.powmod(x, 3, mod) == divmod(x**3, mod)[1]
    rng = random.Random(47)
    for _ in range(50):
        f = _random_poly(rng, F5, 3)
        m = _random_poly(rng, F5, 4)
        if m.degree < 1:
            continue
        e = rng.randrange(1, 40)
        assert poly.powmod(f, e, m) == divmod(f**e, m)[1]


def test_powmod_rejects_bad_exponents():
    """As ``Poly.__pow__``: a negative exponent would never leave the
    square-and-multiply loop (-1 >> 1 == -1), so it is rejected first."""
    x = Poly.x(F5)
    mod = x ** 3 - Poly.one(F5)
    for bad in (-1, 2.5, True):
        with pytest.raises(errors.BadParameterError):
            poly.powmod(x, bad, mod)
    assert poly.powmod(x, 0, mod) == Poly.one(F5)


def test_multiplicative_order_mod():
    assert poly.multiplicative_order_mod(5, 24) == 2
    assert poly.multiplicative_order_mod(2, 15) == 4
    assert poly.multiplicative_order_mod(7, 3) == 1
    with pytest.raises(errors.NotCoprimeError):
        poly.multiplicative_order_mod(3, 6)


def test_monic_and_scale():
    p = Poly(F5, [2, 4])
    assert not p.is_monic()
    m = p.monic()
    assert m.is_monic()
    assert m == p.scale(F5.inv(4))
    assert p.leading_coeff == 4
    assert p.coeff(0) == 2 and p.coeff(7) == 0


def test_scale_and_coeff_check_their_arguments():
    # scale takes a canonical field element, coeff an index >= 0
    for field, c in ((F9, 10), (F5, 7), (F5, True), (F5, -1), (F5, 1.5)):
        with pytest.raises(errors.BadParameterError, match="field element"):
            Poly(field, [1, 2]).scale(c)
    for i in (1.5, -1, True, "0"):
        with pytest.raises(errors.BadParameterError, match="coefficient index"):
            Poly(F5, [1, 2]).coeff(i)
    assert Poly(F9, [1, 2]).scale(8) == Poly(F9, [8, F9.mul(8, 2)])
    assert Poly(F5, [1, 2]).coeff(1) == 2 and Poly(F5, [1, 2]).coeff(2) == 0

"""Field construction and exact arithmetic in GF(p) and GF(p^m)."""

import random

import pytest

from sympair import errors, gf


def test_prime_field_basics():
    f5 = gf.prime_field(5)
    assert f5.p == 5 and f5.m == 1 and f5.q == 5
    f2 = gf.prime_field(2)
    assert f2.q == 2


def test_prime_field_rejects_composites():
    for bad in (4, 6, 9, 91):
        with pytest.raises(errors.NotPrimeError):
            gf.prime_field(bad)
    with pytest.raises(errors.BadParameterError):
        gf.prime_field(1)


def test_extension_field_moduli_are_smallest_irreducible():
    f9 = gf.extension_field(3, 2)
    assert f9.q == 9
    assert f9.modulus == (1, 0, 1)  # x^2 + 1
    f8 = gf.extension_field(2, 3)
    assert f8.q == 8
    assert f8.modulus == (1, 1, 0, 1)  # x^3 + x + 1
    f5 = gf.extension_field(5, 1)
    assert f5.q == 5
    assert f5.modulus == (0, 1)  # x


def test_extension_field_rejects_bad_parameters():
    with pytest.raises(errors.NotPrimeError):
        gf.extension_field(4, 2)
    with pytest.raises(errors.BadParameterError):
        gf.extension_field(3, 0)
    # build-time field size limit
    with pytest.raises(errors.OutOfScopeError):
        gf.extension_field(2, 17)


def test_prime_field_arithmetic_examples():
    f5 = gf.prime_field(5)
    assert f5.add(2, 3) == 0
    assert f5.inv(2) == 3
    assert f5.mul(2, 3) == 1
    assert f5.sub(0, 1) == 4
    assert f5.neg(2) == 3
    assert f5.pow(2, 3) == 3
    assert f5.div(1, 2) == 3


def test_extension_field_root_squares_to_modulus_tail():
    # alpha = root of x^2 + 1 over GF(3), canonical value 3; alpha^2 = -1 = 2
    f9 = gf.extension_field(3, 2)
    alpha = f9.from_coords((0, 1))
    assert alpha == 3
    assert f9.mul(alpha, alpha) == 2


def test_inverse_of_zero_raises():
    for field in (gf.prime_field(5), gf.extension_field(3, 2)):
        with pytest.raises(errors.DivisionByZeroError):
            field.inv(0)
        with pytest.raises(errors.DivisionByZeroError):
            field.div(1, 0)


def test_element_range_is_validated():
    f5 = gf.prime_field(5)
    with pytest.raises(errors.BadParameterError):
        f5.check(5)
    with pytest.raises(errors.BadParameterError):
        f5.check(-1)


def test_coords_round_trip_all_elements():
    for field in (gf.prime_field(7), gf.extension_field(3, 2), gf.extension_field(2, 3)):
        for v in range(field.q):
            coords = field.coords(v)
            assert len(coords) == field.m
            assert all(0 <= c < field.p for c in coords)
            assert field.from_coords(coords) == v


def test_field_axioms_on_random_triples():
    rng = random.Random(17)
    fields = [gf.prime_field(2), gf.prime_field(7), gf.extension_field(3, 2),
              gf.extension_field(2, 3), gf.extension_field(7, 2)]
    for field in fields:
        for _ in range(300):
            a, b, c = (rng.randrange(field.q) for _ in range(3))
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            assert field.add(a, field.neg(a)) == 0
            assert field.sub(a, b) == field.add(a, field.neg(b))


def _extension_fields(q_max):
    fields = []
    for p in range(2, q_max):
        if gf.is_prime(p):
            m = 2
            while p ** m <= q_max:
                fields.append(gf.extension_field(p, m))
                m += 1
    return fields


def _towers():
    return [gf.tower_field(gf.extension_field(2, 2), 2), gf.tower_field(gf.extension_field(2, 3), 2),
            gf.tower_field(gf.extension_field(3, 2), 2), gf.tower_field(gf.extension_field(2, 2), 3)]


def _nested_add(field, a, b):
    """Reference sum: coordinates over the immediate base, added there, down
    to the prime field."""
    if field.base is None:
        return (a + b) % field.p
    bq = field.base.q
    return sum(_nested_add(field.base, a // bq ** i % bq, b // bq ** i % bq) * bq ** i
               for i in range(len(field.modulus) - 1))


def _nested_neg(field, a):
    if field.base is None:
        return (-a) % field.p
    bq = field.base.q
    return sum(_nested_neg(field.base, a // bq ** i % bq) * bq ** i
               for i in range(len(field.modulus) - 1))


def test_exp_log_tables_match_schoolbook_walk():
    fields = _extension_fields(4096) + _towers()
    assert len(fields) > 40
    for field in fields:
        field._ensure_tables()
        g = field._gen
        acc = 1
        for i in range(field.q - 1):
            assert field._exp[i] == acc
            assert field._log[acc] == i
            acc = field._mul_raw(acc, g)
        assert acc == 1
        assert len(field._exp) == field.q - 1 and len(field._log) == field.q


def test_table_arithmetic_matches_schoolbook_and_nested_digits():
    # table products are symmetric in a and b, so unordered pairs cover all
    for field in _extension_fields(256) + _towers():
        for a in range(field.q):
            for b in range(a + 1):
                assert field.mul(a, b) == field._mul_raw(a, b)
    for field in _extension_fields(64) + _towers():
        for a in range(field.q):
            assert field.neg(a) == _nested_neg(field, a)
            for b in range(field.q):
                assert field.add(a, b) == _nested_add(field, a, b)
                assert field.sub(a, b) == _nested_add(field, a, _nested_neg(field, b))
    rng = random.Random(23)
    for field in (gf.extension_field(3, 5), gf.extension_field(5, 6), gf.extension_field(2, 12)):
        for _ in range(2000):
            a, b = rng.randrange(field.q), rng.randrange(field.q)
            assert field.mul(a, b) == field._mul_raw(a, b)
            assert field.add(a, b) == _nested_add(field, a, b)
            assert field.sub(a, b) == _nested_add(field, a, _nested_neg(field, b))


def test_every_nonzero_element_has_inverse():
    for field in (gf.prime_field(2), gf.prime_field(47), gf.extension_field(3, 2),
                  gf.extension_field(2, 5), gf.extension_field(7, 2)):
        for v in range(1, field.q):
            assert field.mul(v, field.inv(v)) == 1


def test_primitive_element_examples():
    assert gf.primitive_element(gf.prime_field(5)) == 2
    assert gf.primitive_element(gf.prime_field(7)) == 3
    assert gf.primitive_element(gf.prime_field(2)) == 1


def test_primitive_element_order_exact_by_power_walk():
    for field in (gf.prime_field(5), gf.prime_field(13), gf.extension_field(3, 2),
                  gf.extension_field(2, 4), gf.extension_field(7, 2)):
        g = gf.primitive_element(field)
        seen = set()
        acc = 1
        for _ in range(field.q - 1):
            acc = field.mul(acc, g)
            seen.add(acc)
        assert acc == 1
        assert len(seen) == field.q - 1


def test_primitive_element_is_smallest_with_full_order():
    # canonical tie-break: no smaller element has order q - 1
    for field in (gf.prime_field(7), gf.extension_field(3, 2)):
        g = gf.primitive_element(field)
        assert field.order(g) == field.q - 1
        for v in range(1, g):
            assert field.order(v) < field.q - 1


def test_nth_roots_of_unity_examples():
    assert gf.nth_roots_of_unity(gf.prime_field(7), 3) == [1, 2, 4]
    assert gf.nth_roots_of_unity(gf.prime_field(5), 4) == [1, 2, 3, 4]
    with pytest.raises(errors.NoSuchRootsError):
        gf.nth_roots_of_unity(gf.prime_field(5), 3)


def test_nth_roots_are_distinct_and_annihilated():
    cases = [(gf.prime_field(13), 4), (gf.extension_field(3, 2), 8), (gf.extension_field(2, 4), 5)]
    for field, n in cases:
        roots = gf.nth_roots_of_unity(field, n)
        assert len(roots) == n == len(set(roots))
        assert roots == sorted(roots)
        for r in roots:
            assert field.pow(r, n) == 1


def test_primitive_root_of_unity_has_exact_order():
    field = gf.extension_field(5, 2)
    for n in (2, 3, 4, 6, 8, 12, 24):
        beta = gf.primitive_root_of_unity(field, n)
        assert field.order(beta) == n
        # smallest canonical element of that order
        for v in range(1, beta):
            assert field.order(v) != n


def test_primitive_cube_root_examples():
    assert gf.primitive_cube_root(7) == 2
    assert gf.primitive_cube_root(13) == 3
    with pytest.raises(errors.NoCubeRootError):
        gf.primitive_cube_root(5)


def test_primitive_cube_root_is_smallest_nontrivial():
    for p in (7, 13, 19, 31, 37, 43):
        omega = gf.primitive_cube_root(p)
        field = gf.prime_field(p)
        assert omega != 1
        assert field.pow(omega, 3) == 1
        for v in range(2, omega):
            assert field.pow(v, 3) != 1


def test_field_equality_and_serialization():
    f9 = gf.extension_field(3, 2)
    assert f9.to_dict() == {"p": 3, "m": 2, "modulus": [1, 0, 1]}
    assert gf.prime_field(5).to_dict() == {"p": 5, "m": 1, "modulus": [0, 1]}


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert gf.is_prime(n) == (n in primes)

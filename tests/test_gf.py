"""Field construction and exact arithmetic in GF(p) and GF(p^m)."""

import functools
import operator
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


def test_tower_field_rejects_bad_degrees():
    """r is an integer >= 1 (a bool is not, as in ``extension_field``), and
    an order above ``Q_LIMIT`` is rejected before q^r is computed."""
    F4 = gf.extension_field(2, 2)
    for bad in (0, -1, 1.5, True, "2"):
        with pytest.raises(errors.BadParameterError):
            gf.tower_field(F4, bad)
    for too_big in (9, 17, 2 ** 64):  # 4^9 = 2^18 > Q_LIMIT = 2^16
        with pytest.raises(errors.OutOfScopeError):
            gf.tower_field(F4, too_big)
    assert gf.tower_field(F4, 1) is F4
    assert gf.tower_field(gf.prime_field(2), 2) is F4
    assert gf.tower_field(F4, 2).q == 16
    assert gf.tower_field.cache_info().currsize > 0


def test_prime_field_arithmetic_examples():
    f5 = gf.prime_field(5)
    assert f5.add(2, 3) == 0
    assert f5.inv(2) == 3
    assert f5.mul(2, 3) == 1
    assert f5.sub(0, 1) == 4
    assert f5.neg(2) == 3
    assert f5.pow(2, 3) == 3
    assert f5.div(1, 2) == 3


def test_pow_rejects_bad_exponents():
    """The exponent is an int, not a bool, as in ``poly.powmod``: 1.5 once
    raised TypeError and True answered a^1."""
    tower = gf.tower_field(gf.extension_field(2, 2), 2)
    for field in (gf.prime_field(5), gf.extension_field(3, 2), tower):
        for bad in (1.5, "2", True, None):
            with pytest.raises(errors.BadParameterError, match="exponent"):
                field.pow(2, bad)
        assert field.pow(2, 0) == 1 and field.pow(2, 1) == 2
        assert field.pow(2, -1) == field.inv(2)


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
        with pytest.raises(errors.DivisionByZeroError):
            field.pow(0, -1)
        with pytest.raises(errors.DivisionByZeroError):
            field.order(0)


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


def _nested_mul(field, a, b):
    """Reference product: schoolbook over the immediate base, then x^r
    reduced by the modulus.  A tower multiplies coordinates by the base's
    reference arithmetic; a prime base as plain integers, reduced mod p at
    the end."""
    if field.base is None:
        return a * b % field.p
    base, mod = field.base, field.modulus
    r, bq = len(mod) - 1, base.q
    add, mul, neg = ((operator.add, operator.mul, operator.neg) if base.base is None else
                     (functools.partial(f, base) for f in (_nested_add, _nested_mul, _nested_neg)))
    va, vb = ([v // bq ** i % bq for i in range(r)] for v in (a, b))
    prod = [0] * (2 * r - 1)
    for i, u in enumerate(va):
        for j, v in enumerate(vb):
            if u and v:
                prod[i + j] = add(prod[i + j], mul(u, v))
    for d in range(2 * r - 2, r - 1, -1):  # c x^d = -c (mod - x^r) x^(d-r)
        c, prod[d] = prod[d], 0
        for t in range(r):
            if c and mod[t]:
                prod[d - r + t] = add(prod[d - r + t], neg(mul(c, mod[t])))
    return sum(v % bq * bq ** i for i, v in enumerate(prod[:r]))


def test_exp_log_tables_match_schoolbook_walk():
    """Each extension field's exp, log and Zech tables are read-only tuples
    in the layout ``Field`` documents, built from the orbit of its generator
    under reference products and from reference sums 1 + gen^e."""
    fields = _extension_fields(4096) + _towers()
    assert len(fields) > 40
    for field in fields:
        q1 = field.q - 1
        exp, log, zech = field.exp, field.log, field.zech
        assert all(isinstance(table, tuple) for table in (exp, log, zech))
        assert len(exp) == 3 * q1 and len(log) == field.q and len(zech) == 2 * q1
        assert exp[q1:2 * q1] == exp[:q1] and exp[2 * q1:] == (0,) * q1
        assert zech[q1:] == zech[:q1]
        g = gf.primitive_element(field)
        acc = 1
        for i in range(q1):
            assert exp[i] == acc
            assert log[acc] == i
            one_plus = _nested_add(field, 1, acc)
            assert zech[i] == (log[one_plus] if one_plus else 2 * q1)
            acc = _nested_mul(field, acc, g)
        assert acc == 1
        assert log[0] == 0
    f7 = gf.prime_field(7)
    assert (f7.exp, f7.log, f7.zech) == (None, None, None)


def test_table_arithmetic_matches_schoolbook_and_nested_digits():
    """``add``, ``sub``, ``neg``, ``mul``, ``inv`` and ``pow`` of extension
    and tower fields against the reference: digit-wise sums and schoolbook
    products.  Every pair over small fields and towers; products of every
    pair up to order 256; 3000 random pairs over large fields, about 10%
    zeros and 600 cancellations a - a and a + (-a)."""
    # products are symmetric in a and b, so unordered pairs cover all
    for field in _extension_fields(256):
        for a in range(field.q):
            for b in range(a + 1):
                assert field.mul(a, b) == _nested_mul(field, a, b)
    cases = [(F, [(a, b) for a in range(F.q) for b in range(F.q)])
             for F in _extension_fields(64) + _towers()]
    rng = random.Random(29)
    for p, m in ((3, 5), (5, 6), (2, 12), (2, 16), (3, 10), (251, 2)):
        F = gf.extension_field(p, m)
        draws = [rng.randrange(F.q) if rng.random() > 0.1 else 0 for _ in range(6000)]
        pairs = list(zip(draws[::2], draws[1::2]))
        pairs[:300] = [(a, a) for a, _ in pairs[:300]]
        pairs[300:600] = [(a, _nested_neg(F, a)) for a, _ in pairs[300:600]]
        cases.append((F, pairs))
    for F, pairs in cases:
        for a, b in pairs:
            assert F.add(a, b) == _nested_add(F, a, b), (F, a, b)
            assert F.sub(a, b) == _nested_add(F, a, _nested_neg(F, b)), (F, a, b)
            assert F.mul(a, b) == _nested_mul(F, a, b), (F, a, b)
        for a in {a for a, _ in pairs}:
            assert F.neg(a) == _nested_neg(F, a)
            if a:
                assert _nested_mul(F, a, F.inv(a)) == 1
                assert F.pow(a, -1) == F.inv(a)
                assert F.pow(a, -2) == _nested_mul(F, F.inv(a), F.inv(a))


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
    with pytest.raises(errors.OutOfScopeError):
        gf.tower_field(gf.extension_field(2, 2), 2).to_dict()


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert gf.is_prime(n) == (n in primes)

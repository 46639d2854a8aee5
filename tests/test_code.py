"""Constacyclic codes, the symbol-pair metric, and the distance engines."""

import dataclasses
import functools
import hashlib
import itertools
import random

import numpy as np
import pytest

import sympair
from sympair import bounds, code, constructions, errors, gf, poly
from sympair.code import ConstacyclicCode
from sympair.poly import Poly

F2 = gf.prime_field(2)
F3 = gf.prime_field(3)
F5 = gf.prime_field(5)
F7 = gf.prime_field(7)


def _example_15_11():
    x = Poly.x(F5)
    one = Poly.one(F5)
    return ConstacyclicCode.from_generator(F5, 15, 1, (x - one) * (x**3 - one))


def _example_21_14():
    x = Poly.x(F7)
    one = Poly.one(F7)
    g = (x - one) ** 4 * (x - Poly(F7, [2])) ** 2 * (x - Poly(F7, [4]))
    return ConstacyclicCode.from_generator(F7, 21, 1, g)


def _example_24_3():
    return ConstacyclicCode.from_defining_set(F5, 24, set(range(24)) - {0, 19, 23})


def _field_dot(field, a, b):
    total = 0
    for x, y in zip(a, b):
        total = field.add(total, field.mul(x, y))
    return total


WITNESS_21 = (6, 4, 1, 1, 0, 0, 0, 0, 0, 0, 3, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0)


def test_from_generator_dimensions():
    assert _example_15_11().k == 11
    assert _example_21_14().k == 14
    c = ConstacyclicCode.from_generator(F5, 4, 1, Poly(F5, [1, 0, 1]))
    assert c.k == 2


def test_from_generator_rejects_non_divisor():
    with pytest.raises(errors.NotDivisorError):
        ConstacyclicCode.from_generator(F5, 4, 1, Poly(F5, [2, 0, 1]))
    with pytest.raises(errors.BadParameterError):
        ConstacyclicCode.from_generator(F5, 4, 1, Poly(F5, [2, 0, 2]))
    with pytest.raises(errors.BadParameterError):
        ConstacyclicCode.from_generator(F5, 4, 0, Poly(F5, [1, 0, 1]))


#: Built before the rejection test disables the construction walk.
CODE_7_4 = ConstacyclicCode(F2, 7, 1, Poly(F2, (1, 1, 0, 1)))
CODE_1_1 = ConstacyclicCode(F2, 1, 1, Poly.one(F2))


@pytest.mark.parametrize("call, error", [
    (lambda: ConstacyclicCode(F2, 7, 1, (1, 1, 0, 1)), errors.BadParameterError),
    (lambda: ConstacyclicCode(F2, 7, 1, Poly(F3, (1, 1))), errors.BadParameterError),
    (lambda: ConstacyclicCode(F2, 7, 1, Poly(F2, (1,) + (0,) * 7 + (1,))),
     errors.NotDivisorError),
    # 4096 x 8192 cells of H: rejected before the walk reads the row update
    (lambda: ConstacyclicCode(F2, 8192, 1, Poly(F2, (1,) + (0,) * 4095 + (1,))),
     errors.OutOfScopeError),
    (lambda: CODE_7_4.is_member((0,) * 6), errors.LengthMismatchError),
    (lambda: CODE_7_4.is_member((0,) * 8), errors.LengthMismatchError),
    (lambda: code.min_pair_distance(CODE_1_1), errors.LengthTooShortError),
], ids=["generator-not-poly", "generator-other-field", "degree-above-n", "h-cell-limit",
        "member-short", "member-long", "pair-distance-n-1"])
def test_constructor_and_word_helpers_reject_bad_input(call, error, monkeypatch):
    monkeypatch.setattr(code, "_axpy", None)  # each check comes before any walk
    with pytest.raises(error):
        call()


def test_divisor_check_and_columns_match_polynomial_division():
    """Differential test of the construction walk against plain division:
    the code exists exactly when g divides x^n - lambda, and column j of H
    is x^j mod g."""
    rng = random.Random(19)
    for F in (F2, F5, gf.extension_field(2, 2), gf.extension_field(3, 2)):
        x = Poly.x(F)
        for n in range(1, 13):
            for lam in range(1, F.q):
                binomial = poly.binomial(F, n, lam)
                factors = poly.factor(binomial).factors
                gens = [Poly.one(F), binomial]
                for _ in range(3):  # random divisors
                    divisor = Poly.one(F)
                    for f, m in factors:
                        divisor = divisor * f ** rng.randrange(m + 1)
                    gens.append(divisor)
                for d in range(n + 1):
                    for _ in range(2):
                        gens.append(Poly(F, [rng.randrange(F.q) for _ in range(d)] + [1]))
                for g in gens:
                    if not (binomial % g).is_zero():
                        with pytest.raises(errors.NotDivisorError):
                            ConstacyclicCode(F, n, lam, g)
                        continue
                    c = ConstacyclicCode(F, n, lam, g)
                    if not 1 <= c.k <= n - 1:
                        continue
                    H = c.parity_check_matrix()
                    for j in range(n):
                        col = (x ** j % g).coeffs
                        assert H[:, j].tolist() == list(col) + [0] * (n - c.k - len(col))


#: Extension fields for the row-update tests: (p, m) of orders 4 to 2187;
#: one row update, over one Zech column per field, serves them all.
EXTENSION_FIELDS = [(2, 2), (3, 2), (2, 8), (5, 2), (2, 11), (3, 7)]


@pytest.mark.parametrize("p, m", EXTENSION_FIELDS)
def test_extension_field_columns_match_polynomial_division(p, m):
    """The construction walk's Zech-logarithm row update: column j of H is
    x^j mod g, for g a product of random roots c z of x^n - c^n (z over the
    n-th roots of unity, n the largest divisor of q - 1 up to 24) and for the
    dense g = (x^7 - c^7) / (x - c)."""
    F = gf.extension_field(p, m)
    x = Poly.x(F)
    rng = random.Random(F.q)
    n = max(d for d in range(1, 25) if (F.q - 1) % d == 0)
    c = rng.randrange(2, F.q)
    roots = [F.mul(c, z) for z in gf.nth_roots_of_unity(F, n)]
    codes = []
    for size in sorted({1, n // 2, n - 1} - {0}):
        g = Poly.one(F)
        for root in rng.sample(roots, size):
            g = g * (x - Poly(F, [root]))
        codes.append((n, F.pow(c, n), g))
    codes.append((7, F.pow(c, 7), poly.binomial(F, 7, F.pow(c, 7)) // (x - Poly(F, [c]))))
    for length, lam, g in codes:
        H = ConstacyclicCode(F, length, lam, g).parity_check_matrix()
        for j in range(length):
            col = (x ** j % g).coeffs
            assert H[:, j].tolist() == list(col) + [0] * (g.degree - len(col))


@pytest.mark.parametrize("p, m", EXTENSION_FIELDS)
def test_dependency_search_over_extension_fields_matches_codewords(p, m):
    """The dependency search's Zech-logarithm row updates: on k = 1 codes,
    g = (x^n - c^n) / (x - c), both distances equal a pass over every
    codeword."""
    F = gf.extension_field(p, m)
    x = Poly.x(F)
    rng = random.Random(F.q)
    for n in (2, 3, 5, 6):
        root = rng.randrange(1, F.q)
        lam = F.pow(root, n)
        g = poly.binomial(F, n, lam) // (x - Poly(F, [root]))
        c = ConstacyclicCode(F, n, lam, g)
        assert c.k == 1
        words = [w for w in c.codewords() if any(w)]
        hamming = code.min_hamming_distance(c, "dependency")
        pair = code.min_pair_distance(c, "dependency")
        assert hamming.value == min(map(code.hamming_weight, words))
        assert pair.value == min(map(code.pair_weight, words))


def test_axpy_matches_field_arithmetic():
    """``_axpy(F)(w, c, u's nonzeros)`` is w_i - c u_i entry by entry, over
    prime, extension and tower fields, zero results included."""
    fields = [F7, gf.extension_field(2, 16), gf.tower_field(gf.extension_field(2, 2), 2)]
    fields += [gf.extension_field(p, m) for p, m in EXTENSION_FIELDS]
    rng = random.Random(21)
    for F in fields:
        axpy = code._axpy(F)
        for _ in range(200):
            n = rng.randrange(1, 10)
            u = [rng.randrange(F.q) if rng.random() < 0.7 else 0 for _ in range(n)]
            c = rng.randrange(1, F.q)
            # some entries are c u_i already, so their update is 0
            w = [F.mul(c, b) if rng.random() < 0.3 else rng.randrange(F.q) for b in u]
            nonzeros = [(i, b) for i, b in enumerate(u) if b]
            assert axpy(w, c, nonzeros) == [F.sub(a, F.mul(c, b)) for a, b in zip(w, u)]


def test_zech_column_is_built_once_per_field():
    """Building a code over GF(2^8), running both dependency searches and
    two bounded scans reads the field's own Zech column, built once with the
    field: the row update holds the field's tables.  The message side's
    additive form is built once per field, its exp and log the field's own
    tables, whole, as int32."""
    F = gf.extension_field(2, 8)
    x = Poly.x(F)
    tables = F.exp, F.log, F.zech
    for cached in (code._axpy, code._additive):
        cached.cache_clear()  # so everything is built here
    root = gf.primitive_element(F)
    g = poly.binomial(F, 5, F.pow(root, 5)) // (x - Poly(F, [root]))
    c = ConstacyclicCode(F, 5, F.pow(root, 5), g)
    code.min_hamming_distance(c, "dependency")
    code.min_pair_distance(c, "dependency")
    code.min_pair_distance(c, "bounded")
    code.min_hamming_distance(ConstacyclicCode(F, 5, F.pow(root, 5), g), "bounded")
    assert code._additive.cache_info().misses == 1
    assert code._axpy.cache_info().misses == 1
    held = [cell.cell_contents for cell in code._axpy(F).__closure__]
    assert all(any(table is h for h in held) for table in tables)
    assert all(a is b for a, b in zip((F.exp, F.log, F.zech), tables))
    exp, log = code._additive(F).logs
    assert exp.dtype == log.dtype == np.int32
    assert exp.tolist() == list(F.exp) and log.tolist() == list(F.log)


def _gf2048_code(k):
    """The GF(2^11) [23, k] cyclic code whose generator has every 23rd root of
    unity but the last k as roots."""
    F = gf.extension_field(2, 11)
    x = Poly.x(F)
    g = Poly.one(F)
    for root in gf.nth_roots_of_unity(F, 23)[:-k]:
        g = g * (x - Poly(F, [root]))
    return ConstacyclicCode(F, 23, 1, g)


def test_scans_run_above_order_1024():
    """Both message-side scans run over GF(2^11).  ``auto`` scans the 2047
    codewords of the [23, 1] code on both sides, where the dependency search
    proves the same d_H = 23 in 24,117,248 column reductions.  The [23, 3]
    code is MDS, d_H = n - k + 1 = 21, so its d_p is d_H + 1
    (``pair_distance_floor``); a budget stops the scan at its window floor."""
    c1 = _gf2048_code(1)
    assert c1.k == 1
    for distance, for_pair in ((code.min_hamming_distance, False),
                               (code.min_pair_distance, True)):
        assert code._resolve_strategy(c1, "auto", for_pair=for_pair) == "exhaustive"
        result = distance(c1)
        assert (result.value, result.method, result.enumeration_count) == (23, "exhaustive", 2047)
        assert distance(c1, "bounded").value == 23
    c3 = _gf2048_code(3)
    assert c3.k == 3
    hamming, pair = code.min_hamming_distance(c3), code.min_pair_distance(c3, "bounded")
    assert (hamming.value, hamming.method, hamming.enumeration_count) == (21, "bounded_weight", 6144)
    assert (pair.value, pair.method, pair.enumeration_count) == (22, "bounded_weight", 3)
    floor = bounds.pair_distance_floor(23, 3, hamming.value)
    assert floor.exact and pair.value == floor.lower_bound == c3.n - c3.k + 2
    for distance, for_pair, budget, level in ((code.min_hamming_distance, False, 5000, 2),
                                              (code.min_pair_distance, True, 2, 1)):
        with pytest.raises(errors.BudgetExceededError) as err:
            distance(c3, budget=budget)
        assert err.value.lower_bound == code._window_floor(23, 3, level, for_pair)


def test_from_defining_set_examples():
    c = _example_24_3()
    assert (c.n, c.k) == (24, 3)
    assert c.defining_set() == frozenset(range(24)) - {0, 19, 23}

    c84 = ConstacyclicCode.from_defining_set(F3, 8, {0, 1, 3, 4})
    assert (c84.n, c84.k) == (8, 4)

    trivial = ConstacyclicCode.from_defining_set(F5, 6, set())
    assert trivial.k == 6
    assert trivial.g == Poly.one(F5)


def test_from_defining_set_validation():
    with pytest.raises(errors.NotCoprimeError):
        ConstacyclicCode.from_defining_set(F3, 6, {0})
    # {1} is not closed under multiplication by 3 mod 8
    with pytest.raises(errors.NotUnionOfCosetsError):
        ConstacyclicCode.from_defining_set(F3, 8, {1})
    expanded = ConstacyclicCode.from_defining_set(F3, 8, {1}, expand=True)
    assert expanded.defining_set() == frozenset({1, 3})
    with pytest.raises(errors.BadParameterError, match="True"):
        ConstacyclicCode.from_defining_set(F2, 3, [True])


@pytest.mark.parametrize("p, m, n", [(2, 1, 7), (2, 1, 15), (3, 1, 8), (3, 1, 13),
                                     (2, 2, 5), (2, 2, 15), (5, 1, 6), (5, 1, 12)])
def test_recorded_defining_set_matches_the_generator(p, m, n):
    # from_defining_set keeps the T it built g from; a code rebuilt from g
    # alone derives its set, and the two must agree on every coset union
    field = gf.extension_field(p, m)
    cosets = poly.cyclotomic_cosets(n, field.q)
    for chosen in itertools.product((False, True), repeat=len(cosets)):
        T = {j for c, keep in zip(cosets, chosen) if keep for j in c.members}
        built = ConstacyclicCode.from_defining_set(field, n, T)
        rebuilt = ConstacyclicCode(field, n, 1, built.g)
        assert built.defining_set() == rebuilt.defining_set() == frozenset(T)


def test_a_defining_set_cannot_be_handed_to_the_constructor():
    # a set handed in beside g would not be checked against g: T = {1..6} on
    # the binary [7,4,3] Hamming code makes the BCH and HT bounds claim 7
    g = Poly(F2, (1, 1, 0, 1))
    with pytest.raises(TypeError):
        ConstacyclicCode(F2, 7, 1, g, defining_set=frozenset(range(1, 7)))
    assert ConstacyclicCode(F2, 7, 1, g).defining_set() == frozenset({1, 2, 4})


def test_encode_basics():
    c = _example_15_11()
    assert c.encode([0] * 11) == (0,) * 15
    e0 = [1] + [0] * 10
    assert c.encode(e0) == tuple(c.g.coeffs) + (0,) * (15 - len(c.g.coeffs))
    with pytest.raises(errors.LengthMismatchError):
        c.encode([0] * 10)


def test_encode_is_linear():
    rng = random.Random(53)
    c = _example_15_11()
    for _ in range(50):
        m1 = [rng.randrange(5) for _ in range(11)]
        m2 = [rng.randrange(5) for _ in range(11)]
        s = [F5.add(a, b) for a, b in zip(m1, m2)]
        summed = tuple(F5.add(a, b) for a, b in zip(c.encode(m1), c.encode(m2)))
        assert c.encode(s) == summed


def test_membership_witness_codeword():
    c = _example_21_14()
    assert c.is_member(WITNESS_21)
    assert not c.is_member((1,) + (0,) * 20)
    rng = random.Random(59)
    for _ in range(25):
        m = [rng.randrange(7) for _ in range(14)]
        assert c.is_member(c.encode(m))


def test_constacyclic_shift_examples():
    assert code.constacyclic_shift(F5, 1, (1, 2, 3)) == (3, 1, 2)
    assert code.constacyclic_shift(F3, 2, (1, 0, 0)) == (0, 1, 0)
    assert code.constacyclic_shift(F3, 2, (0, 0, 1)) == (2, 0, 0)
    # lambda is checked (canonical and nonzero) on every word, the empty one too
    for lam in (0, 5, -1, True):
        for word in ((1, 2, 3), ()):
            with pytest.raises(errors.BadParameterError):
                code.constacyclic_shift(F5, lam, word)


def test_n_shifts_scale_by_lambda():
    rng = random.Random(61)
    for lam in (2, 3, 4):
        word = tuple(rng.randrange(5) for _ in range(6))
        out = word
        for _ in range(6):
            out = code.constacyclic_shift(F5, lam, out)
        assert out == tuple(F5.mul(lam, s) for s in word)


def test_shift_closure_on_codewords():
    rng = random.Random(67)
    # cyclic example and a genuinely constacyclic one (lambda = 2 over GF(5))
    neg_g = poly.factor(poly.binomial(F5, 8, 2)).factors[0][0]
    cases = [_example_15_11(), ConstacyclicCode.from_generator(F5, 8, 2, neg_g)]
    for c in cases:
        for _ in range(40):
            m = [rng.randrange(c.field.q) for _ in range(c.k)]
            w = c.shift(c.encode(m))
            assert c.is_member(w)


def test_pair_read_vector_examples():
    assert code.pair_read_vector((1, 2, 0)) == ((1, 2), (2, 0), (0, 1))
    assert code.pair_read_vector((0, 0, 0, 0)) == ((0, 0),) * 4
    assert code.pair_read_vector((3, 3, 3)) == ((3, 3),) * 3
    with pytest.raises(errors.LengthTooShortError):
        code.pair_read_vector((1,))


def test_pair_weight_examples():
    assert code.pair_weight((1, 0, 0, 1, 1)) == 4
    assert code.pair_weight(WITNESS_21) == 8
    assert code.pair_weight((1, 2, 3, 4)) == 4
    assert code.pair_weight((0, 0, 0)) == 0
    assert code.pair_weight((0, 5, 0, 0)) == 2


def test_pair_distance_examples():
    a = (1, 2, 0, 4)
    assert code.pair_distance(a, a) == 0
    b = (1, 2, 3, 4)
    assert code.pair_distance(a, b) == 2


def test_pair_metric_identities_random():
    rng = random.Random(71)
    for _ in range(500):
        q = rng.choice([2, 3, 5, 7])
        field = gf.prime_field(q)
        n = rng.randrange(2, 31)
        a = tuple(rng.randrange(q) for _ in range(n))
        b = tuple(rng.randrange(q) for _ in range(n))
        pairs = code.pair_read_vector(a)
        # run formula agrees with the raw definition d_H(pi(a), pi(0))
        definitional = sum(1 for p in pairs if p != (0, 0))
        assert code.pair_weight(a) == definitional
        diff = tuple(field.sub(x, y) for x, y in zip(a, b))
        assert code.pair_distance(a, b) == code.pair_weight(diff)
        # sandwich relation on the weight level
        w = code.hamming_weight(a)
        if 0 < w < n:
            assert w + 1 <= code.pair_weight(a) <= 2 * w


def test_min_hamming_distance_reference_codes():
    r = code.min_hamming_distance(_example_24_3(), "exhaustive")
    assert (r.value, r.method, r.certified) == (19, "exhaustive", True)
    assert r.enumeration_count == 124

    assert code.min_hamming_distance(_example_15_11()).value == 3

    c3 = _example_21_14()
    cast = code.min_hamming_distance(c3, "auto")
    assert (cast.value, cast.method, cast.certified) == (5, "castagnoli", True)
    found = code.min_hamming_distance(c3, "bounded")
    assert (found.value, found.certified, found.is_lower_bound) == (5, True, False)


def test_binary_quadratic_residue_code_47():
    # g is the first degree-23 factor of x^47 - 1 (its defining set would need
    # GF(2^23)); (11, 17) was confirmed once by an exhaustive scan of all
    # 2^24 - 1 nonzero codewords
    g = next(f for f, _m in poly.factor(poly.binomial(F2, 47, 1)).factors if f.degree == 23)
    assert g.coeffs == (1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1)
    qr = ConstacyclicCode.from_generator(F2, 47, 1, g)
    assert qr.k == 24
    dh = code.min_hamming_distance(qr)
    assert (dh.value, dh.method, dh.enumeration_count) == (11, "bounded_weight", 55454)
    dp = code.min_pair_distance(qr)
    assert (dp.value, dp.method, dp.enumeration_count) == (17, "bounded_weight", 536154)


def test_method_names_are_not_strategies():
    # "castagnoli" and "bounded_weight" are reported methods only
    for strategy in ("castagnoli", "bounded_weight"):
        for engine in (code.min_hamming_distance, code.min_pair_distance):
            with pytest.raises(errors.BadParameterError, match="unknown strategy"):
                engine(_example_15_11(), strategy)


def test_distance_result_constants_and_key_order():
    r = code.DistanceResult(5, "dependency", 42)
    assert (r.certified, r.is_lower_bound) == (True, False)
    assert list(r.to_dict().items()) == [
        ("value", 5), ("method", "dependency"), ("certified", True),
        ("enumeration_count", 42), ("is_lower_bound", False)]
    assert [f.name for f in dataclasses.fields(r)] == ["value", "method", "enumeration_count"]


def test_budget_exceeded_carries_progress():
    with pytest.raises(errors.BudgetExceededError) as exc_info:
        code.min_hamming_distance(_example_24_3(), "exhaustive", budget=10)
    err = exc_info.value
    assert err.lower_bound >= 1
    assert err.enumerated <= 10


def test_min_pair_distance_reference_codes():
    assert code.min_pair_distance(_example_15_11()).value == 6
    r = code.min_pair_distance(_example_24_3(), "exhaustive")
    assert (r.value, r.certified) == (23, True)


def test_strategy_agreement_small_codes():
    # every nontrivial divisor code of x^n - lambda for a spread of shapes
    cases = [(F2, 7, 1), (F3, 6, 1), (F3, 8, 1), (F5, 6, 1), (F5, 4, 4), (F5, 10, 1),
             (F4, 5, 1), (F4, 6, 1), (F9, 4, 1), (F9, 5, 2)]
    checked = 0
    for field, n, lam in cases:
        for c in code.divisor_codes(field, n, lam):
            if c.k == n or field.q**c.k > 200_000:
                continue
            dh_ex = code.min_hamming_distance(c, "exhaustive")
            dh_bd = code.min_hamming_distance(c, "bounded")
            assert dh_ex.value == dh_bd.value
            assert dh_bd.certified
            dp_ex = code.min_pair_distance(c, "exhaustive")
            dp_bd = code.min_pair_distance(c, "bounded")
            assert dp_ex.value == dp_bd.value
            assert dp_bd.certified
            if 0 < dh_ex.value < n:
                assert dh_ex.value + 1 <= dp_ex.value <= 2 * dh_ex.value
            checked += 1
    assert checked >= 40


def test_pair_distance_pairs_dominate_minimum():
    rng = random.Random(73)
    c = _example_15_11()
    dp = code.min_pair_distance(c).value
    for _ in range(200):
        a = c.encode([rng.randrange(5) for _ in range(11)])
        b = c.encode([rng.randrange(5) for _ in range(11)])
        if a != b:
            assert code.pair_distance(a, b) >= dp


def test_matrices_orthogonal_and_full_rank():
    c = _example_15_11()
    G = c.generator_matrix()
    H = c.parity_check_matrix()
    assert G.shape == (11, 15)
    assert H.shape == (4, 15)
    assert np.all((G @ H.T) % 5 == 0)
    # standard form has an identity block on the information set, so rank(G) = k
    S = c.standard_form()
    assert np.array_equal(S[:, :11], np.eye(11, dtype=S.dtype))

    c84 = ConstacyclicCode.from_defining_set(F3, 8, {0, 1, 3, 4})
    assert c84.parity_check_matrix().shape == (4, 8)


def test_parity_check_matrix_is_built_once_and_read_only():
    cases = [ConstacyclicCode.from_generator(F4, 5, 1, Poly(F4, [1, 2, 1])),
             ConstacyclicCode.from_generator(
                 F5, 24, 2, Poly(F5, [4, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 1]))]
    for c in cases:
        F = c.field
        H = c.parity_check_matrix()
        assert c.parity_check_matrix() is H
        assert not H.flags.writeable
        assert H.shape == (c.n - c.k, c.n)
        for g_row in c.generator_matrix().tolist():
            for h_row in H.tolist():
                assert _field_dot(F, g_row, h_row) == 0


def test_generator_matrix_rows_are_shifts_of_g():
    c = _example_15_11()
    G = c.generator_matrix()
    g_coeffs = list(c.g.coeffs)
    for i in range(c.k):
        row = [0] * i + g_coeffs + [0] * (15 - i - len(g_coeffs))
        assert list(G[i]) == row


def test_degenerate_codes_rejected():
    full = ConstacyclicCode.from_defining_set(F5, 6, set())
    with pytest.raises(errors.DegenerateCodeError):
        full.parity_check_matrix()
    zero = ConstacyclicCode.from_generator(F5, 6, 1, poly.binomial(F5, 6, 1))
    assert zero.k == 0
    with pytest.raises(errors.ZeroCodeError):
        code.min_hamming_distance(zero)
    with pytest.raises(errors.ZeroCodeError):
        code.min_pair_distance(zero)


def test_codewords_enumerates_whole_code():
    c = ConstacyclicCode.from_defining_set(F3, 8, {0, 1, 3, 4})
    words = list(c.codewords())
    assert len(words) == 3**4
    assert len(set(words)) == 3**4
    assert all(c.is_member(w) for w in words)


def test_castagnoli_path_honours_budget():
    built = constructions.mds_3p_6(7, "bounds").code  # product formula already cached
    fresh = ConstacyclicCode(built.field, built.n, built.lam, built.g)
    for c in (fresh, built):
        with pytest.raises(errors.BudgetExceededError) as exc_info:
            code.min_hamming_distance(c, budget=1)
        assert exc_info.value.enumerated <= 1
        r = code.min_hamming_distance(c, budget=3)
        assert (r.value, r.method, r.enumeration_count) == (3, "castagnoli", 3)


def test_cached_product_formula_leaves_enumeration_independent():
    x, one = Poly.x(F5), Poly.one(F5)
    c = ConstacyclicCode.from_generator(F5, 15, 1, (x - one) ** 4 * (x**2 + x + one) ** 3)
    cast = code.min_hamming_distance(c)
    assert cast.method == "castagnoli"
    for strategy in ("exhaustive", "bounded"):
        r = code.min_hamming_distance(c, strategy)
        assert r.method != "castagnoli"
        assert r.enumeration_count > 0
        assert r.value == cast.value


def test_repeated_root_split_is_arithmetic():
    assert _example_15_11().repeated_root_split == (3, 1)
    assert _example_21_14().repeated_root_split == (3, 1)
    assert _example_24_3().repeated_root_split is None  # simple root
    pure = ConstacyclicCode.from_generator(F3, 9, 1, Poly(F3, [2, 1]))
    assert pure.repeated_root_split is None  # n = p^e
    neg_g = poly.factor(poly.binomial(F5, 10, 2)).factors[0][0]
    assert ConstacyclicCode.from_generator(F5, 10, 2, neg_g).repeated_root_split is None


def test_as_word_validates_symbols():
    assert code.as_word(F5, [1, 2, 3]) == (1, 2, 3)
    with pytest.raises(errors.BadParameterError):
        code.as_word(F5, [1, 5])


def test_is_simple_root_and_is_cyclic_flags():
    assert _example_24_3().is_simple_root
    assert _example_24_3().is_cyclic
    assert not _example_15_11().is_simple_root
    assert _example_15_11().is_cyclic
    neg_g = poly.factor(poly.binomial(F5, 8, 2)).factors[0][0]
    neg = ConstacyclicCode.from_generator(F5, 8, 2, neg_g)
    assert not neg.is_cyclic
    assert neg.defining_set() is None


def test_divisor_codes_order():
    # x^3 - 1 = (x + 1)(x^2 + x + 1) over GF(2): multiplicity vectors (0, 0),
    # (0, 1), (1, 0); (1, 1) would be the zero code
    assert [c.g for c in code.divisor_codes(F2, 3, 1)] == [
        Poly.one(F2), Poly(F2, [1, 1, 1]), Poly(F2, [1, 1])]
    # x^3 - 2 = (x + 1)^3 over GF(3)
    x_plus_1 = Poly(F3, [1, 1])
    assert [(c.lam, c.g) for c in sympair.divisor_codes(F3, 3, 2)] == [
        (2, Poly.one(F3)), (2, x_plus_1), (2, x_plus_1 ** 2)]


# ----------------------------------------------------------------------
# parity-side dependency search

F4 = gf.extension_field(2, 2)
F8 = gf.extension_field(2, 3)
F9 = gf.extension_field(3, 2)

#: field -> lengths of the differential corpus (every lambda, every divisor)
DIFFERENTIAL_LENGTHS = {
    F2: range(2, 13), F3: range(2, 10), F4: range(2, 8), F5: range(2, 8),
    F7: range(2, 7), F8: range(2, 6), F9: range(2, 6),
}


def _support_levels(n, k, for_pair):
    """Brute-force reference for the dependency search's worst case per level:
    supports S of 0..n-2 with 0 in S and |S| <= n - k + 1, counted by cost."""
    r = n - k
    costs = []
    for mask in range(1 << (n - 1)):
        S = [i for i in range(n - 1) if mask >> i & 1]
        if not S or S[0] != 0 or len(S) > r + 1:
            continue
        runs = sum(1 for i in S if i - 1 not in S)
        costs.append(len(S) + runs if for_pair else len(S))
    first = 2 if for_pair else 1
    last = (r + 2 if for_pair else r + 1) if k >= 2 else (n if for_pair else n - 1)
    levels = [(D, sum(1 for c in costs if c <= D)) for D in range(first, last + 1)]
    if k >= 2:
        levels[-1] = (last, min(levels[-1][1], 1 + r * (n - 2)))
    return levels


def test_dependency_matches_enumeration_on_constacyclic_corpus():
    codes = 0
    for field, lengths in DIFFERENTIAL_LENGTHS.items():
        for n in lengths:
            for lam in range(1, field.q):
                for c in code.divisor_codes(field, n, lam):
                    reference = "exhaustive" if field.q**c.k <= 1 << 16 else "bounded"
                    dh = code.min_hamming_distance(c, "dependency")
                    dp = code.min_pair_distance(c, "dependency")
                    assert (dh.method, dp.method) == ("dependency", "dependency")
                    assert dh.certified and dp.certified
                    for r, for_pair in ((dh, False), (dp, True)):
                        worst = sum(w for _D, w in _support_levels(n, c.k, for_pair))
                        assert r.enumeration_count <= worst
                    assert dh.value == code.min_hamming_distance(c, reference).value, c
                    assert dp.value == code.min_pair_distance(c, reference).value, c
                    if reference == "exhaustive":  # the window rule against the full scan
                        assert dh.value == code.min_hamming_distance(c, "bounded").value, c
                        assert dp.value == code.min_pair_distance(c, "bounded").value, c
                    assert code.min_pair_distance(c).value == dp.value
                    S = c.standard_form()
                    assert np.array_equal(S[:, :c.k], np.eye(c.k, dtype=S.dtype)), c
                    assert all(c.is_member(row) for row in S.tolist()), c
                    if c.k < n:  # H has full rank: its first n - k columns are x^j mod g = x^j
                        H = c.parity_check_matrix()
                        assert H.shape == (n - c.k, n)
                        assert np.array_equal(H[:, :n - c.k], np.eye(n - c.k, dtype=H.dtype))
                        assert all(_field_dot(field, h, row) == 0
                                   for h in H.tolist() for row in S.tolist()), c
                    codes += 1
    assert codes == 770


def test_dependency_level_sizes_match_brute_force():
    for n in range(2, 12):
        for k in range(1, n + 1):
            for for_pair in (False, True):
                assert list(code._dependency_levels(n, k, for_pair)) == _support_levels(n, k, for_pair)


def test_dependency_budget_stops_at_first_unfinished_level():
    c = constructions.mds_3p_6(5, "bounds").code
    for distance, first in ((code.min_pair_distance, 2), (code.min_hamming_distance, 1)):
        full = distance(c, "dependency")
        levels = _support_levels(c.n, c.k, distance is code.min_pair_distance)
        assert levels[0][0] == first
        done = 0  # column reductions spent on the levels finished so far
        for level, worst in levels:
            with pytest.raises(errors.BudgetExceededError) as exc_info:
                distance(c, "dependency", budget=done + worst - 1)
            assert exc_info.value.lower_bound == level
            assert exc_info.value.enumerated == done
            try:
                result = distance(c, "dependency", budget=done + worst)
            except errors.BudgetExceededError as exc:
                assert exc.lower_bound == level + 1
                assert done < exc.enumerated <= done + worst
                done = exc.enumerated
            else:
                assert result == full
                assert level == full.value
                break
        else:
            pytest.fail("the search never finished")


def test_dependency_counts_are_deterministic():
    for build in (lambda: constructions.mds_3p_8(7, "bounds").code,
                  lambda: constructions.mds_n_6(9, 16, "bounds").code):
        first, second = build(), build()
        for distance in (code.min_hamming_distance, code.min_pair_distance):
            a = distance(first, "dependency")
            b = distance(second, "dependency")
            assert a == b
            assert a.enumeration_count > 0


def test_dependency_full_support_only_codes():
    # k = 1 codes whose only nonzero supports are Z_n: every level is scanned
    # to the end, so the count is the whole worst case, and the answer is n
    cases = [(F3, 5, 1), (F5, 6, 1), (F5, 3, 2), (F4, 5, 1), (F9, 4, 1)]
    for field, n, lam in cases:
        full = [c for c in code.divisor_codes(field, n, lam) if c.k == 1
                and code.min_hamming_distance(c, "exhaustive").value == n]
        assert full, (field, n, lam)
        for c in full:
            for distance, for_pair in ((code.min_hamming_distance, False),
                                       (code.min_pair_distance, True)):
                r = distance(c, "dependency")
                assert r.value == n
                assert r.enumeration_count == sum(w for _D, w in _support_levels(n, 1, for_pair))


def test_auto_picks_the_side_with_the_smaller_worst_case():
    assert code.min_pair_distance(_example_24_3()).method == "exhaustive"
    assert code.min_hamming_distance(_example_24_3()).method == "exhaustive"
    assert code.min_pair_distance(_example_15_11()).method == "dependency"
    assert code.min_hamming_distance(_example_15_11()).method == "castagnoli"
    low_rate = ConstacyclicCode.from_generator(
        F7, 24, 3, Poly(F7, [6, 0, 0, 5, 0, 0, 1, 0, 0, 5, 0, 0, 5, 0, 0, 6, 0, 0, 1]))
    assert code.min_pair_distance(low_rate).method == "bounded_weight"
    # pair weight 10 of g caps both sides: 120 normalised messages in 2
    # levels against 31128 worst-case reductions
    capped = ConstacyclicCode.from_generator(
        F5, 24, 2, Poly(F5, [4, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 1]))
    assert code.min_pair_distance(capped).method == "bounded_weight"
    # 8328 messages of 16 symbols against 117 worst-case reductions
    q7 = constructions.mds_n_6(7, 16, "bounds").code
    assert code.min_pair_distance(q7).method == "dependency"
    # the marginal case: 176 messages in 2 levels against 538 worst-case
    # reductions; the choice reads only the code, not what was built on it
    fresh, built = (constructions.mds_n_6(4, 15, "bounds").code for _ in range(2))
    built.standard_form()
    assert code.min_hamming_distance(fresh).method == "bounded_weight"
    assert code.min_hamming_distance(built).method == "bounded_weight"
    n6 = constructions.mds_n_6(7, 48, "bounds").code
    assert code.min_hamming_distance(n6).method == "dependency"


def test_auto_prices_the_levels_the_loop_runs():
    """``_worst_case`` walks ``_levels`` as the loop runs them when g's
    weight, top, is the best it sees: the message side's first level and
    then those whose floor is below top, and the dependency levels D <= top,
    counted here from ``_window_floor``, ``_level_size`` and
    ``_dependency_levels`` directly."""
    cases = 0
    for field in (F2, F3, gf.extension_field(2, 2)):
        for n in range(2, 13):
            for c in code.divisor_codes(field, n, 1):
                q, k = field.q, c.k
                if k == n:
                    continue
                for for_pair in (False, True):
                    for top in range(1 + for_pair, n + 1):
                        last = max(t for t in range(1, k + 1)
                                   if t == 1 or code._window_floor(n, k, t, for_pair) < top)
                        assert code._worst_case(c, "bounded_weight", for_pair, top) == (
                            last, sum(code._level_size(q, k, t) for t in range(1, last + 1)))
                        assert code._worst_case(c, "exhaustive", for_pair, top) == (1, q ** k - 1)
                        reductions = sum(w for D, w in code._dependency_levels(n, k, for_pair)
                                         if D <= top)
                        assert code._worst_case(c, "dependency", for_pair, top)[1] == reductions
                        cases += 1
    assert cases == 8284


def test_additive_form_computes_a_plus_x_times_y():
    """The message side's one sum rule, in its additive form, equals
    ``F.add(a, F.mul(x, y))``: on every triple over small fields and a
    tower, and on random triples, zeros and a - a included, up to GF(2^16)
    and GF(65521).  Each triple is one symbol of a word."""
    rng = np.random.default_rng(22)
    tower = gf.tower_field(F4, 2)
    cases = [(F, *np.meshgrid(*[np.arange(F.q)] * 3, indexing="ij"))
             for F in (F4, F8, F9, gf.extension_field(5, 2), tower, F7)]
    for F in [gf.extension_field(p, m) for p, m in ((2, 8), (2, 11), (3, 7), (2, 16))] + [
            gf.prime_field(2053), gf.prime_field(65521)]:
        a, x, y = rng.integers(0, F.q, size=(3, 3000))
        for v in (a, x, y):
            v[rng.random(v.size) < 0.1] = 0
        x[:300], y[:300] = 1, [F.neg(int(v)) for v in a[:300]]  # a - a = 0
        cases.append((F, a, x, y))
    for F, a, x, y in cases:
        form = code._additive(F)
        a, x, y = (v.ravel() for v in (a, x, y))
        expected = [F.add(int(u), F.mul(int(v), int(w))) for u, v, w in zip(a, x, y)]
        got = form.add(form.words(a), form.words(form.times(x, y)))
        assert got.dtype == form.dtype and got.shape == (form.planes, len(a))
        assert np.array_equal(got, form.words(np.array(expected))), F
        assert np.array_equal(_symbols(F, got[None])[0], expected)
    assert code._additive(F9) is code._additive(gf.extension_field(3, 2))


def _bounded_levels(c, for_pair):
    """Brute-force reference for the bounded scan, from every codeword:
    (window floor, least weight among the codewords with 1..t-1 nonzeros on
    the window 0..k-1 or None, normalised size) of each level t = 1..k."""
    n, k, q = c.n, c.k, c.field.q
    weight = code.pair_weight if for_pair else code.hamming_weight
    by_window = {}
    for word in c.codewords():
        u = code.hamming_weight(word[:k])
        if u:
            by_window.setdefault(u, []).append(weight(word))
    levels, best = [], None
    for t in range(1, k + 1):
        floor = code._window_floor(n, k, t, for_pair)
        size, rest = divmod(len(by_window[t]), q - 1)  # one message per scalar class
        assert rest == 0 and size == code._level_size(q, k, t)
        levels.append((floor, best, size))
        best = min(by_window[t] + ([best] if best is not None else []))
    return levels


def _ternary_28_6():
    """A [28,6] code over GF(3) with lambda = 2 (d_H = 15, d_p = 20) whose
    pair scan takes levels 1..3."""
    g = Poly(F3, [2, 0, 2, 2, 0, 1, 2, 2, 2, 2, 2, 0, 1, 2, 1, 2, 1, 1, 0, 2, 1, 0, 1])
    return ConstacyclicCode.from_generator(F3, 28, 2, g)


def test_bounded_budget_stops_at_the_window_floor():
    cases = [
        _ternary_28_6(),  # pair: 3 levels
        ConstacyclicCode.from_generator(F3, 13, 2, Poly(F3, [1, 0, 2, 1, 2, 0, 1])),  # pair: 2 levels
        ConstacyclicCode.from_generator(F4, 9, 1, Poly(F4, [2, 3, 0, 3, 1])),
        # k = 1, full support: every floor is n
        ConstacyclicCode.from_generator(F5, 3, 2, Poly(F5, [4, 3, 1])),
    ]
    most = 0  # levels of the longest scan
    for c in cases:
        for distance, for_pair in ((code.min_hamming_distance, False),
                                   (code.min_pair_distance, True)):
            full = distance(c, "bounded")
            done = scanned = 0  # normalised messages and levels finished so far
            for floor, best, size in _bounded_levels(c, for_pair):
                if best is not None and floor >= best:
                    assert full.value == best  # the window rule stops here
                    break
                with pytest.raises(errors.BudgetExceededError) as exc_info:
                    distance(c, "bounded", budget=done + size - 1)
                exc = exc_info.value
                assert exc.lower_bound == floor <= full.value
                assert (exc.enumerated, exc.upper_bound) == (done, best)
                done += size
                scanned += 1
            assert full.enumeration_count == done
            assert distance(c, "bounded", budget=done) == full
            most = max(most, scanned)
    assert most == 3
    k1 = cases[-1]
    assert k1.k == 1 and code.min_pair_distance(k1, "exhaustive").value == k1.n == 3
    with pytest.raises(errors.BudgetExceededError) as exc_info:
        code.min_pair_distance(k1, "bounded", budget=0)
    assert exc_info.value.lower_bound == k1.n


def test_window_floors_hold_on_every_small_constacyclic_code():
    """Every nonzero codeword with >= t nonzeros in each of the n cyclic
    windows of k positions, the codewords the bounded scan has not seen
    before level t, is at least as heavy as both floors say."""
    codes = 0
    lifted = set()  # (lambda, q) where the run count beats ceil(n t / k) + 1 on such a word
    for field in (F2, F3, F4, F5, F9):
        for n in range(2, 11):
            for lam in range(1, field.q):
                for c in code.divisor_codes(field, n, lam):
                    k = c.k
                    if k == n or field.q ** k > 1 << 8:
                        continue
                    codes += 1
                    nz = np.array(list(c.codewords())) != 0
                    nz = nz[nz.any(axis=1)]
                    windows = (np.arange(n)[:, None] + np.arange(k)) % n
                    fewest = nz[:, windows].sum(axis=2).min(axis=1)  # in the sparsest window
                    weight = nz.sum(axis=1)
                    pair = (nz | np.roll(nz, -1, axis=1)).sum(axis=1)  # nonzero pairs (w_i, w_i+1)
                    for t in range(1, k + 1):
                        unseen = fewest >= t
                        if not unseen.any():
                            break
                        assert weight[unseen].min() >= code._window_floor(n, k, t, False) \
                            == -(-n * t // k), (c, t)
                        floor = code._window_floor(n, k, t, True)
                        assert pair[unseen].min() >= floor, (c, t)
                        if floor > -(-n * t // k) + 1:
                            lifted.add((lam, field.q))
    assert codes == 591
    assert any(lam != 1 for lam, _q in lifted) and any(q == 4 for _lam, q in lifted)


_NONZERO = code._nonzero


def _recorded_words(monkeypatch):
    """Wrap the message side's nonzero mask; the list fills with the words
    of each block it scans, (rows, planes, n) in the additive form."""
    blocks = []

    def recording(words):
        assert words.size <= code._CELL_BUDGET  # every block within budget
        blocks.append(words.copy())
        return _NONZERO(words)

    monkeypatch.setattr(code, "_nonzero", recording)
    return blocks


def _symbols(field, words):
    """(rows, planes, n) words of the additive form as (rows, n) canonical
    integers: one plane holds them, else plane i holds base-p digit i."""
    powers = field.p ** np.arange(words.shape[1], dtype=np.int64)
    return (words.astype(np.int64) * powers[:, None]).sum(axis=1)


@functools.cache
def _field_tables(field):
    """Field.mul and Field.add as q x q arrays (q <= 256)."""
    elements = range(field.q)
    return (np.array([[field.mul(a, b) for b in elements] for a in elements]),
            np.array([[field.add(a, b) for b in elements] for a in elements]))


def _assert_codewords(c, rows):
    """Every row has syndrome H r = 0 (``is_member``): by integer arithmetic
    mod p over a prime field, by the field's own tables while q <= 256,
    else row by row."""
    F, H = c.field, c.parity_check_matrix()
    if F.base is None:
        assert not (rows @ H.T % F.q).any()
    elif F.q <= 256:
        mul, add = _field_tables(F)
        syndrome = np.zeros((len(rows), H.shape[0]), dtype=np.int64)
        for j in range(c.n):
            syndrome = add[syndrome, mul[H[:, j]][:, rows[:, j]].T]
        assert not syndrome.any()
    else:
        assert all(map(c.is_member, rows.tolist()))


def _check_level(c, t, rows):
    """``rows`` are codewords, one for each scalar class of level t (t = 0:
    each nonzero message), read back from positions 0..k-1: t nonzeros, the
    first of them 1."""
    q, k = c.field.q, c.k
    _assert_codewords(c, rows)
    messages = rows[:, :k]
    assert q ** k < 1 << 63  # so each message has its own int64 key
    assert len(np.unique(messages @ q ** np.arange(k, dtype=np.int64))) == len(messages)
    if t == 0:
        assert len(messages) == q ** k - 1 and messages.any(axis=1).all()
        return
    assert len(messages) == code._level_size(q, k, t)
    assert ((messages != 0).sum(axis=1) == t).all()
    first = (messages != 0).argmax(axis=1)
    assert (messages[np.arange(len(messages)), first] == 1).all()


def _check_levels(c, blocks, levels):
    """Split the recorded rows by their message weight, the level that made
    them, and check each level."""
    rows = np.concatenate([_symbols(c.field, words) for words in blocks])
    weight = (rows[:, :c.k] != 0).sum(axis=1)
    assert sorted(set(weight.tolist())) == list(levels)
    for t in levels:
        _check_level(c, t, rows[weight == t])


def test_level_blocks_cover_each_level_once_within_budget(monkeypatch):
    binary = ConstacyclicCode.from_defining_set(F2, 31, [1, 3], expand=True)  # [31,21]
    gf11 = ConstacyclicCode.from_defining_set(gf.prime_field(11), 10, [1, 2, 3, 4])  # [10,6]
    for c, t in ((binary, 5), (gf11, 6)):  # 20349 and 10^5 classes: kept levels
        blocks = _recorded_words(monkeypatch)
        code._level_minima(c, t)
        assert len(blocks) > 1
        _check_levels(c, blocks, [t])
    # above the kept-level cap: levels 1..7 of the [31,21] code are kept
    # whole, 8 and 9 stream from level 7 (9 through one more position)
    c = ConstacyclicCode(F2, 31, 1, binary.g)
    assert (code._level_size(2, 21, 7) * 31 <= code._KEEP_CELLS
            < code._level_size(2, 21, 8) * 31 < code._level_size(2, 21, 9) * 31)
    blocks = _recorded_words(monkeypatch)
    code._level_minima(c, 9)
    code._level_minima(c, 8)
    assert c._kept_level[0] == 7
    _check_levels(c, blocks, [8, 9])
    # the levels of a real scan: this code's pair distance takes levels 1..3
    ternary = _ternary_28_6()
    blocks = _recorded_words(monkeypatch)
    code.min_pair_distance(ternary, "bounded")
    _check_levels(ternary, blocks, [1, 2, 3])


def test_exhaustive_scan_lists_every_nonzero_message_once(monkeypatch):
    ternary = ConstacyclicCode.from_defining_set(F3, 13, [1, 3, 9])  # [13,10]
    q, k = 3, ternary.k
    calls = []
    standard_form = ConstacyclicCode.standard_form
    monkeypatch.setattr(ConstacyclicCode, "standard_form",
                        lambda self: calls.append(1) or standard_form(self))
    blocks = _recorded_words(monkeypatch)
    result = code.min_hamming_distance(ternary, "exhaustive")
    assert result.enumeration_count == q ** k - 1
    assert len(calls) == 1 and len(blocks) == 3  # 59048 words, 20164 per block
    _check_level(ternary, 0, np.concatenate([_symbols(F3, words) for words in blocks]))


def _low_rate_codes():
    """Two low-rate codes whose distances ``auto`` both puts on the message
    side: GF(3), lambda = 2, [26,14] (Hamming levels 1..2, pair 1..3), and
    GF(4) [17,8] (levels 1..3 for both)."""
    return [ConstacyclicCode(F3, 26, 2, Poly(F3, [1, 0, 0, 0, 2, 0, 1, 0, 2, 0, 0, 0, 1])),
            ConstacyclicCode(F4, 17, 1, Poly(F4, [1, 3, 3, 0, 2, 2, 0, 3, 3, 1]))]


def test_analyze_encodes_each_message_side_level_once(monkeypatch):
    from sympair import report
    for c in _low_rate_codes():
        blocks = _recorded_words(monkeypatch)
        r = report.analyze(c)
        assert r.d_hamming.method == r.d_pair.method == "bounded_weight"
        # every scalar class of levels 1..3 once, over both distances
        _check_levels(c, blocks, [1, 2, 3])
        # each distance still reports the levels its own proof needs
        for distance, alone in ((code.min_hamming_distance, r.d_hamming),
                                (code.min_pair_distance, r.d_pair)):
            assert distance(ConstacyclicCode(c.field, c.n, c.lam, c.g), "bounded") == alone
    ternary = _low_rate_codes()[0]
    assert report.analyze(ternary).d_hamming.enumeration_count == sum(
        code._level_size(3, ternary.k, t) for t in (1, 2))


def _outcome(distance, c, strategy, budget):
    try:
        return distance(c, strategy, budget=budget)
    except errors.BudgetExceededError as exc:
        return str(exc), exc.lower_bound, exc.upper_bound, exc.enumerated


def test_distances_do_not_depend_on_which_ran_first():
    hamming, pair = code.min_hamming_distance, code.min_pair_distance
    for c0 in _low_rate_codes() + [_ternary_28_6()]:
        def fresh():
            return ConstacyclicCode(c0.field, c0.n, c0.lam, c0.g)
        strategies = ["auto", "bounded"] + (["exhaustive"] if c0.field.q ** c0.k <= 1 << 12 else [])
        for strategy in strategies:
            full = {d: d(fresh(), strategy) for d in (hamming, pair)}
            # no budget, one that stops before the last level, one that stops early
            for budget in [None] + [b for r in full.values()
                                    for b in (r.enumeration_count - 1, r.enumeration_count // 2)]:
                alone = {d: _outcome(d, fresh(), strategy, budget) for d in (hamming, pair)}
                for first, second in ((hamming, pair), (pair, hamming)):
                    # the first distance runs to the end, or under the same budget
                    for first_budget in (None, budget):
                        c = fresh()
                        assert _outcome(first, c, strategy, first_budget) == (
                            full[first] if first_budget is None else alone[first])
                        assert _outcome(second, c, strategy, budget) == alone[second], \
                            (c, strategy, budget, second)


def test_engine_outcomes_under_every_budget_are_frozen():
    """Every engine's value, method and count, or budget error, is pinned.

    Recipe: for each code of the corpus below, each strategy (``exhaustive``
    only where q^k <= 4096), each distance and each budget, take the result's
    (value, method, enumeration_count), or the BudgetExceededError's (what,
    lower_bound, upper_bound, enumerated), and feed its ``repr`` and a newline
    to one sha256.  Each call gets a fresh code, so no kept level is shared.
    The corpus holds the two low-rate codes, the ternary [28,6] code, a
    repeated-root code (``auto`` takes ``castagnoli``), a k = 1 code (the
    dependency search ends at support Z_n) and a GF(4) code.  The unbounded
    dependency search on the [28,6] code is left out: its levels up to
    d_H = 15 hold 1.5 * 10^8 worst-case column reductions.
    """
    ternary = _ternary_28_6()
    corpus = _low_rate_codes() + [
        ternary,
        _example_15_11(),
        ConstacyclicCode.from_generator(F5, 3, 2, Poly(F5, [4, 3, 1])),
        ConstacyclicCode.from_generator(F4, 9, 1, Poly(F4, [2, 3, 0, 3, 1])),
    ]
    budgets = (0, 1, 2, 3, 5, 8, 13, 30, 100, 1000, None)
    digest, calls = hashlib.sha256(), 0
    for c0 in corpus:
        strategies = ["auto", "bounded", "dependency"] + (
            ["exhaustive"] if c0.field.q ** c0.k <= 1 << 12 else [])
        for strategy in strategies:
            for distance in (code.min_hamming_distance, code.min_pair_distance):
                for budget in budgets:
                    if (c0, strategy, budget) == (ternary, "dependency", None):
                        continue
                    c = ConstacyclicCode(c0.field, c0.n, c0.lam, c0.g)
                    try:
                        r = distance(c, strategy, budget=budget)
                        outcome = (r.value, r.method, r.enumeration_count)
                    except errors.BudgetExceededError as exc:
                        outcome = (exc.what, exc.lower_bound, exc.upper_bound, exc.enumerated)
                    digest.update(f"{outcome!r}\n".encode())
                    calls += 1
    assert calls == 460
    assert digest.hexdigest()[:12] == "ed74738ad649"


def test_auto_prices_a_dependency_search_with_no_level():
    """The [1,1] code: the Hamming dependency search lists no level, so
    ``auto`` prices it at no work and takes it; the answer is n = 1."""
    expected = {"auto": ("dependency", 0), "dependency": ("dependency", 0),
                "bounded": ("bounded_weight", 1), "exhaustive": ("exhaustive", 1)}
    for strategy, (method, count) in expected.items():
        assert code.min_hamming_distance(CODE_1_1, strategy) == code.DistanceResult(1, method, count)


def test_level_rows_are_codewords_at_every_storage_dtype(monkeypatch):
    """Every row the message side scans is a codeword whose positions 0..k-1
    are its message, once per scalar class (exhaustive scan: once per nonzero
    message), over prime, extension and tower fields.  The codes reach every
    storage dtype and both ways of making the scaled rows (one table, or one
    position at a time).  A second pass with caps of 256 cells a block and
    1024 kept streams every level above 1 in blocks of a few words."""
    cases = (  # (field, n, defining set, scans): n divides q - 1 except over GF(2)
        (F2, 7, [1], [0, 1, 2, 3, 4]),                             # [7,4]
        (F3, 13, [1], [0, 1, 2, 3]),                               # [13,10]
        (F7, 6, [1, 2], [0, 1, 2, 3, 4]),                          # [6,4]
        (gf.prime_field(2053), 76, range(74), [1, 2]),             # [76,2]: uint16
        (gf.prime_field(65521), 5, [1, 2, 3], [1, 2]),             # [5,2]: uint32
        (F4, 5, [1], [0, 1, 2, 3]),                                # [5,3]
        (F9, 8, range(1, 6), [0, 1, 2, 3]),                        # [8,3]: two digit planes
        (gf.extension_field(2, 8), 17, range(1, 16), [0, 1, 2]),   # [17,2]
        (gf.extension_field(2, 10), 11, range(1, 10), [1, 2]),     # [11,2]: uint16
        (gf.extension_field(2, 12), 35, range(33), [1, 2]),        # [35,2]: uint16
        (gf.tower_field(F4, 2), 5, [1], [0, 1, 2, 3, 4]),          # [5,4] over GF(4^2)
    )
    dtypes, by_position = set(), set()
    for tiny in (False, True):
        if tiny:
            monkeypatch.setattr(code, "_CELL_BUDGET", 256)
            monkeypatch.setattr(code, "_KEEP_CELLS", 1024)
        for field, n, exponents, scans in cases:
            c = ConstacyclicCode.from_defining_set(field, n, exponents, expand=True)
            form = code._additive(field)
            dtypes.add(form.dtype.name)
            if not tiny:
                by_position.add(c.k * (field.q - 1) * form.planes * n > code._CELL_BUDGET)
            for t in scans:
                blocks = _recorded_words(monkeypatch)
                code._level_minima(c, t)
                _check_level(c, t, np.concatenate([_symbols(field, w) for w in blocks]))
    assert dtypes == {"uint8", "uint16", "uint32"} and by_position == {False, True}


def test_engines_agree_over_a_float64_field():
    F = gf.prime_field(65521)
    c = ConstacyclicCode.from_generator(F, 3, 1, Poly(F, [1, 1, 1]))  # k = 1
    assert c.k == 1
    for distance in (code.min_hamming_distance, code.min_pair_distance):
        reference = distance(c, "dependency")
        exhaustive = distance(c, "exhaustive")
        assert exhaustive.enumeration_count == F.q - 1
        assert exhaustive.value == distance(c, "bounded").value == reference.value == 3


def _qr_47_24():
    """The binary quadratic-residue [47,24] code: g is the first degree-23
    factor of x^47 - 1 in ``poly.factor`` order."""
    g = Poly(F2, (1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1))
    return ConstacyclicCode.from_generator(F2, 47, 1, g)


def test_binary_qr_47_24_distances():
    """d_H = 11 is the textbook value; the pair scan reaches level 7, whose
    346104 scalar classes are many times the cell budget."""
    c = _qr_47_24()
    assert c.k == 24
    expected = {code.min_hamming_distance: code.DistanceResult(11, "bounded_weight", 55454),
                code.min_pair_distance: code.DistanceResult(17, "bounded_weight", 536154)}
    for distance, result in expected.items():
        assert distance(c, "bounded") == result
        assert distance(ConstacyclicCode(F2, 47, 1, c.g)) == result
    assert code._level_size(2, 24, 7) == 346104 > 60 * code._CELL_BUDGET // c.n


def test_message_side_scans_refuse_what_they_cannot_index():
    """The exhaustive scan refuses q^k beyond 2^62, and a weight level more
    than 2^48 value tuples, before any work."""
    F = gf.prime_field(65521)
    x = Poly.x(F)
    c54 = ConstacyclicCode.from_generator(F, 5, 1, x - Poly.one(F))
    with pytest.raises(errors.OutOfScopeError,
                       match=r"^q\^k = 18429861372428076481 overflows the exhaustive scanner$"):
        code.min_hamming_distance(c54, "exhaustive")
    c65 = ConstacyclicCode.from_generator(F, 6, 1, x - Poly.one(F))
    with pytest.raises(errors.OutOfScopeError,
                       match=r"^level 5 has 18428736271196160000 value tuples; "
                             r"set a budget to keep scans sane$"):
        code._level_minima(c65, 5)

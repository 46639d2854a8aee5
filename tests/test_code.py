"""Constacyclic codes, the symbol-pair metric, and the distance engines."""

import dataclasses
import itertools
import random

import numpy as np
import pytest

import sympair
from sympair import code, constructions, errors, gf, poly
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


def test_field_tables_match_field_arithmetic():
    tower = gf.tower_field(F4, 2)
    for field in (F4, F8, F9, gf.extension_field(5, 2), tower):
        add, mul = code._field_tables(field)
        assert not add.flags.writeable and not mul.flags.writeable
        for a in range(field.q):
            for b in range(field.q):
                assert add[a, b] == field.add(a, b)
                assert mul[a, b] == field._mul_raw(a, b)
    assert code._field_tables(F9) is code._field_tables(gf.extension_field(3, 2))


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
        floor = min(n, -(-n * t // k) + for_pair)
        size, rest = divmod(len(by_window[t]), q - 1)  # one message per scalar class
        assert rest == 0 and size == code._level_size(q, k, t)
        levels.append((floor, best, size))
        best = min(by_window[t] + ([best] if best is not None else []))
    return levels


def test_bounded_budget_stops_at_the_window_floor():
    cases = [
        ConstacyclicCode.from_generator(F3, 13, 2, Poly(F3, [1, 0, 2, 1, 2, 0, 1])),  # pair: 3 levels
        ConstacyclicCode.from_generator(F4, 9, 1, Poly(F4, [2, 3, 0, 3, 1])),
        # k = 1, full support: the pair floor ceil(n t / k) + 1 is capped at n
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


def _recorded_blocks(monkeypatch):
    """Wrap the enumeration kernel; the list fills with (digits, cols, n)."""
    blocks = []
    kernel = code._encode_block

    def recording(field, G, digits, cols):
        blocks.append((digits.copy(), cols.copy(), G.shape[1]))
        return kernel(field, G, digits, cols)

    monkeypatch.setattr(code, "_encode_block", recording)
    return blocks


def _check_level_blocks(blocks, k, t, q):
    """Every (support, normalised value tuple) pair of level t once: the
    leading value is 1, the others 1..q-1; no block too big."""
    rows_by_support = {}
    powers = (q - 1) ** np.arange(t - 2, -1, -1)
    for digits, cols, n in blocks:
        assert cols.shape[0] * digits.shape[0] * n <= code._CELL_BUDGET
        assert digits.shape[1] == cols.shape[1] == t
        assert (digits[:, 0] == 1).all()
        assert digits.min() >= 1 and digits.max() <= q - 1
        index = (digits[:, 1:] - 1) @ powers  # the value tuple's mixed-radix row
        for support in map(tuple, cols):
            rows_by_support.setdefault(support, []).append(index)
    assert sorted(rows_by_support) == list(itertools.combinations(range(k), t))
    for chunks in rows_by_support.values():
        assert np.array_equal(np.sort(np.concatenate(chunks)), np.arange((q - 1) ** (t - 1)))


def test_walker_blocks_cover_each_level_once_within_budget(monkeypatch):
    binary = ConstacyclicCode.from_defining_set(F2, 31, [1, 3], expand=True)  # [31,21]
    gf11 = ConstacyclicCode.from_defining_set(gf.prime_field(11), 10, [1, 2, 3, 4])  # [10,6]
    cases = (
        (binary, 5, "batched"),   # 20349 supports of one value row, several per block
        (gf11, 6, "sliced"),      # 10^5 value rows on the one support, sliced
    )
    for c, t, shape in cases:
        blocks = _recorded_blocks(monkeypatch)
        q, k, n = c.field.q, c.k, c.n
        R = (q - 1) ** (t - 1)
        code._scan(c.field, c.standard_form(), itertools.combinations(range(k), t),
                   range(R), q - 1, 1, code._stat_min_weight)
        assert (R > code._CELL_BUDGET // n) == (shape == "sliced")
        assert len(blocks) > 1
        assert all(len(cols) > 1 for _d, cols, _n in blocks) == (shape == "batched")
        _check_level_blocks(blocks, k, t, q)
    # the levels of a real scan: this code's pair distance takes levels 1..3
    ternary = ConstacyclicCode.from_generator(F3, 13, 2, Poly(F3, [1, 0, 2, 1, 2, 0, 1]))
    blocks = _recorded_blocks(monkeypatch)
    code.min_pair_distance(ternary, "bounded")
    levels = sorted({digits.shape[1] for digits, _c, _n in blocks})
    assert levels == [1, 2, 3]
    for t in levels:
        _check_level_blocks([b for b in blocks if b[0].shape[1] == t], ternary.k, t, 3)


def test_walker_exhaustive_scan_is_one_support(monkeypatch):
    ternary = ConstacyclicCode.from_defining_set(F3, 13, [1, 3, 9])  # [13,10]
    q, k = 3, ternary.k
    calls = []
    standard_form = ConstacyclicCode.standard_form
    monkeypatch.setattr(ConstacyclicCode, "standard_form",
                        lambda self: calls.append(1) or standard_form(self))
    blocks = _recorded_blocks(monkeypatch)
    result = code.min_hamming_distance(ternary, "exhaustive")
    assert result.enumeration_count == q ** k - 1
    assert len(calls) == 1 and len(blocks) == 3  # 59048 rows, 20164 per block
    powers = q ** np.arange(k - 1, -1, -1)
    seen = []
    for digits, cols, n in blocks:
        assert cols.shape[0] * digits.shape[0] * n <= code._CELL_BUDGET
        assert cols.tolist() == [list(range(k))]
        assert digits.min() >= 0 and digits.max() <= q - 1
        seen.append(digits @ powers)
    assert np.array_equal(np.concatenate(seen), np.arange(1, q ** k))

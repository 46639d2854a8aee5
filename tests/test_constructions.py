"""MDS symbol-pair families and the small cyclic search."""

import random

import pytest

from sympair import code, constructions, errors, gf
from sympair.code import ConstacyclicCode
from sympair.poly import Poly


def test_family_3p_7_smallest_prime_full():
    res = constructions.mds_3p_7(5, "full")
    assert (res.code.n, res.code.k) == (15, 10)
    assert res.d_hamming.value == 4 and res.d_hamming.certified
    assert res.d_pair.value == 7 and res.d_pair.certified
    assert res.is_mds_pair
    assert res.family.parameters == {"p": 5}


def test_family_3p_7_certify_levels():
    default = constructions.mds_3p_7(5)
    assert default.d_hamming.value == 4
    assert default.d_pair.value == 7 and default.d_pair.certified
    assert default.is_mds_pair is True
    with pytest.raises(errors.BadParameterError):
        constructions.mds_3p_7(5, "hamming")
    # repeated-root families certify d_H even at "bounds" level because the
    # residue-product formula is nearly free; only the pair scan is deferred
    structural = constructions.mds_3p_7(11, "bounds")
    assert structural.d_hamming.method == "castagnoli"
    assert structural.d_hamming.value == 4
    assert structural.d_pair is None
    assert (structural.code.n, structural.code.k) == (33, 28)
    assert structural.family.expected_d_pair == 7


def test_family_3p_7_parameter_gates():
    for bad in (2, 3):
        with pytest.raises(errors.BadParameterError):
            constructions.mds_3p_7(bad)
    for bad in (4, 9, 15):
        with pytest.raises(errors.BadParameterError):
            constructions.mds_3p_7(bad)
    with pytest.raises(errors.BadParameterError):
        constructions.mds_3p_7(5, "everything")


def test_family_3p_8_structure():
    res = constructions.mds_3p_8(7, "full")
    assert (res.code.n, res.code.k) == (21, 15)
    assert res.d_hamming.value == 4
    f7 = gf.prime_field(7)
    x, one = Poly.x(f7), Poly.one(f7)
    omega = gf.primitive_cube_root(7)
    assert omega == 2
    expected_g = (x - one) ** 3 * (x - Poly(f7, [omega])) ** 2 * (x - Poly(f7, [f7.mul(omega, omega)]))
    assert res.code.g == expected_g


def test_family_budget_covers_both_distances():
    res = constructions.mds_3p_8(7, "full")
    d_h, d_p = res.d_hamming.enumeration_count, res.d_pair.enumeration_count
    budget = max(d_h, d_p)  # enough for either distance alone, not for both
    assert budget < d_h + d_p
    with pytest.raises(errors.BudgetExceededError) as exc_info:
        constructions.mds_3p_8(7, "full", budget=budget)
    with pytest.raises(errors.BudgetExceededError) as pair_only:
        code.min_pair_distance(res.code, "auto", budget=budget - d_h)
    assert exc_info.value.enumerated == d_h + pair_only.value.enumerated
    assert exc_info.value.enumerated <= budget


def test_family_3p_8_rejects_wrong_residue():
    with pytest.raises(errors.BadParameterError):
        constructions.mds_3p_8(5)  # 5 = 2 mod 3: no cube root of unity
    with pytest.raises(errors.BadParameterError):
        constructions.mds_3p_8(11)
    with pytest.raises(errors.BadParameterError):
        constructions.mds_3p_8(9)


def test_family_3p_8_cube_root_choice_is_immaterial():
    # swapping omega and omega^2 yields the coordinate-reversed code,
    # and reversal preserves both Hamming and pair weight
    f7 = gf.prime_field(7)
    x, one = Poly.x(f7), Poly.one(f7)
    built = constructions.mds_3p_8(7, "bounds").code
    swapped_g = (x - one) ** 3 * (x - Poly(f7, [4])) ** 2 * (x - Poly(f7, [2]))
    swapped = ConstacyclicCode.from_generator(f7, 21, 1, swapped_g)

    reciprocal = Poly(f7, list(built.g.coeffs)[::-1]).monic()
    assert reciprocal == swapped.g

    from sympair import bounds
    assert bounds.castagnoli_distance(built) == bounds.castagnoli_distance(swapped) == 4

    rng = random.Random(83)
    for _ in range(200):
        w = built.encode([rng.randrange(7) for _ in range(built.k)])
        reversed_w = w[::-1]
        assert swapped.is_member(reversed_w)
        assert code.pair_weight(reversed_w) == code.pair_weight(w)
        assert code.hamming_weight(reversed_w) == code.hamming_weight(w)


def test_family_3p_6_reproduces_reference_code():
    res = constructions.mds_3p_6(5, "full")
    assert (res.code.n, res.code.k) == (15, 11)
    assert res.d_hamming.value == 3
    assert res.d_pair.value == 6
    assert res.is_mds_pair
    f5 = gf.prime_field(5)
    x, one = Poly.x(f5), Poly.one(f5)
    assert res.code.g == (x - one) * (x**3 - one)


def test_family_3p_6_other_primes_structural():
    for p, n in ((7, 21), (11, 33)):
        res = constructions.mds_3p_6(p, "bounds")
        assert (res.code.n, res.code.k) == (n, n - 4)
        assert res.family.expected_d_pair == 6
    with pytest.raises(errors.BadParameterError):
        constructions.mds_3p_6(3)


def test_family_n_6_smallest_case_full():
    res = constructions.mds_n_6(3, 8, "full")
    assert (res.code.n, res.code.k) == (8, 4)
    assert res.code.defining_set() == frozenset({0, 1, 3, 4})
    assert res.d_hamming.value == 4
    assert res.d_pair.value == 6
    assert res.is_mds_pair


def test_family_n_6_prime_power_alphabet():
    res = constructions.mds_n_6(4, 15, "full")
    assert res.code.field.q == 4
    assert (res.code.n, res.code.k) == (15, 11)
    assert res.d_hamming.value == 4
    # defining set is C_0 + C_1 + C_{q+1} with |C_1| = 2 and |C_{q+1}| = 1
    assert res.code.defining_set() == frozenset({0, 1, 4, 5})


def test_family_n_6_parameter_gates():
    with pytest.raises(errors.BadParameterError):
        constructions.mds_n_6(3, 7)  # 7 does not divide 8
    with pytest.raises(errors.BadParameterError):
        constructions.mds_n_6(3, 4)  # below q + 4
    with pytest.raises(errors.BadParameterError):
        constructions.mds_n_6(6, 35)  # 6 is not a prime power
    with pytest.raises(errors.BadParameterError):
        constructions.mds_n_6(2, 9)


def test_family_spec_coherence():
    spec = constructions.FamilySpec("X", {"p": 5}, 15, 11, 3, 6)
    assert spec.expected_k == spec.expected_n - spec.expected_d_pair + 2
    with pytest.raises(AssertionError):
        constructions.FamilySpec("X", {"p": 5}, 15, 10, 3, 6)
    with pytest.raises(AssertionError):
        constructions.FamilySpec("X", {"p": 5}, 15, 9, 3, 8)  # above 2 d_H


def test_search_small_quartic():
    entries = constructions.search_optimal_cyclic(3, 4)
    assert len(entries) == 6
    by_gen = {e.code.g.coeffs: e for e in entries}
    assert set(by_gen) == {(1, 0, 1), (2, 1), (2, 1, 2, 1), (1, 1), (1, 1, 1, 1), (2, 0, 1)}
    best = by_gen[(1, 0, 1)]
    assert (best.code.k, best.d_hamming.value, best.d_pair.value) == (2, 2, 4)
    assert best.is_mds_pair
    assert sum(1 for e in entries if e.is_mds_pair) == 4


def test_search_finds_classic_mds_pair_code():
    entries = constructions.search_optimal_cyclic(2, 7)
    assert len(entries) == 6
    hits = [e for e in entries if e.code.k == 4 and e.d_pair.value == 5]
    assert len(hits) == 2  # the [7,4,3] code and its reciprocal
    assert all(e.is_mds_pair for e in hits)
    assert all(e.d_hamming.value == 3 for e in hits)


def test_search_is_deterministic():
    first = constructions.search_optimal_cyclic(3, 8)
    second = constructions.search_optimal_cyclic(3, 8)
    assert len(first) == len(second) == 30
    for a, b in zip(first, second):
        assert a.code.g == b.code.g
        assert a.d_hamming.value == b.d_hamming.value
        assert a.d_pair.value == b.d_pair.value
        assert a.d_pair.enumeration_count == b.d_pair.enumeration_count


def test_search_respects_max_codes_and_budget():
    capped = constructions.search_optimal_cyclic(3, 8, max_codes=4)
    assert len(capped) == 4
    with pytest.raises(errors.BudgetExceededError) as exc_info:
        constructions.search_optimal_cyclic(3, 8, budget=500)
    err = exc_info.value
    assert 0 < len(err.partial) < 30
    assert all(entry.d_pair.certified for entry in err.partial)
    assert err.enumerated <= 500


def test_search_covers_repeated_root_lengths():
    # gcd(n, q) > 1 is allowed: the lattice walks repeated-root divisors too
    entries = constructions.search_optimal_cyclic(3, 6)
    assert len(entries) == 14
    assert all(e.d_pair.certified for e in entries)


def test_search_rejects_bad_parameters():
    with pytest.raises(errors.BadParameterError):
        constructions.search_optimal_cyclic(6, 5)
    with pytest.raises(errors.BadParameterError):
        constructions.search_optimal_cyclic(1, 5)


def test_every_family_satisfies_claimed_identities():
    # at the cheapest fully-certifiable sizes, the certified values equal the
    # family's claimed parameters and the MDS pair equality holds
    results = [
        constructions.mds_3p_7(5, "full"),
        constructions.mds_3p_6(5, "full"),
        constructions.mds_n_6(3, 8, "full"),
        constructions.mds_n_6(5, 24, "full"),
    ]
    for res in results:
        spec = res.family
        assert res.code.n == spec.expected_n
        assert res.code.k == spec.expected_k
        assert res.d_hamming.value == spec.expected_d_hamming
        assert res.d_pair.value == spec.expected_d_pair
        assert res.code.k == res.code.n - res.d_pair.value + 2

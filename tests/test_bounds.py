"""Distance bounds: pair Singleton, pair floors, residue products, BCH/HT."""

import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import sympair
from sympair import bounds, code, errors, gf, poly
from sympair.code import ConstacyclicCode
from sympair.poly import Poly

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


def test_singleton_pair_max_examples():
    assert bounds.singleton_pair_max(15, 5, 11) == 6
    assert bounds.singleton_pair_max(21, 7, 14) == 9
    assert bounds.singleton_pair_max(24, 5, 3) == 23
    with pytest.raises(errors.BadParameterError):
        bounds.singleton_pair_max(10, 5, 0)
    with pytest.raises(errors.BadParameterError):
        bounds.singleton_pair_max(10, 5, 11)
    with pytest.raises(errors.BadParameterError):
        bounds.singleton_pair_max(1, 5, 1)


def test_pair_distance_floor_plain_case():
    # [6,2,4]: not Hamming-MDS (6-4+1 = 3 != 2), no upgrade (n-d = 2 < 2k-1 = 3)
    floor = bounds.pair_distance_floor(6, 2, 4)
    assert floor == bounds.PairDistanceFloor(True, 6, False)


def test_pair_distance_floor_mds_case_is_exact():
    # Hamming-MDS: k = n - d + 1 pins the pair distance at exactly d + 1
    floor = bounds.pair_distance_floor(15, 13, 3)
    assert floor == bounds.PairDistanceFloor(True, 4, True)


def test_pair_distance_floor_upgraded_case():
    # k > 1 and n - d >= 2k - 1 lifts the floor to d + 3
    floor = bounds.pair_distance_floor(24, 3, 19)
    assert floor == bounds.PairDistanceFloor(True, 22, False)
    assert bounds.pair_distance_floor(15, 2, 10) == bounds.PairDistanceFloor(True, 13, False)


def test_pair_distance_floor_out_of_scope():
    with pytest.raises(errors.OutOfScopeError):
        bounds.pair_distance_floor(10, 1, 10)  # d = n
    with pytest.raises(errors.OutOfScopeError):
        bounds.pair_distance_floor(10, 9, 1)  # d < 2
    with pytest.raises(errors.BadParameterError):
        bounds.pair_distance_floor(10, 0, 3)


def test_pair_floor_soundness_exhaustive_sweep():
    # floor <= true pair distance on every small cyclic code in range
    checked = exact_hits = 0
    for q in (2, 3):
        field = gf.prime_field(q)
        for n in range(2, 10):
            for c in code.divisor_codes(field, n, 1):
                if c.k == n:
                    continue
                d_h = code.min_hamming_distance(c, "exhaustive").value
                if not 2 <= d_h < n:
                    continue
                d_p = code.min_pair_distance(c, "exhaustive").value
                floor = bounds.pair_distance_floor(n, c.k, d_h)
                assert floor.applicable
                assert floor.lower_bound <= d_p
                if floor.exact:
                    assert floor.lower_bound == d_p
                    exact_hits += 1
                # the exactness flag is the Hamming-MDS equality
                assert floor.exact == (c.k == n - d_h + 1)
                checked += 1
    assert checked >= 50
    assert exact_hits >= 5


def test_radix_p_product_examples():
    assert bounds.radix_p_product(0, 5) == 1
    assert bounds.radix_p_product(3, 5) == 4
    assert bounds.radix_p_product(7, 2) == 8  # 111 base 2
    assert bounds.radix_p_product(4, 2) == 2  # 100 base 2
    assert bounds.radix_p_product(12, 5) == 9  # (2, 2) base 5 -> 3 * 3
    with pytest.raises(errors.BadParameterError):
        bounds.radix_p_product(-1, 5)


@pytest.mark.parametrize("call, error", [
    ("bounds.radix_p_product(3, HUGE)", "OutOfScopeError"),
    ("bounds.repeated_root_pair_floor(sympair.mds_3p_6(5, 'bounds').code, HUGE)",
     "BadParameterError"),
], ids=["radix-p", "pair-floor-d_H"])
def test_out_of_range_arguments_fail_fast(call, error):
    # trial division on 10^18 + 9 takes minutes: the range checks come first
    script = (f"import sympair\nfrom sympair import bounds, errors\nHUGE = 10**18 + 9\n"
              f"try:\n    {call}\nexcept errors.{error}:\n    raise SystemExit(0)\n"
              f"raise SystemExit(1)\n")
    src = str(pathlib.Path(sympair.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr


def test_repeated_root_shape_examples():
    s = bounds.repeated_root_shape(_example_15_11())
    assert (s.p, s.ell, s.e, s.n) == (5, 3, 1, 15)
    assert [(f.coeffs, m) for f, m in s.factors] == [((4, 1), 2), ((1, 1, 1), 1)]

    s21 = bounds.repeated_root_shape(_example_21_14())
    assert (s21.p, s21.ell, s21.e) == (7, 3, 1)

    deep = ConstacyclicCode.from_generator(F3, 18, 1, Poly(F3, [2, 1]) ** 4)
    assert bounds.repeated_root_shape(deep).e == 2


def test_repeated_root_shape_rejections():
    with pytest.raises(errors.NotRepeatedRootError):
        bounds.repeated_root_shape(_example_24_3())  # simple root
    pure = ConstacyclicCode.from_generator(F3, 9, 1, Poly(F3, [2, 1]))
    with pytest.raises(errors.NotRepeatedRootError):
        bounds.repeated_root_shape(pure)  # n = p^e, no simple-root part
    neg_g = poly.factor(poly.binomial(F5, 10, 2)).factors[0][0]
    neg = ConstacyclicCode.from_generator(F5, 10, 2, neg_g)
    with pytest.raises(errors.NotRepeatedRootError):
        bounds.repeated_root_shape(neg)  # lambda != 1


def test_residue_codes_of_reference_code():
    c = _example_15_11()  # multiplicities: (x-1) -> 2, (x^2+x+1) -> 1
    zero_level = bounds.residue_code(c, 0)
    assert (zero_level.n, zero_level.k) == (3, 0)
    level1 = bounds.residue_code(c, 1)
    assert (level1.n, level1.k) == (3, 2)
    assert level1.g == Poly(F5, [4, 1])
    full = bounds.residue_code(c, 2)
    assert (full.n, full.k) == (3, 3)
    assert full.g == Poly.one(F5)


def test_castagnoli_details_reference_code():
    value, terms, enumerated = bounds.castagnoli_details(_example_15_11())
    assert value == 3
    assert [t.t for t in terms] == [0, 1, 2, 3, 4]
    assert [t.radix_product for t in terms] == [1, 2, 3, 4, 5]
    assert terms[0].residue_distance == bounds.INF
    assert terms[0].contribution == bounds.INF
    assert [t.contribution for t in terms[1:]] == [4, 3, 4, 5]
    assert enumerated > 0


def test_castagnoli_distance_examples():
    assert bounds.castagnoli_distance(_example_15_11()) == 3
    assert bounds.castagnoli_distance(_example_21_14()) == 5
    x5, one5 = Poly.x(F5), Poly.one(F5)
    g7 = (x5 - one5) ** 3 * (x5**2 + x5 + one5)
    assert bounds.castagnoli_distance(ConstacyclicCode.from_generator(F5, 15, 1, g7)) == 4
    x7, one7 = Poly.x(F7), Poly.one(F7)
    g8 = (x7 - one7) ** 3 * (x7 - Poly(F7, [2])) ** 2 * (x7 - Poly(F7, [4]))
    assert bounds.castagnoli_distance(ConstacyclicCode.from_generator(F7, 21, 1, g8)) == 4


def test_castagnoli_agrees_with_exhaustive_small():
    field = F3
    n = 6
    agreements = 0
    for c in code.divisor_codes(field, n, 1):
        if c.k == n:
            continue
        assert bounds.castagnoli_distance(c) == code.min_hamming_distance(c, "exhaustive").value
        agreements += 1
    # x^6 - 1 = (x-1)^3 (x+1)^3 over GF(3): 4 * 4 multiplicity choices minus the two trivial codes
    assert agreements == 14


def test_castagnoli_large_residue_code_agrees_with_bounded():
    # x^15 - 1 over GF(2): g = (x^2+x+1)^2 (x^4+x+1) leaves the t = 1 residue
    # code generated by x^2+x+1 alone, a [15, 13] code with 8192 codewords,
    # above the exhaustive-scan limit of ``auto``
    F2 = gf.prime_field(2)
    g = Poly(F2, [1, 1, 1]) ** 2 * Poly(F2, [1, 1, 0, 0, 1])
    c = ConstacyclicCode.from_generator(F2, 30, 1, g)
    residue = bounds.residue_code(c, 1)
    assert F2.q ** residue.k - 1 > 4096
    assert bounds.castagnoli_distance(c) == code.min_hamming_distance(c, "bounded").value


def test_castagnoli_zero_code_rejected():
    zero = ConstacyclicCode.from_generator(F5, 15, 1, poly.binomial(F5, 15, 1))
    with pytest.raises(errors.ZeroCodeError):
        bounds.castagnoli_distance(zero)


def test_repeated_root_pair_floor_divisor_condition():
    # x^3 - 1 divides g and 2 < d_H < n - k: floor d_H + 3
    r = bounds.repeated_root_pair_floor(_example_15_11(), 3)
    assert r == bounds.RepeatedRootPairFloor(True, 2, 6)


def test_repeated_root_pair_floor_window_condition():
    # ell < d_H < n - k with d_H prime: floor d_H + 3
    r = bounds.repeated_root_pair_floor(_example_21_14(), 5)
    assert r == bounds.RepeatedRootPairFloor(True, 1, 8)


def test_repeated_root_pair_floor_inapplicable_cases():
    c = _example_15_11()
    assert not bounds.repeated_root_pair_floor(c, 4).applicable  # 4 is not prime
    # d_H = 13 puts the window out of reach for this shape
    assert not bounds.repeated_root_pair_floor(c, 13).applicable
    for d_h in (0, 16, 3.0):  # d_H must be an integer in 1..n
        with pytest.raises(errors.BadParameterError):
            bounds.repeated_root_pair_floor(c, d_h)
    with pytest.raises(errors.NotRepeatedRootError):
        bounds.repeated_root_pair_floor(_example_24_3(), 19)


def test_repeated_root_pair_floor_never_guesses():
    # whenever it claims a floor, exhaustive enumeration confirms it
    field = F3
    for n in (6, 12):
        for c in code.divisor_codes(field, n, 1):
            if c.k == n:
                continue
            d_h = code.min_hamming_distance(c, "exhaustive").value
            floor = bounds.repeated_root_pair_floor(c, d_h)
            if floor.applicable:
                d_p = code.min_pair_distance(c, "exhaustive").value
                assert floor.lower_bound <= d_p
                assert floor.condition_used in (1, 2)


def test_bch_bound_examples():
    assert bounds.bch_bound({1, 2, 3, 4}, 15) == 5
    assert bounds.bch_bound(set(), 15) == 1
    assert bounds.bch_bound(set(range(24)) - {0, 19, 23}, 24) == 19
    assert bounds.bch_bound({14, 0, 1}, 15) == 4  # wraparound run
    assert bounds.bch_bound(set(range(15)), 15) == 16
    with pytest.raises(errors.BadParameterError):
        bounds.bch_bound([True], 3)


def test_hartmann_tzeng_examples():
    assert bounds.hartmann_tzeng_bound({0, 1, 3, 4}, 8, 3) == 4
    assert bounds.hartmann_tzeng_bound({0, 1, 5, 6}, 24, 5) == 4
    assert bounds.hartmann_tzeng_bound(set(range(24)) - {0, 19, 23}, 24, 5) == 19


def test_hartmann_tzeng_validation():
    with pytest.raises(errors.NotCoprimeError):
        bounds.hartmann_tzeng_bound({0}, 6, 3)
    with pytest.raises(errors.NotUnionOfCosetsError):
        bounds.hartmann_tzeng_bound({1}, 8, 3)
    with pytest.raises(errors.BadParameterError):
        bounds.hartmann_tzeng_bound([True], 3, 2)


def test_hartmann_tzeng_dominates_bch():
    rng = random.Random(79)
    for _ in range(60):
        q = rng.choice([2, 3, 5])
        n = rng.choice([7, 8, 9, 11, 13, 15, 16])
        if math.gcd(n, q) != 1:
            continue
        cosets = poly.cyclotomic_cosets(n, q)
        picked = [c for c in cosets if rng.random() < 0.5]
        T = {m for c in picked for m in c.members}
        if len(T) == n:
            continue
        assert bounds.hartmann_tzeng_bound(T, n, q) >= bounds.bch_bound(T, n)


def test_bch_and_hartmann_tzeng_sound_on_small_codes():
    for q, n in ((2, 7), (3, 8), (5, 6)):
        field = gf.prime_field(q)
        cosets = poly.cyclotomic_cosets(n, q)
        for mask in range(1, 2 ** len(cosets) - 1):
            T = {m for i, c in enumerate(cosets) if mask >> i & 1 for m in c.members}
            c = ConstacyclicCode.from_defining_set(field, n, T)
            d_h = code.min_hamming_distance(c, "exhaustive").value
            assert bounds.bch_bound(T, n) <= d_h
            assert bounds.hartmann_tzeng_bound(T, n, q) <= d_h


def test_bound_report_repeated_root_code():
    r = bounds.bound_report(_example_15_11(), 3)
    assert r.singleton_pair_max_dp == 6
    assert r.constacyclic_floor == bounds.PairDistanceFloor(True, 5, False)
    assert r.repeated_root_floor == bounds.RepeatedRootPairFloor(True, 2, 6)
    assert r.castagnoli_d_hamming == 3
    assert r.bch is None and r.hartmann_tzeng is None


def test_bound_report_simple_root_code():
    r = bounds.bound_report(_example_24_3(), 19)
    assert r.singleton_pair_max_dp == 23
    assert r.constacyclic_floor == bounds.PairDistanceFloor(True, 22, False)
    assert r.repeated_root_floor == bounds.RepeatedRootPairFloor(False, None, None)
    assert r.castagnoli_d_hamming is None
    assert r.bch == 19
    assert r.hartmann_tzeng == 19


def test_bound_report_without_distance():
    r = bounds.bound_report(_example_24_3())
    assert r.singleton_pair_max_dp == 23
    assert not r.constacyclic_floor.applicable
    assert r.bch == 19


def test_bound_report_serialization_keys():
    d = bounds.bound_report(_example_15_11(), 3).to_dict()
    assert list(d) == ["singleton_pair_max_dp", "constacyclic_floor", "repeated_root_floor",
                       "castagnoli_d_hamming", "bch", "hartmann_tzeng"]
    assert d["constacyclic_floor"] == {"applicable": True, "lower_bound": 5, "exact": False}


def test_bound_report_rejects_zero_code():
    zero = ConstacyclicCode.from_generator(F5, 15, 1, poly.binomial(F5, 15, 1))
    with pytest.raises(errors.ZeroCodeError):
        bounds.bound_report(zero)

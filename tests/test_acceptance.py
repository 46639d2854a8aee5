"""Acceptance gate: the eleven release criteria, all values exact.

Each test runs the corresponding named check from :mod:`sympair.verify`
(the same table the ``sympair verify`` command executes) and additionally
pins the headline numbers as literals here, so the gate cannot drift even
if the frozen table is edited.  Results are cached per session: criteria
that aggregate earlier sweeps reuse them instead of re-enumerating.

Criteria 3, 4 and 5 certify pair distances that message-side enumeration
needs ~10^8 to ~2x10^9 encodings for; ``auto`` certifies them on the parity
side with about a thousand column reductions each, in milliseconds.
"""

from sympair import verify

_RESULTS: dict[str, verify.CheckResult] = {}


def _run(name: str) -> verify.CheckResult:
    if name not in _RESULTS:
        [result] = verify.run_checks(only=[name])
        _RESULTS[name] = result
    result = _RESULTS[name]
    print(result.summary())
    assert result.passed, result.summary()
    return result


def test_criterion_01_reference_code_24_3_19():
    r = _run("code-24-3-19-gf5")
    assert r.computed["n"] == 24
    assert r.computed["k"] == 3
    assert r.computed["d_hamming"] == 19
    assert r.computed["d_pair"] == 23
    assert r.computed["hamming_method"] == "exhaustive"
    assert r.computed["words_enumerated"] == 124
    assert r.computed["mds_pair"] is True


def test_criterion_02_reference_code_15_11_3():
    r = _run("code-15-11-3-gf5")
    assert r.computed["castagnoli"] == 3
    assert r.computed["enumerated_d_hamming"] == 3
    assert r.computed["d_pair"] == 6
    assert r.computed["mds_pair"] is True
    assert r.computed["pair_encodings_lt_1e7"] is True


def test_criterion_03_reference_code_21_14_5():
    r = _run("code-21-14-5-gf7")
    assert r.computed["castagnoli"] == 5
    assert r.computed["witness_in_code"] is True
    assert r.computed["witness_pair_weight"] == 8
    assert r.computed["d_pair"] == 8
    assert r.computed["pair_certified"] is True


def test_criterion_04_family_3p_7_certified():
    fast = _run("family-3p7-p5")
    assert fast.computed["n"] == 15 and fast.computed["k"] == 10
    assert fast.computed["d_hamming"] == 4
    assert fast.computed["d_pair"] == 7
    assert fast.computed["is_mds_pair"] is True
    heavy = _run("family-3p7-p7")
    assert heavy.computed["n"] == 21 and heavy.computed["k"] == 16
    assert heavy.computed["d_pair"] == 7
    assert heavy.computed["is_mds_pair"] is True


def test_criterion_05_family_3p_8_certified():
    r = _run("family-3p8-p7")
    assert r.computed["n"] == 21 and r.computed["k"] == 15
    assert r.computed["omega"] == 2
    assert r.computed["d_hamming"] == 4
    assert r.computed["d_pair"] == 8
    assert r.computed["is_mds_pair"] is True


def test_criterion_06_family_3p_6_certified():
    for name, n in (("family-3p6-p5", 15), ("family-3p6-p7", 21), ("family-3p6-p11", 33)):
        r = _run(name)
        assert r.computed["n"] == n and r.computed["k"] == n - 4
        assert r.computed["d_hamming"] == 3
        assert r.computed["d_pair"] == 6
        assert r.computed["is_mds_pair"] is True


def test_criterion_07_family_n_6_certified():
    for name, n in (("family-n6-q3-n8", 8), ("family-n6-q5-n24", 24), ("family-n6-q7-n16", 16)):
        r = _run(name)
        assert r.computed["n"] == n and r.computed["k"] == n - 4
        assert r.computed["d_hamming"] == 4
        assert r.computed["d_pair"] == 6
        assert r.computed["hartmann_tzeng"] == 4
        assert r.computed["is_mds_pair"] is True
    bound_only = _run("family-n6-q7-n48")
    assert bound_only.computed["n"] == 48 and bound_only.computed["k"] == 44
    assert bound_only.computed["hartmann_tzeng"] == 4
    assert bound_only.computed["d_hamming"] is None
    assert bound_only.computed["d_pair"] is None
    certified = _run("family-n6-q7-n48-full")
    assert certified.computed["n"] == 48 and certified.computed["k"] == 44
    assert certified.computed["d_hamming"] == 4
    assert certified.computed["d_pair"] == 6
    assert certified.computed["is_mds_pair"] is True


def test_criterion_08_castagnoli_oracle_equivalence():
    r = _run("castagnoli-vs-enumeration")
    assert r.computed["codes"] == 247
    assert r.computed["agreements"] == 247
    assert r.computed["sandwich_violations"] == 0


def test_criterion_09_pair_floor_iff_sweep():
    r = _run("pair-floor-iff-sweep")
    assert r.computed["codes"] == 163
    assert r.computed["iff_violations"] == 0
    assert r.computed["floor_violations"] == 0
    assert r.computed["part2_cases"] == 28
    assert r.computed["part2_violations"] == 0


def test_criterion_10_definitional_cross_checks():
    r = _run("pair-metric-identities")
    assert r.computed["words"] == 10_000
    assert r.computed["mismatches"] == 0
    sweep = _run("castagnoli-vs-enumeration")
    assert sweep.computed["sandwich_violations"] == 0


def test_criterion_11_pair_singleton_never_violated():
    corpus = _run("castagnoli-vs-enumeration")
    assert corpus.computed["singleton_violations"] == 0
    sweep = _run("pair-floor-iff-sweep")
    assert sweep.computed["singleton_violations"] == 0
    for family in ("family-3p7-p5", "family-3p6-p5", "family-3p6-p7", "family-3p6-p11",
                   "family-n6-q3-n8", "family-n6-q5-n24", "family-n6-q7-n16"):
        r = _run(family)
        # certified MDS-pair status is exactly the boundary case of the bound
        assert r.computed["is_mds_pair"] is True

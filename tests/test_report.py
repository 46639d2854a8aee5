"""Code spec files and analysis reports: validation, determinism, budgets."""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

import sympair
from sympair import bounds, code, constructions, errors, gf, poly, report
from sympair.code import ConstacyclicCode
from sympair.poly import Poly

F5 = gf.prime_field(5)
BENCH = Path(__file__).resolve().parents[1] / "bench"

SPEC_15_11 = {"p": 5, "m": 1, "n": 15, "lambda": 1, "generator": [1, 4, 0, 4, 1]}
SPEC_24_3 = {"p": 5, "m": 1, "n": 24,
             "defining_set": sorted(set(range(24)) - {0, 19, 23})}


def _example_15_11():
    x = Poly.x(F5)
    one = Poly.one(F5)
    return ConstacyclicCode.from_generator(F5, 15, 1, (x - one) * (x**3 - one))


def test_spec_dict_round_trip():
    c = _example_15_11()
    d = report.code_spec_dict(c)
    assert d == SPEC_15_11
    back = report.code_from_spec_dict(d)
    assert back.field.q == 5 and back.n == 15 and back.lam == 1
    assert back.g == c.g


def test_spec_file_round_trip(tmp_path):
    c = _example_15_11()
    path = tmp_path / "code.json"
    report.save_code_spec(c, path)
    loaded = report.load_code_spec(path)
    assert loaded.g == c.g and loaded.n == c.n
    # a dict is accepted directly too
    assert report.load_code_spec(SPEC_15_11).g == c.g


def test_spec_defining_set_form():
    c = report.code_from_spec_dict(SPEC_24_3)
    assert (c.n, c.k) == (24, 3)
    with_lambda = dict(SPEC_24_3, **{"lambda": 1})
    assert report.code_from_spec_dict(with_lambda).k == 3
    with pytest.raises(errors.BadParameterError):
        report.code_from_spec_dict(dict(SPEC_24_3, **{"lambda": 2}))


def test_spec_validation_rejects_malformed_inputs():
    cases = [
        {},  # missing everything
        dict(SPEC_15_11, extra=1),  # unknown key
        {k: v for k, v in SPEC_15_11.items() if k != "n"},  # missing n
        dict(SPEC_15_11, defining_set=[0]),  # both forms at once
        {"p": 5, "m": 1, "n": 15, "lambda": 1},  # neither form
        dict(SPEC_15_11, p=True),  # bool masquerading as int
        dict(SPEC_15_11, p="5"),
        dict(SPEC_15_11, generator="10441"),
        dict(SPEC_15_11, generator=[1, 4, 0, 4, 7]),  # coefficient out of range
        dict(SPEC_15_11, m=0),
        {"p": 3, "m": 1, "n": 4, "defining_set": [0], "lambda": True},
    ]
    for bad in cases:
        with pytest.raises(errors.BadParameterError):
            report.code_from_spec_dict(bad)


def test_spec_file_errors(tmp_path):
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    with pytest.raises(errors.BadParameterError):
        report.load_code_spec(garbled)
    not_dict = tmp_path / "list.json"
    not_dict.write_text("[1, 2, 3]")
    with pytest.raises(errors.BadParameterError):
        report.load_code_spec(not_dict)
    with pytest.raises(OSError):
        report.load_code_spec(tmp_path / "missing.json")


def test_analyze_reference_code():
    rep = report.analyze(_example_15_11())
    assert rep.d_hamming.value == 3
    assert rep.d_pair.value == 6
    assert rep.d_pair.certified
    assert rep.mds_pair is True
    assert rep.mds_hamming is False
    assert rep.version == sympair.__version__
    assert rep.bounds.singleton_pair_max_dp == 6


def test_analyze_report_key_order_and_perf():
    rep = report.analyze(_example_15_11())
    full = rep.to_dict()
    assert list(full) == ["version", "code", "d_hamming", "d_pair",
                          "bounds", "mds_hamming", "mds_pair", "perf"]
    stable = rep.to_dict(include_perf=False)
    assert "perf" not in stable
    assert set(full["perf"]) == {"seconds", "encodings"}
    assert full["code"]["generator"] == [1, 4, 0, 4, 1]
    assert full["code"]["beta"] is None  # repeated-root: no root-of-unity frame


def test_analyze_byte_determinism():
    first = report.analyze(_example_15_11()).to_dict(include_perf=False)
    second = report.analyze(_example_15_11()).to_dict(include_perf=False)
    assert json.dumps(first) == json.dumps(second)


def test_analyze_factors_no_polynomial_for_a_repeated_root_code(monkeypatch):
    built = constructions.mds_3p_6(5).code
    fresh = ConstacyclicCode(built.field, built.n, built.lam, built.g)
    calls = []
    real_factor = poly.factor

    def counting_factor(*args, **kwargs):
        calls.append(args)
        return real_factor(*args, **kwargs)

    monkeypatch.setattr(poly, "factor", counting_factor)
    rep = report.analyze(fresh)
    assert len(calls) == 0
    assert rep.d_hamming.method == "castagnoli"
    assert rep.bounds.castagnoli_d_hamming == rep.d_hamming.value == 3
    # the constructor already cached the product formula on ``built``
    cached = report.analyze(built)
    assert len(calls) == 0
    assert cached.to_json(include_perf=False) == rep.to_json(include_perf=False)


def test_analyze_records_beta_for_simple_root_codes():
    c = report.code_from_spec_dict(SPEC_24_3)
    rep = report.analyze(c)
    beta = rep.to_dict()["code"]["beta"]
    assert beta is not None
    assert set(beta) == {"field", "value"}
    assert rep.d_hamming.value == 19
    assert rep.d_pair.value == 23
    assert rep.mds_hamming is False
    assert rep.mds_pair is True
    assert rep.bounds.bch == 19
    assert rep.bounds.hartmann_tzeng == 19


def test_analyze_strategy_passthrough():
    small = report.code_from_spec_dict(SPEC_24_3)
    rep = report.analyze(small, strategy="exhaustive")
    assert rep.d_hamming.method == "exhaustive"
    assert rep.d_pair.method == "exhaustive"


def test_analyze_budget_attaches_partial_report():
    with pytest.raises(errors.BudgetExceededError) as exc_info:
        report.analyze(_example_15_11(), budget=50)
    partial = exc_info.value.partial
    assert partial["budget_exhausted"] == "d_pair"
    assert partial["d_hamming"]["value"] == 3
    assert partial["d_hamming"]["certified"] is True
    assert partial["d_pair"]["is_lower_bound"] is True
    assert partial["d_pair"]["certified"] is False
    # the stopped stage counts its own work; the error counts the request's
    assert partial["d_hamming"]["enumeration_count"] == 3
    assert partial["d_pair"]["enumeration_count"] == 18
    assert exc_info.value.enumerated == 21


def test_analyze_budget_spent_on_hamming_side():
    c = report.code_from_spec_dict(SPEC_24_3)
    with pytest.raises(errors.BudgetExceededError) as exc_info:
        report.analyze(c, strategy="exhaustive", budget=10)
    partial = exc_info.value.partial
    assert partial["budget_exhausted"] == "d_hamming"
    assert partial["d_pair"] is None


def test_analyze_budget_covers_the_bound_reports_product_formula():
    # exhaustive scans leave the product formula to the bound report: 2 * 3124
    # encodings for the distances, 3 column reductions more for its one
    # nontrivial residue code, the [3, 2] code generated by x - 1
    x, one = Poly.x(F5), Poly.one(F5)
    g = (x - one) ** 4 * (x**2 + x + one) ** 3
    for c in (ConstacyclicCode.from_generator(F5, 15, 1, g),) * 2:  # fresh, then cached
        with pytest.raises(errors.BudgetExceededError) as exc_info:
            report.analyze(c, "exhaustive", budget=6248)
        partial = exc_info.value.partial
        assert partial["budget_exhausted"] == "bounds"
        assert partial["d_hamming"]["value"] == 5 and partial["d_pair"] is not None
        assert exc_info.value.enumerated <= 6248
        for budget in (None, 6251):
            rep = report.analyze(c, "exhaustive", budget=budget)
            assert rep.perf["encodings"] == 6251
            assert rep.bounds.castagnoli_d_hamming == rep.d_hamming.value


_BUDGETED = {
    "min_hamming_distance": lambda b: code.min_hamming_distance(_example_15_11(), budget=b),
    "min_pair_distance": lambda b: code.min_pair_distance(_example_15_11(), budget=b),
    "analyze": lambda b: report.analyze(_example_15_11(), budget=b),
    "castagnoli_details": lambda b: bounds.castagnoli_details(_example_15_11(), budget=b),
    "mds_3p_6": lambda b: constructions.mds_3p_6(5, budget=b),
    "mds_3p_7": lambda b: constructions.mds_3p_7(5, budget=b),
    "mds_3p_8": lambda b: constructions.mds_3p_8(7, budget=b),
    "mds_n_6": lambda b: constructions.mds_n_6(5, 24, budget=b),
    "search_optimal_cyclic": lambda b: constructions.search_optimal_cyclic(3, 8, budget=b),
}


def _code_21_14_5():
    """The ``code-21-14-5-gf7`` check's code: two nontrivial residue codes."""
    f7 = gf.prime_field(7)
    x, c = Poly.x(f7), (lambda v: Poly(f7, (v,)))
    return ConstacyclicCode(f7, 21, 1, (x - c(1)) ** 4 * (x - c(2)) ** 2 * (x - c(4)))


#: Requests of several distance calls, each with a budget that runs out
#: after its first call has been charged.
_SHARED_BUDGET = {
    "analyze": (lambda b: report.analyze(_example_15_11(), budget=b), 50),
    "mds_3p_8": (lambda b: constructions.mds_3p_8(7, "full", budget=b), 1064),
    "search_optimal_cyclic": (lambda b: constructions.search_optimal_cyclic(5, 15, budget=b), 20),
    "castagnoli_details": (lambda b: bounds.castagnoli_details(_code_21_14_5(), budget=b), 4),
}


@pytest.mark.parametrize("entry", sorted(_SHARED_BUDGET))
def test_budget_error_states_the_requests_work_against_the_callers_budget(entry):
    run, budget = _SHARED_BUDGET[entry]
    with pytest.raises(errors.BudgetExceededError) as exc_info:
        run(budget)
    exc = own = exc_info.value
    while own.__cause__ is not None:  # down to the engine call that stopped
        own = own.__cause__
    assert own.enumerated < exc.enumerated <= budget  # the calls before it count too
    assert exc.budget == budget
    assert f"({exc.enumerated} used, budget {budget})" in str(exc)


@pytest.mark.parametrize("entry", sorted(_BUDGETED))
def test_budget_is_validated_on_every_entry_point(entry):
    run = _BUDGETED[entry]
    for bad in ("10", -5, True, 2.5):
        with pytest.raises(errors.BadParameterError, match="budget"):
            run(bad)
    try:
        run(0)  # a zero budget is a real budget: spent, not rejected
    except errors.BudgetExceededError:
        pass


def test_search_validates_max_codes():
    for bad in ("3", 2.5, 0, True):
        with pytest.raises(errors.BadParameterError, match="max_codes"):
            constructions.search_optimal_cyclic(3, 8, max_codes=bad)


def test_analyze_rejects_zero_code():
    zero = ConstacyclicCode.from_generator(F5, 15, 1, poly.binomial(F5, 15, 1))
    with pytest.raises(errors.ZeroCodeError):
        report.analyze(zero)


def test_report_json_is_valid_and_ordered():
    text = report.analyze(_example_15_11()).to_json(include_perf=False)
    parsed = json.loads(text)
    assert parsed["d_hamming"]["value"] == 3
    assert text.index('"d_hamming"') < text.index('"d_pair"') < text.index('"bounds"')


def test_report_values_of_the_benchmark_codes_are_frozen(monkeypatch):
    """``analyze`` reports the same values on the 2032 benchmark codes.

    Recipe: for each spec of ``workloads.sweep_specs()``
    (``bench/data/small_sweep.json``, file order) and then of
    ``workloads.LOW_RATE``, take
    ``analyze(code_from_spec_dict(spec)).to_dict(include_perf=False)``, drop
    ``version`` and the ``method`` and ``enumeration_count`` of both
    distances, and feed ``json.dumps(report, sort_keys=True)`` to one sha256.
    What is dropped may change with a version bump or a new ``auto`` choice;
    every value, bound and flag may not.  The digest was computed at commit
    88353ba, when the message-side kernel still read q x q tables.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")  # reads bench/ only
    specs = workloads.sweep_specs() + [item.call[1] for item in workloads.LOW_RATE]
    digest = hashlib.sha256()
    for spec in specs:
        out = report.analyze(report.code_from_spec_dict(spec)).to_dict(include_perf=False)
        del out["version"]
        for side in ("d_hamming", "d_pair"):
            del out[side]["method"], out[side]["enumeration_count"]
        digest.update(json.dumps(out, sort_keys=True).encode())
    assert len(specs) == 2032
    assert digest.hexdigest()[:12] == "834cb905e9e6"

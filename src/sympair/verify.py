"""Built-in verification suite.

Each check rebuilds a reference code from scratch, recomputes every claimed
quantity, and compares the result — exactly, no tolerances — against the
frozen ``EXPECTED`` table.  The whole suite takes under 2 seconds on one
core of a 2-core machine, most of it in the two corpus sweeps and the
metric identities; the three certifications that message-side enumeration
would need several hundred million encodings for are settled by the
dependency search in milliseconds.

Check names describe the object under test, e.g. ``code-24-3-19-gf5`` is
the [24, 3, 19] code over GF(5).  The family checks are rows of one table,
``_FAMILY_CHECKS`` (constructor, arguments, certify level), summarised by
one function; the corpus sweeps walk ``code.divisor_codes``.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass

from . import gf, poly
from .bounds import bound_report, castagnoli_distance, hartmann_tzeng_bound, pair_distance_floor
from .code import (
    ConstacyclicCode,
    divisor_codes,
    hamming_distance,
    min_hamming_distance,
    min_pair_distance,
    pair_distance,
    pair_read_vector,
    pair_weight,
)
from .constructions import mds_3p_6, mds_3p_7, mds_3p_8, mds_n_6
from .errors import BadParameterError

#: name -> check function; insertion order is execution order
_CHECKS: dict[str, object] = {}


def _check(name: str):
    def register(func):
        assert name not in _CHECKS
        _CHECKS[name] = func
        return func
    return register


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: dict
    computed: dict
    seconds: float

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name} ({self.seconds:.2f} s)"
        if not self.passed:
            diffs = []
            for key in sorted(set(self.expected) | set(self.computed)):
                e = self.expected.get(key, "<missing>")
                c = self.computed.get(key, "<missing>")
                if e != c:
                    diffs.append(f"{key}: expected {e!r}, computed {c!r}")
            line += "\n  " + "\n  ".join(diffs)
        return line


def run_checks(only=None) -> list[CheckResult]:
    """Run every check in order, or only the named ones (an iterable)."""
    names = list(_CHECKS) if only is None else list(only)
    unknown = [n for n in names if n not in _CHECKS]
    if unknown:
        raise BadParameterError(f"unknown check names: {unknown}; "
                                f"available: {list(_CHECKS)}")
    results = []
    for name in names:
        t0 = time.perf_counter()
        computed = _CHECKS[name]()
        seconds = time.perf_counter() - t0
        expected = EXPECTED[name]
        results.append(CheckResult(name=name, passed=computed == expected,
                                   expected=expected, computed=computed,
                                   seconds=seconds))
    return results


# ----------------------------------------------------------------------
# reference codes

@_check("code-24-3-19-gf5")
def _code_24_3_19() -> dict:
    field = gf.prime_field(5)
    exponents = sorted(set(range(24)) - {0, 19, 23})
    code = ConstacyclicCode.from_defining_set(field, 24, exponents)
    d_h = min_hamming_distance(code)
    d_p = min_pair_distance(code)
    bounds = bound_report(code, d_hamming=d_h.value)
    return {
        "n": code.n, "k": code.k,
        "d_hamming": d_h.value, "hamming_method": d_h.method,
        "d_pair": d_p.value, "pair_method": d_p.method,
        "words_enumerated": d_h.enumeration_count,
        "mds_pair": code.k == code.n - d_p.value + 2,
        "singleton_pair_max_dp": bounds.singleton_pair_max_dp,
        "pair_floor": bounds.constacyclic_floor.lower_bound,
        "bch": bounds.bch,
        "hartmann_tzeng": bounds.hartmann_tzeng,
    }


@_check("code-15-11-3-gf5")
def _code_15_11_3() -> dict:
    field = gf.prime_field(5)
    x = poly.Poly.x(field)
    g = (x - poly.Poly.one(field)) * poly.binomial(field, 3, 1)
    code = ConstacyclicCode(field, 15, 1, g)
    cast = castagnoli_distance(code)
    d_h = min_hamming_distance(code, "bounded")
    d_p = min_pair_distance(code)
    bounds = bound_report(code, d_hamming=cast)
    return {
        "n": code.n, "k": code.k,
        "castagnoli": cast, "enumerated_d_hamming": d_h.value,
        "d_pair": d_p.value,
        "mds_pair": code.k == code.n - d_p.value + 2,
        "pair_floor": bounds.constacyclic_floor.lower_bound,
        "repeated_root_floor": bounds.repeated_root_floor.lower_bound,
        "repeated_root_condition": bounds.repeated_root_floor.condition_used,
        "pair_encodings_lt_1e7": d_p.enumeration_count < 10 ** 7,
    }


@_check("code-21-14-5-gf7")
def _code_21_14_5() -> dict:
    field = gf.prime_field(7)
    x = poly.Poly.x(field)
    c = lambda v: poly.Poly(field, (v,))
    g = (x - c(1)) ** 4 * (x - c(2)) ** 2 * (x - c(4))
    code = ConstacyclicCode(field, 21, 1, g)
    witness = (6, 4, 1, 1, 0, 0, 0, 0, 0, 0, 3, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    d_p = min_pair_distance(code)
    return {
        "n": code.n, "k": code.k,
        "castagnoli": castagnoli_distance(code),
        "witness_in_code": code.is_member(witness),
        "witness_pair_weight": pair_weight(witness),
        "d_pair": d_p.value,
        "pair_certified": d_p.certified,
    }


# ----------------------------------------------------------------------
# constructed families

#: check name -> (constructor, arguments, certify level), in EXPECTED order
_FAMILY_CHECKS = {
    "family-3p7-p5": (mds_3p_7, (5,), "full"),
    "family-3p7-p7": (mds_3p_7, (7,), "full"),
    "family-3p8-p7": (mds_3p_8, (7,), "full"),
    "family-3p6-p5": (mds_3p_6, (5,), "full"),
    "family-3p6-p7": (mds_3p_6, (7,), "full"),
    "family-3p6-p11": (mds_3p_6, (11,), "full"),
    "family-n6-q3-n8": (mds_n_6, (3, 8), "full"),
    "family-n6-q5-n24": (mds_n_6, (5, 24), "full"),
    "family-n6-q7-n16": (mds_n_6, (7, 16), "full"),
    # "bounds": structural checks and Hartmann-Tzeng only
    "family-n6-q7-n48": (mds_n_6, (7, 48), "bounds"),
    "family-n6-q7-n48-full": (mds_n_6, (7, 48), "full"),
}


def _family_summary(construct, args: tuple, certify: str) -> dict:
    result = construct(*args, certify)
    code, family = result.code, result.family
    out = {
        "n": code.n,
        "k": code.k,
        "d_hamming": None if result.d_hamming is None else result.d_hamming.value,
        "d_pair": None if result.d_pair is None else result.d_pair.value,
        "is_mds_pair": result.is_mds_pair,
    }
    if family.family == "MDS_3P_8":
        out["omega"] = gf.primitive_cube_root(family.parameters["p"]).value
    elif family.family == "MDS_N_6":
        defining = sorted(code.defining_set())
        out["defining_set"] = defining
        out["hartmann_tzeng"] = hartmann_tzeng_bound(defining, code.n, code.field.q)
    return out


for _name, _how in _FAMILY_CHECKS.items():
    _check(_name)(functools.partial(_family_summary, *_how))


# ----------------------------------------------------------------------
# corpus sweeps

@_check("castagnoli-vs-enumeration")
def _castagnoli_sweep() -> dict:
    cases = ((2, 3, 1), (4, 3, 1), (3, 5, 1), (2, 5, 1), (2, 3, 2))
    codes = agreements = sandwich_bad = singleton_bad = 0
    for ell, p, e in cases:
        field = gf.prime_field(p)
        n = ell * p ** e
        for code in divisor_codes(field, n, 1):
            d_h = min_hamming_distance(code, "bounded").value
            d_p = min_pair_distance(code).value
            codes += 1
            agreements += castagnoli_distance(code) == d_h
            if 0 < d_h < n and not (d_h + 1 <= d_p <= 2 * d_h):
                sandwich_bad += 1
            if code.k > n - d_p + 2:
                singleton_bad += 1
    return {"codes": codes, "agreements": agreements,
            "sandwich_violations": sandwich_bad,
            "singleton_violations": singleton_bad}


@_check("pair-floor-iff-sweep")
def _pair_floor_sweep() -> dict:
    corpora = ((2, range(2, 16)), (3, range(2, 10)))
    codes = iff_bad = floor_bad = part2_cases = part2_bad = singleton_bad = 0
    for q, lengths in corpora:
        field = gf.prime_field(q)
        for n in lengths:
            for code in divisor_codes(field, n, 1):
                if code.k == n:
                    continue
                d_h = min_hamming_distance(code, "bounded").value
                if not 2 <= d_h < n:
                    continue  # only k=1 full-weight codes fall outside
                codes += 1
                d_p = min_pair_distance(code).value
                floor = pair_distance_floor(n, code.k, d_h)
                is_mds = code.k == n - d_h + 1
                if (d_p == d_h + 1) != is_mds:
                    iff_bad += 1
                if d_p < floor.lower_bound or (floor.exact and d_p != floor.lower_bound):
                    floor_bad += 1
                if code.k > 1 and n - d_h >= 2 * code.k - 1:
                    part2_cases += 1
                    if d_p < d_h + 3:
                        part2_bad += 1
                if code.k > n - d_p + 2:
                    singleton_bad += 1
    return {"codes": codes, "iff_violations": iff_bad,
            "floor_violations": floor_bad,
            "part2_cases": part2_cases, "part2_violations": part2_bad,
            "singleton_violations": singleton_bad}


@_check("pair-metric-identities")
def _pair_metric_identities() -> dict:
    rng = random.Random(170023)
    fields = (gf.prime_field(2), gf.prime_field(3), gf.prime_field(5),
              gf.prime_field(7), gf.extension_field(2, 3), gf.extension_field(3, 2))
    words = 10_000
    mismatches = 0
    for _ in range(words):
        field = rng.choice(fields)
        n = rng.randint(2, 40)
        a = tuple(rng.randrange(field.q) for _ in range(n))
        b = tuple(rng.randrange(field.q) for _ in range(n))
        zero = (0,) * n
        if pair_weight(a) != hamming_distance(pair_read_vector(a), pair_read_vector(zero)):
            mismatches += 1
        diff = tuple(field.sub(x, y) for x, y in zip(a, b))
        if pair_distance(a, b) != pair_weight(diff):
            mismatches += 1
    return {"words": words, "mismatches": mismatches}


# ----------------------------------------------------------------------
# frozen expectations

EXPECTED: dict[str, dict] = {
    "code-24-3-19-gf5": {
        "n": 24, "k": 3,
        "d_hamming": 19, "hamming_method": "exhaustive",
        "d_pair": 23, "pair_method": "exhaustive",
        "words_enumerated": 124,
        "mds_pair": True,
        "singleton_pair_max_dp": 23,
        "pair_floor": 22,
        "bch": 19,
        "hartmann_tzeng": 19,
    },
    "code-15-11-3-gf5": {
        "n": 15, "k": 11,
        "castagnoli": 3, "enumerated_d_hamming": 3,
        "d_pair": 6,
        "mds_pair": True,
        "pair_floor": 5,
        "repeated_root_floor": 6,
        "repeated_root_condition": 2,
        "pair_encodings_lt_1e7": True,
    },
    "code-21-14-5-gf7": {
        "n": 21, "k": 14,
        "castagnoli": 5,
        "witness_in_code": True,
        "witness_pair_weight": 8,
        "d_pair": 8,
        "pair_certified": True,
    },
    "family-3p7-p5": {"n": 15, "k": 10, "d_hamming": 4, "d_pair": 7, "is_mds_pair": True},
    "family-3p7-p7": {"n": 21, "k": 16, "d_hamming": 4, "d_pair": 7, "is_mds_pair": True},
    "family-3p8-p7": {"n": 21, "k": 15, "d_hamming": 4, "d_pair": 8, "is_mds_pair": True,
                      "omega": 2},
    "family-3p6-p5": {"n": 15, "k": 11, "d_hamming": 3, "d_pair": 6, "is_mds_pair": True},
    "family-3p6-p7": {"n": 21, "k": 17, "d_hamming": 3, "d_pair": 6, "is_mds_pair": True},
    "family-3p6-p11": {"n": 33, "k": 29, "d_hamming": 3, "d_pair": 6, "is_mds_pair": True},
    "family-n6-q3-n8": {"n": 8, "k": 4, "d_hamming": 4, "d_pair": 6, "is_mds_pair": True,
                        "defining_set": [0, 1, 3, 4], "hartmann_tzeng": 4},
    "family-n6-q5-n24": {"n": 24, "k": 20, "d_hamming": 4, "d_pair": 6, "is_mds_pair": True,
                         "defining_set": [0, 1, 5, 6], "hartmann_tzeng": 4},
    "family-n6-q7-n16": {"n": 16, "k": 12, "d_hamming": 4, "d_pair": 6, "is_mds_pair": True,
                         "defining_set": [0, 1, 7, 8], "hartmann_tzeng": 4},
    "family-n6-q7-n48": {"n": 48, "k": 44, "d_hamming": None, "d_pair": None,
                         "is_mds_pair": None,
                         "defining_set": [0, 1, 7, 8], "hartmann_tzeng": 4},
    "family-n6-q7-n48-full": {"n": 48, "k": 44, "d_hamming": 4, "d_pair": 6,
                              "is_mds_pair": True,
                              "defining_set": [0, 1, 7, 8], "hartmann_tzeng": 4},
    "castagnoli-vs-enumeration": {
        "codes": 247, "agreements": 247,
        "sandwich_violations": 0, "singleton_violations": 0,
    },
    "pair-floor-iff-sweep": {
        "codes": 163, "iff_violations": 0, "floor_violations": 0,
        "part2_cases": 28, "part2_violations": 0, "singleton_violations": 0,
    },
    "pair-metric-identities": {"words": 10_000, "mismatches": 0},
}

assert list(EXPECTED) == list(_CHECKS)

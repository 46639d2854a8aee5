"""Constructors for four families of MDS symbol-pair cyclic codes, plus a
small-parameter search for pair-Singleton-optimal cyclic codes.

Families (all cyclic, i.e. lambda = 1):

* ``mds_3p_7``  — g = (x-1)^3 (x^2+x+1) over GF(p), p >= 5 prime:
  [3p, 3p-5, 4] with pair distance 7.
* ``mds_3p_8``  — g = (x-1)^3 (x-w)^2 (x-w^2) over GF(p), p = 1 mod 3,
  w a primitive cube root of unity: [3p, 3p-6, 4] with pair distance 8.
* ``mds_3p_6``  — g = (x-1)(x^3-1) over GF(p), p >= 5 prime:
  [3p, 3p-4, 3] with pair distance 6.
* ``mds_n_6``   — defining set C_0 u C_1 u C_{q+1} mod n for n | q^2 - 1,
  n >= q + 4: [n, n-4, 4] with pair distance 6.

Constructors verify their output rather than trusting the formulas: the
``certify`` level controls how much enumeration that takes (see
``ConstructionResult``).  Checks that must hold by construction are plain
asserts; violated *input* preconditions raise BadParameterError.

``search_optimal_cyclic`` certifies both distances of every proper nonzero
cyclic code that ``code.divisor_codes`` yields for (GF(q), n, lambda = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf, poly
from .bounds import hartmann_tzeng_bound
from .code import (
    ConstacyclicCode,
    DistanceResult,
    check_budget,
    divisor_codes,
    min_hamming_distance,
    min_pair_distance,
)
from .errors import BadParameterError, BudgetExceededError, OutOfScopeError, require_int

#: Certification levels: structure only, or both distances certified exactly.
CERTIFY_LEVELS = ("bounds", "full")


@dataclass(frozen=True)
class FamilySpec:
    """A family instance's identity and its expected parameters."""

    family: str          # "MDS_3P_7" | "MDS_3P_8" | "MDS_3P_6" | "MDS_N_6"
    parameters: dict     # {"p": ...} or {"q": ..., "n": ...}
    expected_n: int
    expected_k: int
    expected_d_hamming: int
    expected_d_pair: int

    def __post_init__(self):
        # every family meets the pair-Singleton bound with equality and
        # sits inside the sandwich d_H + 1 <= d_p <= 2 d_H
        assert self.expected_k == self.expected_n - self.expected_d_pair + 2
        assert self.expected_d_hamming + 1 <= self.expected_d_pair <= 2 * self.expected_d_hamming

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "parameters": dict(self.parameters),
            "expected_n": self.expected_n,
            "expected_k": self.expected_k,
            "expected_d_hamming": self.expected_d_hamming,
            "expected_d_pair": self.expected_d_pair,
        }


@dataclass(frozen=True)
class ConstructionResult:
    """A constructed code with whatever certification was requested.

    certify="bounds" — structural checks plus whatever is free: the 3p
                       families get d_H from the repeated-root product
                       formula; mds_n_6 gets the Hartmann-Tzeng check only.
    certify="full"   — d_hamming and d_pair certified exactly (default).
    """

    code: ConstacyclicCode
    family: FamilySpec
    d_hamming: DistanceResult | None
    d_pair: DistanceResult | None

    @property
    def is_mds_pair(self) -> bool | None:
        """Whether d_pair meets the pair-Singleton bound; None when it was not computed."""
        if self.d_pair is None:
            return None
        return self.code.k == self.code.n - self.d_pair.value + 2


def _require_options(certify: str, budget: int | None) -> None:
    check_budget(budget)
    if certify not in CERTIFY_LEVELS:
        raise BadParameterError(f"certify must be one of {CERTIFY_LEVELS}, got {certify!r}")


def _prime_field_at_least_5(p) -> gf.Field:
    field = gf.prime_field(p)
    if p < 5:
        raise BadParameterError(f"p must be at least 5, got {p}")
    return field


def _certified(code: ConstacyclicCode, spec: FamilySpec, certify: str,
               budget: int | None) -> ConstructionResult:
    """Run the requested enumeration and check it against the expectations.

    Both distances draw on one ``budget``; running out raises
    BudgetExceededError whose ``enumerated`` counts the work of both.
    """
    d_h = d_p = None
    spent = 0
    if certify == "full" or code.repeated_root_split is not None:
        # the repeated-root families certify d_H for free via the product
        # formula, so the "bounds" level gets it too
        d_h = min_hamming_distance(code, "auto", budget=budget)
        assert d_h.value == spec.expected_d_hamming
        spent = d_h.enumeration_count
    if certify == "full":
        try:
            d_p = min_pair_distance(code, "auto",
                                    budget=None if budget is None else budget - spent)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                str(exc), lower_bound=exc.lower_bound, upper_bound=exc.upper_bound,
                enumerated=spent + exc.enumerated) from exc
        assert d_p.value == spec.expected_d_pair
    return ConstructionResult(code=code, family=spec, d_hamming=d_h, d_pair=d_p)


def mds_3p_7(p: int, certify: str = "full", *,
             budget: int | None = None) -> ConstructionResult:
    """[3p, 3p-5, 4] cyclic code over GF(p) with pair distance 7, p >= 5 prime."""
    _require_options(certify, budget)
    field = _prime_field_at_least_5(p)
    x = poly.Poly.x(field)
    one = poly.Poly.one(field)
    g = (x - one) ** 3 * poly.Poly(field, (1, 1, 1))
    code = ConstacyclicCode(field, 3 * p, 1, g)
    spec = FamilySpec("MDS_3P_7", {"p": p}, 3 * p, 3 * p - 5, 4, 7)
    return _certified(code, spec, certify, budget)


def mds_3p_8(p: int, certify: str = "full", *,
             budget: int | None = None) -> ConstructionResult:
    """[3p, 3p-6, 4] cyclic code over GF(p) with pair distance 8, p = 1 mod 3."""
    _require_options(certify, budget)
    field = _prime_field_at_least_5(p)
    if p % 3 != 1:
        raise BadParameterError(f"p must be 1 mod 3 so cube roots of unity exist, got {p}")
    omega = gf.primitive_cube_root(p)
    x = poly.Poly.x(field)
    one = poly.Poly.one(field)
    g = ((x - one) ** 3
         * (x - poly.Poly(field, (omega,))) ** 2
         * (x - poly.Poly(field, (field.mul(omega, omega),))))
    code = ConstacyclicCode(field, 3 * p, 1, g)
    spec = FamilySpec("MDS_3P_8", {"p": p}, 3 * p, 3 * p - 6, 4, 8)
    return _certified(code, spec, certify, budget)


def mds_3p_6(p: int, certify: str = "full", *,
             budget: int | None = None) -> ConstructionResult:
    """[3p, 3p-4, 3] cyclic code over GF(p) with pair distance 6, p >= 5 prime."""
    _require_options(certify, budget)
    field = _prime_field_at_least_5(p)
    x = poly.Poly.x(field)
    one = poly.Poly.one(field)
    g = (x - one) * poly.binomial(field, 3, 1)
    code = ConstacyclicCode(field, 3 * p, 1, g)
    spec = FamilySpec("MDS_3P_6", {"p": p}, 3 * p, 3 * p - 4, 3, 6)
    return _certified(code, spec, certify, budget)


def mds_n_6(q: int, n: int, certify: str = "full", *,
            budget: int | None = None) -> ConstructionResult:
    """[n, n-4, 4] cyclic code over GF(q) with pair distance 6, from the
    defining set C_0 u C_1 u C_{q+1} mod n, where n | q^2 - 1 and n >= q + 4."""
    _require_options(certify, budget)
    field = _field_of_order(q)  # q = 2 fails below: n | 3 and n >= 6 cannot both hold
    if (q * q - 1) % require_int(n, "n", least=1) != 0:
        raise BadParameterError(f"n must divide q^2 - 1 = {q * q - 1}, got {n}")
    if n < q + 4:
        raise BadParameterError(f"n must be at least q + 4 = {q + 4}, got {n}")
    # n >= q + 4 makes C_1 = {1, q} and C_{q+1} = {q + 1}, so k = n - 4
    code = ConstacyclicCode.from_defining_set(field, n, (0, 1, q + 1), expand=True)
    spec = FamilySpec("MDS_N_6", {"q": q, "n": n}, n, n - 4, 4, 6)
    assert code.k == spec.expected_k
    assert hartmann_tzeng_bound(code.defining_set(), n, q) >= spec.expected_d_hamming
    return _certified(code, spec, certify, budget)


def _field_of_order(q: int) -> gf.Field:
    # the limit comes before factoring, which would take ~sqrt(q) steps
    if require_int(q, "q", least=2) > gf.Q_LIMIT:
        raise OutOfScopeError(f"field order {q} exceeds the supported limit {gf.Q_LIMIT}")
    if len(gf.prime_factors(q)) != 1:
        raise BadParameterError(f"q must be a prime power >= 2, got {q}")
    (p,) = gf.prime_factors(q)
    m = 0
    r = q
    while r > 1:
        r //= p
        m += 1
    return gf.extension_field(p, m)


# ----------------------------------------------------------------------
# small-parameter search

@dataclass(frozen=True)
class SearchEntry:
    """One cyclic code examined by ``search_optimal_cyclic``."""

    code: ConstacyclicCode
    d_hamming: DistanceResult
    d_pair: DistanceResult

    @property
    def is_mds_pair(self) -> bool:
        return self.code.k == self.code.n - self.d_pair.value + 2


def search_optimal_cyclic(q: int, n: int, max_codes: int | None = None,
                          budget: int | None = None) -> list[SearchEntry]:
    """Certified (d_H, d_p) for every nontrivial cyclic code of length n over
    GF(q), flagging codes that meet the pair-Singleton bound with equality.

    Codes come in the order of ``divisor_codes(GF(q), n, 1)``, skipping the
    full space (k = n).  ``budget`` caps total work (encodings and column
    reductions) across the whole search; running out raises
    BudgetExceededError with the finished entries attached.
    """
    check_budget(budget)
    check_budget(max_codes, "max_codes", least=1)
    entries: list[SearchEntry] = []
    spent = 0

    def remaining() -> int | None:
        return None if budget is None else budget - spent

    for code in divisor_codes(_field_of_order(q), n, 1):
        if code.k == n:
            continue
        try:
            d_h = min_hamming_distance(code, "auto", budget=remaining())
            spent += d_h.enumeration_count
            d_p = min_pair_distance(code, "auto", budget=remaining())
            spent += d_p.enumeration_count
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"search budget {budget} exhausted after {len(entries)} codes",
                enumerated=spent + exc.enumerated,
                partial=tuple(entries)) from exc
        entries.append(SearchEntry(code=code, d_hamming=d_h, d_pair=d_p))
        if max_codes is not None and len(entries) >= max_codes:
            break
    return entries

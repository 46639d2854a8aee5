"""Distance bounds: Singleton-type pair bound, pair-distance floors for
constacyclic codes, the repeated-root Hamming-distance product formula via
residue codes, and the BCH / Hartmann-Tzeng bounds for defining sets.

The pair-distance floors capture two structural facts about constacyclic
codes with 0 < d_H < n:

* ``pair_distance_floor`` — d_p = d_H + 1 exactly when the code is MDS
  (k = n - d_H + 1); otherwise d_p >= d_H + 2, improving to d_H + 3 when
  k > 1 and n - d_H >= 2k - 1.
* ``repeated_root_pair_floor`` — for repeated-root cyclic codes of length
  l * p^e with d_H prime, d_p >= d_H + 3 when l < d_H < n - k (condition 1)
  or when the t = 0 residue code is zero, i.e. (x^l - 1) | g, and
  2 < d_H < n - k (condition 2).

``castagnoli_distance`` computes the exact minimum Hamming distance of a
repeated-root cyclic code as min over t of P_t * d_H(residue_t), where P_t
multiplies (digit + 1) over the base-p digits of t and residue_t is the
simple-root length-l code generated by g_t, the product of the irreducible
factors of g of multiplicity greater than t (distance infinity for the zero
residue code; Castagnoli-Massey-Schoeller-von Seemann, IEEE T-IT 37(2),
1991).  No polynomial is factored: x^l - 1 is square-free, so the g_t come
from one gcd chain, a_0 = g, g_t = gcd(a_t, x^l - 1), a_(t+1) = a_t / g_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gf, poly
from .code import ConstacyclicCode, Ledger, min_hamming_distance
from .errors import (
    BudgetExceededError,
    LengthTooShortError,
    NotCoprimeError,
    NotRepeatedRootError,
    NotUnionOfCosetsError,
    OutOfScopeError,
    ZeroCodeError,
    require_int,
)

#: Distance of the zero residue code; absorbs multiplication, loses every min.
INF = math.inf


def singleton_pair_max(n: int, q: int, k: int) -> int:
    """Largest pair distance allowed by M <= q^(n - d_p + 2) for M = q^k.

    A code meeting it with equality is an MDS symbol-pair code.
    """
    require_int(n, "length", least=2)
    require_int(q, "alphabet size", least=2)
    require_int(k, "dimension", 1, n)
    return n - k + 2


@dataclass(frozen=True)
class PairDistanceFloor:
    """Lower bound on d_p from (n, k, d_H) alone; exact when the code is MDS."""

    applicable: bool
    lower_bound: int | None
    exact: bool

    def to_dict(self) -> dict:
        return {"applicable": self.applicable, "lower_bound": self.lower_bound,
                "exact": self.exact}


def pair_distance_floor(n: int, k: int, d_hamming: int) -> PairDistanceFloor:
    """Pair-distance floor for any constacyclic [n, k, d_H] code, 2 <= d_H < n."""
    require_int(n, "length", least=2)
    require_int(k, "dimension", 1, n - 1)
    if not 2 <= require_int(d_hamming, "d_H") < n:
        raise OutOfScopeError(
            f"pair-distance floor covers 2 <= d_H < n only, got d_H={d_hamming!r}, n={n}")
    if k == n - d_hamming + 1:
        return PairDistanceFloor(True, d_hamming + 1, True)
    bound = d_hamming + 2
    if k > 1 and n - d_hamming >= 2 * k - 1:
        bound = d_hamming + 3
    return PairDistanceFloor(True, bound, False)


# ----------------------------------------------------------------------
# repeated-root machinery

@dataclass(frozen=True)
class RepeatedRootShape:
    """Shape data of a repeated-root cyclic code: n = l * p^e, l > 1 coprime to p.

    ``residue_generators`` holds the p^e monic residue generators g_t,
    t = 0..p^e - 1: g_t is the product of the irreducible factors of g whose
    multiplicity exceeds t, so g_0 = x^l - 1 exactly when the t = 0 residue
    code is zero, and g = g_0 g_1 ... g_(p^e - 1).
    """

    field: gf.Field
    ell: int
    e: int
    residue_generators: tuple[poly.Poly, ...]

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def n(self) -> int:
        return self.ell * self.p ** self.e


def repeated_root_shape(code: ConstacyclicCode) -> RepeatedRootShape:
    """Residue generators of a repeated-root cyclic code, from one gcd chain.

    g divides x^n - 1 = (x^l - 1)^(p^e) (the constructor's walk proved it)
    and x^l - 1 is square-free, so gcd(a_t, x^l - 1) takes each factor
    still in a_t once: a_0 = g, g_t = gcd(a_t, x^l - 1), a_(t+1) = a_t / g_t,
    ending at a_(p^e) = 1.  Raises NotRepeatedRootError unless the code is
    cyclic with n = l * p^e, e >= 1 and l > 1.  Computed once per code
    object.
    """
    if code._shape is not None:
        return code._shape
    split = code.repeated_root_split
    if split is None:
        if not code.is_cyclic:
            raise NotRepeatedRootError(
                f"repeated-root analysis needs a cyclic code, got lambda = {code.lam}")
        if code.is_simple_root:
            raise NotRepeatedRootError(
                f"gcd(n, p) = 1: [{code.n}] over GF({code.field.q}) is simple-root")
        raise NotRepeatedRootError(
            f"n = {code.n} is a pure power of the characteristic; need l > 1 in n = l * p^e")
    ell, e = split
    base = poly.binomial(code.field, ell, 1)
    generators, a = [], code.g
    for _ in range(code.field.p ** e):
        g_t = poly.poly_gcd(a, base)
        generators.append(g_t)
        a = a // g_t
    assert a == poly.Poly.one(code.field), "g divides (x^l - 1)^(p^e)"
    code._shape = RepeatedRootShape(field=code.field, ell=ell, e=e,
                                    residue_generators=tuple(generators))
    return code._shape


def radix_p_product(t: int, p: int) -> int:
    """P_t: the product of (digit + 1) over the base-p digits of t (P_0 = 1)."""
    require_int(t, "t", least=0)
    gf.prime_field(p)  # the prime test, which checks the size limit first
    out = 1
    while t:
        out *= t % p + 1
        t //= p
    return out


def residue_code(shape: RepeatedRootShape | ConstacyclicCode, t: int) -> ConstacyclicCode:
    """The simple-root length-l cyclic code generated by g_t, the product of
    the factors of g of multiplicity > t (``residue_generators[t]``).  May be
    the zero code (k = 0) or the full space."""
    if isinstance(shape, ConstacyclicCode):
        shape = repeated_root_shape(shape)
    require_int(t, "t", 0, shape.p ** shape.e - 1)
    return ConstacyclicCode(shape.field, shape.ell, 1, shape.residue_generators[t])


@dataclass(frozen=True)
class CastagnoliTerm:
    """One t-term of the repeated-root distance formula."""

    t: int
    radix_product: int
    residue_generator: poly.Poly
    residue_distance: int | float  # INF for the zero residue code
    contribution: int | float


def castagnoli_details(code: ConstacyclicCode, *, budget: int | None = None):
    """(distance, per-t terms, enumeration count) of the product formula.

    The distance is min over 0 <= t < p^e of P_t * d_H(residue_t); zero
    residue codes contribute INF and cannot all occur for a nonzero code.
    Each distinct g_t is built into a code and certified once.  Residue
    codes are simple-root, so ``auto`` certifies each distance on
    the cheaper of its message and parity sides; together they may spend
    at most ``budget`` units of work (encodings and column reductions).
    The result is kept on the code object, so later calls within budget
    reuse it.
    """
    ledger = Ledger(budget)
    if code.k == 0:
        raise ZeroCodeError("the zero code has no minimum distance")
    if code._castagnoli is not None and (budget is None or code._castagnoli[2] <= budget):
        return code._castagnoli
    shape = repeated_root_shape(code)
    cache: dict[poly.Poly, int | float] = {}
    terms = []
    for t, g_t in enumerate(shape.residue_generators):
        if g_t not in cache:
            res = residue_code(shape, t)
            if res.k == 0:
                cache[g_t] = INF
            elif res.k == res.n:
                cache[g_t] = 1
            else:
                try:
                    cache[g_t] = ledger(min_hamming_distance, res).value
                except BudgetExceededError as exc:
                    raise BudgetExceededError(
                        f"product formula, residue code t = {t}: {exc.what}", lower_bound=1,
                        enumerated=exc.enumerated, budget=exc.budget) from exc
        d_t = cache[g_t]
        P_t = radix_p_product(t, shape.p)
        terms.append(CastagnoliTerm(
            t=t, radix_product=P_t, residue_generator=g_t, residue_distance=d_t,
            contribution=INF if d_t is INF else P_t * d_t))
    value = min(term.contribution for term in terms)
    assert value is not INF, "a nonzero code has a nonzero residue code"
    code._castagnoli = (int(value), tuple(terms), ledger.spent)
    return code._castagnoli


def castagnoli_distance(code: ConstacyclicCode) -> int:
    """Exact minimum Hamming distance of a repeated-root cyclic code."""
    return castagnoli_details(code)[0]


@dataclass(frozen=True)
class RepeatedRootPairFloor:
    """d_p >= d_H + 3 floor for repeated-root cyclic codes with prime d_H."""

    applicable: bool
    condition_used: int | None  # 1: l < d_H < n - k; 2: zero t = 0 residue, 2 < d_H < n - k
    lower_bound: int | None

    def to_dict(self) -> dict:
        return {"applicable": self.applicable, "condition_used": self.condition_used,
                "lower_bound": self.lower_bound}


def repeated_root_pair_floor(code: ConstacyclicCode, d_hamming: int) -> RepeatedRootPairFloor:
    """Check the repeated-root pair floor; inapplicable rather than guessed
    when d_H is not prime or neither condition holds.  Condition 2 asks that
    the t = 0 residue code be zero: g_0 = x^l - 1, i.e. (x^l - 1) | g."""
    shape = repeated_root_shape(code)
    n, k = code.n, code.k
    if not gf.is_prime(require_int(d_hamming, "d_H", 1, n)):  # range before trial division
        return RepeatedRootPairFloor(False, None, None)
    if shape.ell < d_hamming < n - k:
        return RepeatedRootPairFloor(True, 1, d_hamming + 3)
    if (shape.residue_generators[0] == poly.binomial(code.field, shape.ell, 1)
            and 2 < d_hamming < n - k):
        return RepeatedRootPairFloor(True, 2, d_hamming + 3)
    return RepeatedRootPairFloor(False, None, None)


# ----------------------------------------------------------------------
# defining-set bounds (simple-root cyclic codes)

def bch_bound(T, n: int) -> int:
    """1 + the longest circular run of consecutive residues contained in T."""
    T = poly.exponent_set(T, poly.require_length(n, "modulus n"))
    if len(T) == n:
        return n + 1
    best = 0
    run = 0
    for i in range(2 * n):
        if i % n in T:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return 1 + best


def hartmann_tzeng_bound(T, n: int, q: int) -> int:
    """Exhaustive Hartmann-Tzeng bound over a defining set T.

    max of delta + s over b, delta >= 2, a with gcd(a, n) < delta and s >= 0
    such that {b + i1 + i2*a : 0 <= i1 <= delta-2, 0 <= i2 <= s} lies in T.
    Always >= the BCH bound (a = 1, s = 0 recovers it).
    """
    if math.gcd(poly.require_length(n, "modulus n"), require_int(q, "q", least=2)) != 1:
        raise NotCoprimeError(f"gcd({n}, {q}) = {math.gcd(n, q)} != 1")
    T = poly.exponent_set(T, n)
    if {x * q % n for x in T} - T:
        raise NotUnionOfCosetsError(
            f"T is not closed under *{q} mod {n}; the bound applies to defining sets only")
    if not T:
        return 1
    if len(T) == n:
        return n + 1
    runlen = [0] * n
    for x in range(n):
        L = 0
        while L < n and (x + L) % n in T:
            L += 1
        runlen[x] = L
    best = 1
    for b in range(n):
        for delta in range(2, runlen[b] + 2):
            need = delta - 1
            for a in range(1, n):
                if math.gcd(a, n) >= delta:
                    continue
                s = 0
                pos = (b + a) % n
                while runlen[pos] >= need:
                    s += 1
                    pos = (pos + a) % n
                    assert s <= n, "T != Z_n and gcd(a, n) < delta forbid full cycles"
                if delta + s > best:
                    best = delta + s
    return best


# ----------------------------------------------------------------------
# aggregate report

@dataclass(frozen=True)
class BoundReport:
    """Every bound the toolkit can attach to one code (None = not applicable)."""

    singleton_pair_max_dp: int
    constacyclic_floor: PairDistanceFloor
    repeated_root_floor: RepeatedRootPairFloor
    castagnoli_d_hamming: int | None
    bch: int | None
    hartmann_tzeng: int | None

    def to_dict(self) -> dict:
        return {
            "singleton_pair_max_dp": self.singleton_pair_max_dp,
            "constacyclic_floor": self.constacyclic_floor.to_dict(),
            "repeated_root_floor": self.repeated_root_floor.to_dict(),
            "castagnoli_d_hamming": self.castagnoli_d_hamming,
            "bch": self.bch,
            "hartmann_tzeng": self.hartmann_tzeng,
        }


def bound_report(code: ConstacyclicCode, d_hamming: int | None = None) -> BoundReport:
    """Aggregate all applicable bounds for a code (k >= 1, n >= 2);
    ``d_hamming``, when given, must be an integer in 1..n."""
    if code.k == 0:
        raise ZeroCodeError("bounds are reported for nonzero codes only")
    if code.n < 2:
        raise LengthTooShortError("pair bounds need n >= 2")
    if d_hamming is not None:
        require_int(d_hamming, "d_H", 1, code.n)
    if d_hamming is not None and 2 <= d_hamming < code.n and code.k < code.n:
        floor = pair_distance_floor(code.n, code.k, d_hamming)
    else:
        floor = PairDistanceFloor(False, None, False)
    if code.repeated_root_split is not None:
        castagnoli = castagnoli_distance(code)
        rr_floor = (repeated_root_pair_floor(code, d_hamming)
                    if d_hamming is not None
                    else RepeatedRootPairFloor(False, None, None))
    else:
        castagnoli = None
        rr_floor = RepeatedRootPairFloor(False, None, None)
    T = code.defining_set()
    if T is not None:
        bch = bch_bound(T, code.n)
        ht = hartmann_tzeng_bound(T, code.n, code.field.q)
    else:
        bch = ht = None
    return BoundReport(
        singleton_pair_max_dp=singleton_pair_max(code.n, code.field.q, code.k),
        constacyclic_floor=floor,
        repeated_root_floor=rr_floor,
        castagnoli_d_hamming=castagnoli,
        bch=bch,
        hartmann_tzeng=ht,
    )

"""Univariate polynomial algebra over a finite field.

Polynomials are immutable dense coefficient tuples of canonical integers
(index i = coefficient of x^i, little-endian), normalized so the last
coefficient is nonzero; the zero polynomial is the empty tuple and has
degree ``NEG_INF`` so that deg(fg) = deg f + deg g stays a total law.

Besides arithmetic this module provides complete factorization
(square-free decomposition with p-th-root extraction, then distinct-degree
and randomized equal-degree splitting), cyclotomic cosets, and minimal
polynomials of roots of unity located in a deterministic splitting field.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from . import gf
from .errors import (
    BadParameterError,
    DivisionByZeroError,
    FieldMismatchError,
    NotCoprimeError,
    OutOfScopeError,
    ZeroPolynomialError,
)

#: Degree of the zero polynomial.
NEG_INF = float("-inf")

#: Largest supported length n: x^n - lambda and the cosets mod n take O(n) memory.
N_LIMIT = 1 << 16


class Poly:
    """Dense univariate polynomial over one :class:`~sympair.gf.Field`."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: gf.Field, coeffs=()):
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        self.field = field
        self.coeffs = tuple(field.check(c) for c in coeffs[:end])

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, field: gf.Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: gf.Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: gf.Field) -> "Poly":
        return cls(field, (0, 1))

    # ------------------------------------------------------------------
    # structure

    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coeff(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomialError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        """Coefficient of x^i (0 beyond the degree)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self.field!r}, {self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                terms.append(xpow if c == 1 else f"{c}*{xpow}")
        return " + ".join(terms)

    # ------------------------------------------------------------------
    # arithmetic

    def _check_same_field(self, other: "Poly") -> None:
        if self.field != other.field:
            raise FieldMismatchError(
                f"polynomials over {self.field!r} and {other.field!r} cannot be combined")

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_field(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_field(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(F)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        return Poly(F, out)

    def scale(self, c: int) -> "Poly":
        """Multiply by a field constant."""
        F = self.field
        return Poly(F, [F.mul(c, a) for a in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_field(other)
        if other.is_zero():
            raise DivisionByZeroError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        dlen = len(other.coeffs)
        if len(rem) < dlen:
            return Poly.zero(F), self
        inv_lead = F.inv(other.coeffs[-1])
        quot = [0] * (len(rem) - dlen + 1)
        for top in range(len(rem) - 1, dlen - 2, -1):
            c = rem[top]
            if c == 0:
                continue
            factor = F.mul(c, inv_lead)
            quot[top - dlen + 1] = factor
            for i, dc in enumerate(other.coeffs):
                if dc:
                    rem[top - dlen + 1 + i] = F.sub(rem[top - dlen + 1 + i], F.mul(factor, dc))
        return Poly(F, quot), Poly(F, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise BadParameterError(f"polynomial exponent must be a nonnegative int, got {e!r}")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def monic(self) -> "Poly":
        """The monic associate (divide by the leading coefficient)."""
        if self.is_zero():
            raise ZeroPolynomialError("the zero polynomial has no monic associate")
        if self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def __call__(self, point):
        """Evaluate by Horner's rule; int -> int, Element -> Element."""
        if isinstance(point, gf.Element):
            return gf.Element(point.field, self(point.value))
        F = self.field
        x = F.check(point)
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def derivative(self) -> "Poly":
        """Formal derivative: coefficient i of the output is (i+1) * coeff_{i+1}."""
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(F.mul(i % F.p, self.coeffs[i]))
        return Poly(F, out)


def binomial(field: gf.Field, n: int, lam: int) -> Poly:
    """The polynomial x^n - lam."""
    if n < 1:
        raise BadParameterError(f"exponent must be >= 1, got {n}")
    if n > N_LIMIT:
        raise OutOfScopeError(f"length {n} exceeds the supported limit {N_LIMIT}")
    coeffs = [field.neg(field.check(lam))] + [0] * (n - 1) + [1]
    return Poly(field, coeffs)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    f._check_same_field(g)
    if f.is_zero() and g.is_zero():
        raise ZeroPolynomialError("gcd(0, 0) is undefined")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def powmod(f: Poly, e: int, mod: Poly) -> Poly:
    """f^e mod ``mod`` by square-and-multiply (e >= 0)."""
    if mod.degree is NEG_INF or mod.degree < 1:
        raise BadParameterError("powmod modulus must have degree >= 1")
    result = Poly.one(f.field)
    base = f % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over the coefficient field (Rabin's Frobenius test)."""
    d = f.degree
    if d is NEG_INF or d < 1:
        return False
    if d == 1:
        return True
    f = f.monic()
    q = f.field.q
    x = Poly.x(f.field)
    checkpoints = {d // r for r in gf.prime_factors(d)}
    h = x % f
    for i in range(1, d + 1):
        h = powmod(h, q, f)
        if i in checkpoints and poly_gcd(h - x, f).degree != 0:
            return False
    return h == x % f


# ----------------------------------------------------------------------
# cyclotomic cosets and minimal polynomials

@dataclass(frozen=True)
class CyclotomicCoset:
    """The orbit of an exponent under multiplication by q modulo n."""

    n: int
    q: int
    members: tuple[int, ...]

    @property
    def representative(self) -> int:
        return self.members[0]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, item: int) -> bool:
        return item in self.members


def cyclotomic_cosets(n: int, q: int) -> list[CyclotomicCoset]:
    """All q-cyclotomic cosets modulo n, sorted by representative."""
    if not isinstance(n, int) or n < 1:
        raise BadParameterError(f"modulus n must be a positive integer, got {n!r}")
    if not isinstance(q, int) or q < 2:
        raise BadParameterError(f"field size q must be an integer >= 2, got {q!r}")
    if math.gcd(n, q) != 1:
        raise NotCoprimeError(f"gcd({n}, {q}) = {math.gcd(n, q)} != 1")
    if n > N_LIMIT:
        raise OutOfScopeError(f"modulus {n} exceeds the supported limit {N_LIMIT}")
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = []
        x = start
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = x * q % n
        out.append(CyclotomicCoset(n=n, q=q, members=tuple(sorted(orbit))))
    return out


def cyclotomic_coset(n: int, q: int, exponent: int) -> CyclotomicCoset:
    """The single q-cyclotomic coset modulo n containing ``exponent``."""
    if not isinstance(exponent, int) or isinstance(exponent, bool):
        raise BadParameterError(f"exponent must be an integer, got {exponent!r}")
    return next(c for c in cyclotomic_cosets(n, q) if exponent % n in c)


def exponent_set(exponents, n: int) -> set[int]:
    """``exponents`` as a set of residues, each an int (not a bool) in Z_n."""
    out = set()
    for j in exponents:
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < n:
            raise BadParameterError(f"exponent {j!r} is not in Z_{n}")
        out.add(j)
    return out


def multiplicative_order_mod(q: int, n: int) -> int:
    """Order of q in the unit group mod n (gcd(q, n) must be 1)."""
    if math.gcd(n, q) != 1:
        raise NotCoprimeError(f"gcd({n}, {q}) = {math.gcd(n, q)} != 1")
    if n == 1:
        return 1
    acc = q % n
    t = 1
    while acc != 1:
        acc = acc * q % n
        t += 1
    return t


@functools.lru_cache(maxsize=None)
def root_of_unity_context(field: gf.Field, n: int):
    """Splitting field for x^n - 1 over ``field`` and the fixed root beta.

    Returns (extension field of degree ord_n(q), beta) where beta is the
    smallest canonical element of multiplicative order exactly n.  All
    defining-set computations over (field, n) share this beta.
    """
    m = multiplicative_order_mod(field.q, n)
    ext = gf.tower_field(field, m)
    beta = gf.primitive_root_of_unity(ext, n).value
    return ext, beta


def minimal_polynomial(coset: CyclotomicCoset, field: gf.Field) -> Poly:
    """Monic minimal polynomial over ``field`` of beta^j for j in the coset.

    beta is the deterministic primitive n-th root of unity from
    :func:`root_of_unity_context`; the product over the coset's conjugate
    exponents has all coefficients in the base field.
    """
    if field.q != coset.q:
        raise FieldMismatchError(
            f"coset is q={coset.q}-cyclotomic but the field has order {field.q}")
    ext, beta = root_of_unity_context(field, coset.n)
    prod = Poly.one(ext)
    for j in coset.members:
        root = ext.pow(beta, j)
        prod = prod * Poly(ext, (ext.neg(root), 1))
    assert all(c < field.q for c in prod.coeffs), \
        "conjugate product must land in the base field"
    return Poly(field, prod.coeffs)


# ----------------------------------------------------------------------
# factorization

@dataclass(frozen=True)
class Factorization:
    """unit * product of factor^multiplicity, factors monic irreducible and distinct."""

    field: gf.Field
    unit: int
    factors: tuple[tuple[Poly, int], ...]

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)


def _pth_root(f: Poly) -> Poly:
    """The p-th root of a polynomial whose derivative vanishes (f = h(x^p))."""
    F = f.field
    p = F.p
    root_exp = F.q // p  # a -> a^(q/p) is the inverse of Frobenius
    out = []
    for i in range(0, len(f.coeffs), p):
        out.append(F.pow(f.coeffs[i], root_exp))
    return Poly(F, out)


def _squarefree(f: Poly) -> list[tuple[Poly, int]]:
    """Square-free decomposition of a monic f: pairwise-coprime (g_i, e_i)."""
    p = f.field.p
    fp = f.derivative()
    if fp.is_zero():
        return [(g, p * e) for g, e in _squarefree(_pth_root(f))]
    out = []
    c = poly_gcd(f, fp)
    w = f // c
    i = 1
    while w.degree != 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree != 0:
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree != 0:
        out.extend((g, p * e) for g, e in _squarefree(_pth_root(c)))
    return out


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    """Split a monic square-free f into (product of irreducibles of degree d, d)."""
    q = f.field.q
    x = Poly.x(f.field)
    out = []
    cur = f
    h = x % cur
    d = 0
    while cur.degree >= 2 * (d + 1):
        d += 1
        h = powmod(h, q, cur)
        g = poly_gcd(h - x, cur)  # gcd(0, cur) = cur: every remaining factor has degree d
        if g.degree != 0:
            cur = cur // g
            out.append((g, d))
            if cur.degree == 0:
                return out
            h = h % cur
    if cur.degree != 0:
        out.append((cur, cur.degree))
    return out


def _equal_degree(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles."""
    if f.degree == d:
        return [f]
    F = f.field
    q = F.q
    deg = f.degree
    while True:
        h = Poly(F, [rng.randrange(q) for _ in range(deg)])
        if h.degree is NEG_INF or h.degree < 1:
            continue
        g = poly_gcd(h, f)
        if 0 < g.degree < deg:
            break
        if F.p == 2:
            # char 2: trace map sum h^(2^i) for i < m*d splits f
            t = h % f
            acc = t
            for _ in range(F.m * d - 1):
                t = powmod(t, 2, f)
                acc = acc + t
            if acc.is_zero():
                continue
            g = poly_gcd(acc, f)
        else:
            b = powmod(h, (q ** d - 1) // 2, f) - Poly.one(F)
            if b.is_zero():
                continue
            g = poly_gcd(b, f)
        if 0 < g.degree < deg:
            break
    return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def factor(f: Poly) -> Factorization:
    """Complete factorization into monic irreducibles.

    Deterministic: equal-degree splitting draws from a private PRNG with a
    fixed seed, and factors come out sorted by (degree, coefficient tuple),
    so the result is canonical regardless of splitting order.
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    unit = f.leading_coeff
    w = f.monic()
    if w.degree == 0:
        return Factorization(f.field, unit, ())
    rng = random.Random(0)
    counts: dict[Poly, int] = {}
    for sq_part, e in _squarefree(w):
        for prod, d in _distinct_degree(sq_part):
            for irr in _equal_degree(prod, d, rng):
                counts[irr] = counts.get(irr, 0) + e
    factors = tuple(sorted(counts.items(), key=lambda kv: (kv[0].degree, kv[0].coeffs)))
    return Factorization(f.field, unit, factors)


def multiplicity(g: Poly, f: Poly) -> int:
    """Largest e with f^e dividing g (f monic irreducible; 0 when f does not divide g)."""
    if g.is_zero():
        raise ZeroPolynomialError("multiplicity in the zero polynomial is unbounded")
    if f.degree is NEG_INF or f.degree < 1:
        raise BadParameterError("multiplicity requires a nonconstant divisor")
    e = 0
    while True:
        quot, rem = divmod(g, f)
        if not rem.is_zero():
            return e
        e += 1
        g = quot

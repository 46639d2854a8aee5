"""Exact arithmetic in prime and extension finite fields.

A :class:`Field` knows its characteristic and modulus; an extension field
also holds exp, log and Zech tables, built when the field is made.
Canonical integers are the only element type: an element is the value
``sum(c_i * p**i)`` of its coordinate vector ``(c_0, ..., c_{m-1})`` in the
power basis of the modulus root, and every ``Field`` method and
distinguished-element function takes and returns these plain ints.

Extension fields GF(p^m) use the lexicographically smallest monic
irreducible modulus, where candidates are ordered by ascending canonical
value of their coefficient vector (little-endian base p).  This is
deterministic and cheap at desk scale, but *not* the Conway polynomial
convention, so canonical integers are not portable across systems.

Splitting fields needed to locate roots of x^n - 1 over a non-prime base
field are built as towers GF(q)[y]/(h(y)) by the same builder and modulus
rule; their canonical integers coincide with the base-p flattening of the
nested coordinates.

So at every tower level a canonical integer is a base-p digit vector over
GF(p).  An extension or tower field builds exp, log and Zech tables once,
when it is made, from its primitive element ``gen``, the smallest candidate
that passes the order test (:func:`primitive_element`, the one generator
search for every field).  a -> a * gen is GF(p)-linear on the digits, so
exp/log cost m products of polynomials over the immediate base modulo the
modulus (the images of the basis elements p^i, by :mod:`sympair.poly`),
one matmul mod p over all q digit vectors giving ``step[a] = a * gen``, and
a walk of the orbit of 1 through ``step``.  1 + a adds 1 mod p to a's
lowest digit, so the Zech logarithms z[e] = log(1 + gen^e) (Huber, IEEE
T-IT 36(4), 1990) take one lookup an element.  Every extension-field
operation, here and in :mod:`sympair.code`, reads these tables in the one
layout ``Field`` documents: a product adds logs, zero included (log 0 points
into a zero tail of exp), and gen^a + gen^b = gen^(a + z[b - a]).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    DivisionByZeroError,
    NoCubeRootError,
    NoSuchRootsError,
    NotPrimeError,
    OutOfScopeError,
    require_int,
)

#: Largest supported field order.  Keeps exp/log/Zech tables and scans cheap.
Q_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division (fine for n < Q_LIMIT^2)."""
    return n >= 2 and prime_factors(n) == (n,)


@functools.lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def _digits(a: int, b: int, count: int) -> list[int]:
    """The ``count`` lowest base-b digits of a, little-endian."""
    out = []
    for _ in range(count):
        a, d = divmod(a, b)
        out.append(d)
    return out


class Field:
    """A finite field GF(p^m) with a fixed modulus and canonical-integer elements.

    Do not call the constructor directly; use :func:`prime_field`,
    :func:`extension_field`, or (for towers over a non-prime base)
    :func:`tower_field`.  Fields are immutable and hashable.

    An extension field's read-only tables (None over a prime field): ``exp``
    is gen^0..gen^(q-2) twice, then 2(q - 1) + 1 zeros; ``log[a]`` is in
    0..q-2, and log[0] = 2(q - 1) points into exp's zero tail; ``zech`` is
    z[0..q-2] twice, z[e] = 2(q - 1) where 1 + gen^e = 0.  So exp[log a +
    log b] = a b for every a and b, zero included, exp[log a + z[e]] needs
    no reduction, and z reads any e from -2(q - 1) to 2q - 3 mod q - 1.
    """

    __slots__ = ("p", "q", "m", "base", "modulus", "exp", "log", "zech", "_gen", "_hash")

    def __init__(self, p: int, modulus: tuple[int, ...], base: "Field | None"):
        self.p = p
        self.base = base
        self.modulus = tuple(modulus)
        r = len(self.modulus) - 1
        if base is None:
            self.q = p
            self.m = 1
        else:
            self.q = base.q ** r
            self.m = base.m * r
        self._gen: int | None = None
        self._hash = hash((self.p, self.q, self.modulus, self.base))
        self.exp = self.log = self.zech = None
        if base is not None:
            self.exp, self.log, self.zech = self._tables()

    # ------------------------------------------------------------------
    # identity and housekeeping

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p == other.p and self.modulus == other.modulus
                and self.base == other.base)

    def __hash__(self) -> int:
        return self._hash

    def check(self, a: int) -> int:
        """Validate a canonical integer and return it unchanged."""
        return require_int(a, "field element", 0, self.q - 1)

    def coords(self, a: int) -> tuple[int, ...]:
        """Base-p coordinates of a canonical integer, little-endian, length m."""
        return tuple(_digits(a, self.p, self.m))

    def from_coords(self, coords) -> int:
        value = 0
        for c in reversed(list(coords)):
            value = value * self.p + c % self.p
        return value

    def to_dict(self) -> dict:
        """Serializable identity {p, m, modulus} (prime-base fields only)."""
        if self.base is not None and self.base.base is not None:
            raise OutOfScopeError("tower fields are internal and do not serialize")
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    # ------------------------------------------------------------------
    # arithmetic on canonical integers

    def add(self, a: int, b: int) -> int:
        if self.base is None:
            return (a + b) % self.p
        if not a or not b:
            return a or b
        la = self.log[a]
        return self.exp[la + self.zech[self.log[b] - la]]

    def neg(self, a: int) -> int:
        if self.base is None:
            return (-a) % self.p
        # -1 is the canonical integer p - 1
        return self.exp[self.log[a] + self.log[self.p - 1]]

    def sub(self, a: int, b: int) -> int:
        if self.base is None:
            return (a - b) % self.p
        if not b:
            return a
        y = self.log[b] + self.log[self.p - 1]  # -b = gen^y
        if not a:
            return self.exp[y]
        la = self.log[a]
        return self.exp[la + self.zech[y - la]]

    def _tables(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(exp, log, zech) of an extension field in the class docstring's
        layout, from one linear map over all elements (module docstring)."""
        p, m, q1 = self.p, self.m, self.q - 1
        h, as_poly = _over_base(self)
        gen = as_poly(primitive_element(self))
        # a -> a * gen is GF(p)-linear on base-p digits: map every element
        # at once through the images of the basis elements p^i
        places = p ** np.arange(m, dtype=np.int64)
        images = (as_poly(p ** i) * gen % h for i in range(m))
        image = np.array([[d for j in range(len(self.modulus) - 1)
                           for d in self.base.coords(f.coeff(j))] for f in images], dtype=np.int64)
        digits = np.arange(self.q, dtype=np.int64)[:, None] // places % p
        step = ((digits @ image % p) @ places).tolist()
        exp = [0] * q1
        log = [2 * q1] * self.q
        acc = 1
        for i in range(q1):
            exp[i] = acc
            log[acc] = i
            acc = step[acc]
        assert acc == 1, "generator order mismatch"
        zech = [log[s] if (s := a - a % p + (a + 1) % p) else 2 * q1 for a in exp]
        return tuple(exp * 2 + [0] * (2 * q1 + 1)), tuple(log), tuple(zech * 2)

    def mul(self, a: int, b: int) -> int:
        if self.base is None:
            return (a * b) % self.p
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZeroError(f"0 has no inverse in {self!r}")
        if self.base is None:
            return pow(a, self.p - 2, self.p)
        return self.exp[self.q - 1 - self.log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if require_int(e, "exponent") < 0:
            return self.pow(self.inv(a), -e)
        if self.base is None:
            return pow(a, e, self.p)
        if a == 0:
            return 1 if e == 0 else 0
        return self.exp[self.log[a] * e % (self.q - 1)]

    def order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise DivisionByZeroError("0 has no multiplicative order")
        o = self.q - 1
        for r in prime_factors(o):
            while o % r == 0 and self.pow(a, o // r) == 1:
                o //= r
        return o


# ----------------------------------------------------------------------
# constructors

# The three caches are typed: an untyped one would answer extension_field(2,
# True) with the cached GF(2) of extension_field(2, 1), skipping the checks.
@functools.lru_cache(maxsize=None, typed=True)
def prime_field(p: int) -> Field:
    """GF(p) for prime p; every argument that must be prime is checked here."""
    require_int(p, "field characteristic", least=2)
    if p > Q_LIMIT:  # before trial division, which would take ~sqrt(p) steps
        raise OutOfScopeError(f"field order {p} exceeds the supported limit {Q_LIMIT}")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    return Field(p, (0, 1), None)


@functools.lru_cache(maxsize=None, typed=True)
def extension_field(p: int, m: int) -> Field:
    """GF(p^m) with the smallest monic irreducible modulus in canonical-value order."""
    require_int(m, "extension degree", least=1)
    return _extend(prime_field(p), m, "field order")


@functools.lru_cache(maxsize=None, typed=True)
def tower_field(base: Field, r: int) -> Field:
    """Degree-r extension of an arbitrary field, same ascending modulus scan.

    For a prime base this is exactly :func:`extension_field`.  Towers over
    non-prime bases are used internally as splitting fields for x^n - 1.
    """
    require_int(r, "extension degree", least=1)
    if base.base is None:
        return extension_field(base.p, r)
    return _extend(base, r, "splitting field order")


def _extend(base: Field, r: int, what: str) -> Field:
    """Degree-r extension of ``base`` by the first monic irreducible of
    degree r in ascending canonical value (its coefficients are the base-q
    digits of the value, then 1)."""
    from . import poly  # deferred: poly imports this module at load time

    if r == 1:
        return base
    # q >= 2, so q^r > Q_LIMIT once r reaches its bit length: no huge power
    if r >= Q_LIMIT.bit_length() or base.q ** r > Q_LIMIT:
        raise OutOfScopeError(f"{what} {base.q}^{r} exceeds the supported limit {Q_LIMIT}")
    for value in range(base.q ** r):
        coeffs = _digits(value, base.q, r) + [1]
        if poly.is_irreducible(poly.Poly(base, coeffs)):
            return Field(base.p, coeffs, base)
    raise AssertionError(f"no irreducible of degree {r} over {base!r}")  # unreachable


# ----------------------------------------------------------------------
# distinguished elements

def primitive_element(field: Field) -> int:
    """The smallest canonical element of multiplicative order q - 1.

    One search for every field, prime or not, kept on the field.  The
    field's tables start from its result, so over an extension the order
    test powers polynomials over the immediate base modulo the modulus.
    The elements below base.q there are the base field's, of order below
    q - 1, so the search starts at base.q.
    """
    if field._gen is None:
        qm1 = field.q - 1
        if field.base is None:
            first = 1

            def power(a: int, e: int):
                return pow(a, e, field.p)
        else:
            from . import poly  # deferred: poly imports this module at load time
            first, (h, as_poly) = field.base.q, _over_base(field)

            def power(a: int, e: int):
                return poly.powmod(as_poly(a), e, h).coeffs

        one = power(1, 0)  # the unit as ``power`` returns it
        field._gen = next(cand for cand in range(first, field.q)
                          if all(power(cand, qm1 // r) != one for r in prime_factors(qm1)))
    return field._gen


def _over_base(field: Field):
    """(modulus, element -> polynomial) of an extension over its immediate
    base: an element's digits in base ``base.q`` are its coefficients."""
    from . import poly  # deferred: poly imports this module at load time

    base, r = field.base, len(field.modulus) - 1
    return (poly.Poly(base, field.modulus),
            lambda a: poly.Poly._trusted(base, _digits(a, base.q, r)))


def nth_roots_of_unity(field: Field, n: int) -> list[int]:
    """All n-th roots of unity, sorted by canonical value.

    Requires n | q - 1 (so the roots exist and are distinct); raises
    NoSuchRootsError otherwise.
    """
    if (field.q - 1) % require_int(n, "n", least=1) != 0:
        raise NoSuchRootsError(
            f"{field!r} has no primitive {n}-th root of unity ({n} does not divide {field.q - 1})")
    g = primitive_element(field)
    z = field.pow(g, (field.q - 1) // n)
    values = set()
    acc = 1
    for _ in range(n):
        values.add(acc)
        acc = field.mul(acc, z)
    assert len(values) == n
    return sorted(values)


def primitive_root_of_unity(field: Field, n: int) -> int:
    """The smallest canonical element of multiplicative order exactly n.

    Candidates are g^{(q-1)/n * j} over j coprime to n, so the scan is
    O(n) table lookups rather than a walk over the whole field.
    """
    if (field.q - 1) % require_int(n, "n", least=1) != 0:
        raise NoSuchRootsError(
            f"{field!r} has no element of order {n} ({n} does not divide {field.q - 1})")
    g = primitive_element(field)
    step = (field.q - 1) // n
    return min(field.pow(g, step * j) for j in range(1, n + 1) if math.gcd(j, n) == 1)


def primitive_cube_root(p: int) -> int:
    """The smallest nontrivial cube root of unity in GF(p), the smallest
    element of order 3; needs p = 1 mod 3."""
    field = prime_field(p)  # validates p
    if (p - 1) % 3 != 0:
        raise NoCubeRootError(f"GF({p}) has no primitive cube root of unity (3 does not divide {p - 1})")
    return primitive_root_of_unity(field, 3)

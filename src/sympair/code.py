"""Constacyclic codes, the symbol-pair metric, and exact distance engines.

Words are tuples of canonical integers.  A :class:`ConstacyclicCode` is
determined by (field, n, lambda, g) with g a monic divisor of x^n - lambda;
its codewords are the coefficient vectors of the degree-< n multiples of g.
The constructor walks rem <- x rem mod g once, for j = 0..n.  Its first n
steps are the columns x^j mod g of the parity-check matrix H, kept as
tuples, and g divides x^n - lambda exactly when the walk ends at lambda
(g = 1 passes), so the walk is also the divisor test.  It costs n deg g
cells, so a code whose H would exceed ``_H_CELL_LIMIT`` = 2^24 cells raises
``OutOfScopeError`` before it starts.  Each step updates only g's nonzeros,
by the row update the dependency search uses (``_axpy``): mod p over prime
fields, by the field's own O(q) Zech tables over every extension field.  A
2^22-cell walk took 0.10-0.11 s with a sparse g (x^1024 - 1 over GF(2) and
GF(5)).  With a random dense g of degree 1024 it took 0.20 s over GF(5) and
0.22 / 0.30-0.34 / 0.43 s over GF(4) / GF(9) / GF(2^10) (best of 3).  The
walk kept about 8 bytes a cell, about 32 over GF(65521), whose elements
above 256 are separate int objects (CPython 3.11.7, one core).  As x^-k = lambda^-1 x^(n-k) modulo x^n - lambda, the
standard form is [I_k | -lambda^-1 R^T], R the last k columns of H
(systematic encoding; MacWilliams-Sloane, ch. 7).

Distance engines
----------------
``min_hamming_distance`` / ``min_pair_distance`` reduce both distances to
minimum (pair) weight over nonzero codewords by linearity.  After their
input checks both call ``_min_weight(..., for_pair)``.  Three of its four
methods are level engines (strategy ``bounded`` picks ``bounded_weight``);
``_levels`` lists their levels as (floor, worst-case work, level), the
floor bounding the weight of each nonzero codeword not seen before it.

* ``exhaustive`` — all q^k - 1 nonzero words in one level, floor 1 (d_p: 2).
* ``bounded_weight`` — encode with the standard form; level t = 1..k holds
  the messages of Hamming weight t.  Scalar multiples share a support, so
  level t takes only the messages whose first nonzero value is 1,
  C(k, t) (q-1)^(t-1) of them, and ``enumeration_count`` counts these
  scalar classes.  The constacyclic shift keeps both weights and maps the
  window 0..k-1 onto every other window of k cyclically consecutive
  positions, each an information set too.  So after levels 1..t-1 a
  codeword with at most t - 1 nonzeros in some window has a shift that was
  already seen, and an unseen codeword has >= t nonzeros in all n windows.
  Each position lies in k of them, so its Hamming weight w is
  >= ceil(n t / k).  A window that covers one of its zero runs still holds
  t nonzeros, so no zero run is longer than k - t, and the n - w zeros fill
  at least (n - w) / (k - t) runs.  A word that is neither zero nor
  all-nonzero has as many nonzero runs as zero runs and pair weight w +
  (nonzero runs) (Chen-Lin-Liu, arXiv 1605.03460); w + ceil((n - w) / (k -
  t)) does not decrease in w, so the pair floor is its value at
  w = ceil(n t / k).  Both floors are n once ceil(n t / k) reaches n (an
  all-nonzero word has pair weight n).
* ``dependency`` — the parity side.  Pair weight depends only on the
  support S: f(S) = |S| + (circular runs of S) for S != Z_n, f(Z_n) = n,
  and adding a position never lowers f.  So d_p = min f(S) and d_H =
  min |S| over the supports S whose columns of the parity-check matrix H
  are linearly dependent over GF(q).  A constacyclic shift rotates
  supports, so S may start a run at 0 (0 in S, n - 1 not in S); Z_n, of
  cost n, is the one exception.  Level D, of floor D, scans supports depth
  first in increasing position order, carrying the columns still to test
  reduced against an echelon basis of the prefix; a prefix is extended
  only while its cost is below D, and the first dependent support ends the
  level with weight D.  ``enumeration_count`` counts column reductions.

One loop in ``_min_weight`` runs all three, and one rule serves both
distances: stop before a level once its floor reaches the best weight seen
(Brouwer-Zimmermann for cyclic codes; Grassl 2006).  Before each level it
raises ``BudgetExceededError``, with the floor as lower bound and the best
weight seen as upper bound, if the level's worst-case work would take the
work done past the budget.  The fourth method, ``castagnoli``, is
``auto``'s choice for the Hamming side of repeated-root cyclic codes: the
residue-code product formula in :mod:`sympair.bounds`.

Otherwise ``auto`` prices the same ``_levels`` on both sides, fixed before
any work.  g is a codeword of (pair) weight top, so a message-side scan
sees x^(k-1) g in its first level and runs after it only the levels whose
floor is below top, and the dependency search runs its levels D <= top.
The message side is the exhaustive scan when q^k - 1 <= 4096, else the
bounded scan.  It pays ``_LEVEL_US`` per level (Hamming or pair) and
``_SYMBOL_US`` per encoded symbol (n per encoding), but neither the
standard form (about one level-1 scan) nor the levels that the other
distance may have kept, so the choice reads only the code.  The parity side
pays ``_REDUCTION_US`` per worst-case column reduction.  The cheaper side
wins; ties go to the message side.  The unit costs, in microseconds for
prime / extension fields, were measured once on a 2-core Linux machine
(CPython 3.11.7, numpy 2.4.6, one BLAS thread) by timing both sides of each
of the 4101 ``auto`` calls of the three ``bench`` workloads (best of 3) and
fitting each side's time to its counts by non-negative least squares on
relative error: 34 (Hamming) and 69 (pair) per level, charged 50 and 69;
0.040 / 0.069 per symbol.  (At 50 a pair level, the run-aware floor sent
``mds_3p_7(5)``'s pair call to the message side, where it cost more than
the parity side it left.)  A reduction took 1.5 / 2.4, but the search ends
at its first dependent support, and on the calls with over 300 worst-case
reductions it did a median two thirds of them, so a worst-case reduction
is charged 1.0 / 1.5.  Bare counts are not enough: on small codes the
level costs outweigh the encodings.

Both message-side scans run through one builder, ``_blocks``, which adds
rows of the standard form G.  In colex order the t-subsets of 0..k-1 with
largest element j are the (t - 1)-subsets of 0..j-1 with j added (Knuth,
TAOCP 4A, 7.2.1.3; Grassl 2006).  So level 1 is row j with value 1, and
level t is, for each top position j >= t - 1 and each a in 1..q-1, the
first C(j, t - 1) (q - 1)^(t - 2) classes of level t - 1 (those below j)
plus a G_j: one add a class, and the leading value stays 1.  The
exhaustive scan is the span: the words on positions 0..j are those on
0..j-1 plus a G_j, a in 0..q-1, the zero word first and dropped.  Counts
stay scalar classes (q^k - 1 words for the span), as do budget errors.
Addition in GF(p^m) is digit-wise mod p on the canonical integers' base-p
digits: XOR when p = 2 (every GF(2^m) and its towers), else m digit planes
added mod p (``_Additive``).  The only products are the rows a G_j, by the
field's exp and log or mod p.  Rows are codewords, so a witness, a block's
argmin row, has one place to be kept (none is kept yet).  The code keeps
each finished level's (least weight, least pair weight), the exhaustive
scan counting as one level (``_level_minima``): ``analyze``'s second
distance reads the levels its first one made.  Each distance still counts
the levels its own proof needs and checks its budget before each, so
values, counts and budget errors do not depend on which ran first.

``_CELL_BUDGET`` = 2^18 cells caps a block, and so peak memory (a
``low-rate`` pass peaked at 34.6 MB, against 40.9 MB at 2^22 cells).  A
level is kept whole, as the next level's prefixes, while it fits
``_KEEP_CELLS`` = 16 ``_CELL_BUDGET``; a larger level is made block by
block from the last level kept, plus one row for each position added.
The rows a G_j come from one table a scan while it fits ``_CELL_BUDGET``.
Levels are scanned completely, in a fixed order, so results and counts are
deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import gf, poly
from .errors import (
    BadParameterError,
    BudgetExceededError,
    DegenerateCodeError,
    LengthMismatchError,
    LengthTooShortError,
    NotCoprimeError,
    NotDivisorError,
    NotUnionOfCosetsError,
    OutOfScopeError,
    ZeroCodeError,
    require_int,
)

#: Work-array size (cells) per enumeration block; keeps peak memory modest.
_CELL_BUDGET = 1 << 18

#: A message-side level is kept whole, for the next level, while it fits.
_KEEP_CELLS = 16 * _CELL_BUDGET

#: Largest parity-check matrix (deg g * n cells) a code may walk at construction.
_H_CELL_LIMIT = 1 << 24

#: auto strategy uses exhaustive scan below this many codewords.
_AUTO_EXHAUSTIVE_LIMIT = 1 << 12

#: auto's unit costs in microseconds, as measured in the module docstring: a
#: level's by metric (Hamming, pair), the others by field (prime, extension).
_LEVEL_US = (50, 69)         # fixed cost of one message-side level (Hamming, pair)
_SYMBOL_US = (0.04, 0.07)    # one encoded symbol (an encoding is n of them)
_REDUCTION_US = (1.0, 1.5)   # one worst-case column reduction


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a distance computation: ``DistanceResult(value, method,
    enumeration_count)``, where ``value`` is the exact distance.

    An engine that runs out of budget raises instead of returning, so
    ``certified`` and ``is_lower_bound`` are constants here; the report
    schema keeps both keys, which budget-exhausted partial reports flip.
    """

    value: int
    method: str  # "exhaustive" | "bounded_weight" | "dependency" | "castagnoli"
    enumeration_count: int
    certified: ClassVar[bool] = True
    is_lower_bound: ClassVar[bool] = False

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "certified": self.certified,
            "enumeration_count": self.enumeration_count,
            "is_lower_bound": self.is_lower_bound,
        }


# ----------------------------------------------------------------------
# words and the pair metric

def as_word(field: gf.Field, symbols) -> tuple[int, ...]:
    """A sequence of canonical integers of ``field`` as a word (validated)."""
    return tuple(field.check(s) for s in symbols)


def hamming_weight(word) -> int:
    return sum(1 for s in word if s != 0)


def hamming_distance(a, b) -> int:
    if len(a) != len(b):
        raise LengthMismatchError(f"word lengths differ: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def pair_read_vector(word) -> tuple[tuple[int, int], ...]:
    """The cyclic sequence of overlapping pairs ((w_i, w_{i+1 mod n}))."""
    word = tuple(word)
    n = len(word)
    if n < 2:
        raise LengthTooShortError(f"pair reads need length >= 2, got {n}")
    return tuple((word[i], word[(i + 1) % n]) for i in range(n))


def pair_weight(word) -> int:
    """Number of nonzero entries of the pair read vector.

    Computed by the run identity: 0 for the zero word, n for an all-nonzero
    word, and otherwise Hamming weight plus the number of maximal circular
    runs of nonzero symbols.  (The all-nonzero case is the run formula with
    zero run starts.)  Verified against the definitional
    d_H(pi(x), pi(0)) oracle in the test suite.
    """
    word = tuple(word)
    n = len(word)
    if n < 2:
        raise LengthTooShortError(f"pair weight needs length >= 2, got {n}")
    w = 0
    runs = 0
    for i in range(n):
        if word[i] != 0:
            w += 1
            if word[i - 1] == 0:  # i-1 wraps to n-1 for i = 0: circular run starts
                runs += 1
    return w + runs


def pair_distance(a, b) -> int:
    """Hamming distance between the two pair read vectors."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise LengthMismatchError(f"word lengths differ: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise LengthTooShortError(f"pair distance needs length >= 2, got {len(a)}")
    n = len(a)
    return sum(1 for i in range(n)
               if (a[i], a[(i + 1) % n]) != (b[i], b[(i + 1) % n]))


def constacyclic_shift(field: gf.Field, lam: int, word) -> tuple[int, ...]:
    """tau_lambda: (x_0, ..., x_{n-1}) -> (lambda * x_{n-1}, x_0, ..., x_{n-2})."""
    _check_lambda(field, lam)
    word = as_word(field, word)
    if not word:
        return word
    return (field.mul(lam, word[-1]),) + word[:-1]


def _check_lambda(field: gf.Field, lam: int) -> None:
    if field.check(lam) == 0:
        raise BadParameterError("lambda must be nonzero")


# ----------------------------------------------------------------------
# the code object

class ConstacyclicCode:
    """A lambda-constacyclic code of length n over GF(q) with generator g.

    The code is determined by (field, n, lambda, g); everything else, the
    defining set included, is derived from them.  The constructor walks
    x^j mod g for j = 0..n once: the walk is the divisor test, and its
    first n steps are the columns of H that ``parity_check_matrix``,
    ``standard_form`` and the dependency search read (module docstring).
    """

    def __init__(self, field: gf.Field, n: int, lam: int, g: poly.Poly):
        poly.require_length(n, "length")
        _check_lambda(field, lam)
        if not isinstance(g, poly.Poly) or g.field != field:
            raise BadParameterError(f"generator must be a Poly over {field!r}")
        if not g.is_monic():
            raise BadParameterError(f"generator must be monic, got {g}")
        r = g.degree
        if r > n:
            raise NotDivisorError(f"deg g = {r} exceeds the length {n}")
        if r * n > _H_CELL_LIMIT:
            raise OutOfScopeError(f"parity-check matrix of {r} x {n} cells exceeds "
                                  f"the supported limit {_H_CELL_LIMIT}")
        # g divides x^n - lambda iff the walk ends at lambda mod g (lambda unless g = 1)
        axpy, low = _axpy(field), [(i, b) for i, b in enumerate(g.coeffs[:r]) if b]
        rem, cols = [int(i == 0) for i in range(r)], []
        for _ in range(n):
            cols.append(tuple(rem))
            *rem, top = [0] + rem  # x rem = rem + top x^r, and x^r = x^r - g mod g
            if top:
                rem = axpy(rem, top, low)
        if r and rem != [lam] + [0] * (r - 1):
            raise NotDivisorError(f"{g} does not divide x^{n} - {lam} over {field!r}")
        self.field = field
        self.n = n
        self.lam = lam
        self.g = g
        self.k = n - r
        self._columns: tuple[tuple[int, ...], ...] = tuple(cols)
        self._defining_set: frozenset[int] | None = None
        self._parity_check: np.ndarray | None = None
        self._std_form: np.ndarray | None = None
        self._minima: dict[int, tuple[int, int]] = {}  # by _level_minima: level -> minima
        self._kept_level: tuple[int, np.ndarray] | None = None  # (t, words): last level made whole
        # filled by bounds.repeated_root_shape / bounds.castagnoli_details
        self._shape = None
        self._castagnoli = None

    # -- constructors --------------------------------------------------

    @classmethod
    def from_generator(cls, field: gf.Field, n: int, lam: int, g: poly.Poly) -> "ConstacyclicCode":
        return cls(field, n, lam, g)

    @classmethod
    def from_defining_set(cls, field: gf.Field, n: int, exponents, *,
                          expand: bool = False) -> "ConstacyclicCode":
        """Simple-root cyclic code whose roots are beta^j for j in the set.

        ``exponents`` must be closed under multiplication by q mod n; with
        ``expand=True`` it is instead treated as representatives and closed
        automatically.  The code keeps the set it was built from, as
        ``defining_set()`` would derive it from g.
        """
        q = field.q
        if math.gcd(poly.require_length(n, "length"), q) != 1:
            raise NotCoprimeError(
                f"defining sets need gcd(n, q) = 1, got gcd({n}, {q}) = {math.gcd(n, q)}")
        T = poly.exponent_set(exponents, n)
        cosets = poly.cyclotomic_cosets(n, q)
        if expand:
            T = {x for c in cosets if not T.isdisjoint(c.members) for x in c.members}
        else:
            missing = {j * q % n for j in T} - T
            if missing:
                raise NotUnionOfCosetsError(
                    f"exponent set is not closed under *{q} mod {n}: missing {sorted(missing)}")
        g = poly.Poly.one(field)
        for coset in cosets:
            if coset.representative in T:
                g = g * poly.minimal_polynomial(coset, field)
        code = cls(field, n, 1, g)
        assert code.k == n - len(T)
        code._defining_set = frozenset(T)
        return code

    # -- basic structure -----------------------------------------------

    def __repr__(self) -> str:
        return f"ConstacyclicCode([{self.n},{self.k}] over {self.field!r}, lambda={self.lam})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstacyclicCode):
            return NotImplemented
        return (self.field == other.field and self.n == other.n
                and self.lam == other.lam and self.g == other.g)

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.lam, self.g))

    @property
    def is_cyclic(self) -> bool:
        return self.lam == 1

    @property
    def is_simple_root(self) -> bool:
        return self.n % self.field.p != 0

    @property
    def repeated_root_split(self) -> tuple[int, int] | None:
        """(l, e) with n = l * p^e, e >= 1 and l > 1 when the code is
        repeated-root cyclic; None otherwise.  Plain arithmetic, no factoring."""
        if not self.is_cyclic or self.is_simple_root:
            return None
        p = self.field.p
        ell, e = self.n, 0
        while ell % p == 0:
            ell //= p
            e += 1
        return (ell, e) if ell > 1 else None

    def defining_set(self) -> frozenset[int] | None:
        """Exponent set of the code's roots (simple-root cyclic codes only).

        Derived from the generator, unless ``from_defining_set`` recorded the
        set it built g from: g is a product of minimal polynomials, so a
        coset lies in the set exactly when g vanishes at beta^r for its
        representative r.  Returns None for non-cyclic or repeated-root codes.
        """
        if self._defining_set is not None:
            return self._defining_set
        if not (self.is_cyclic and self.is_simple_root):
            return None
        ext, beta = poly.root_of_unity_context(self.field, self.n)
        g = poly.Poly(ext, self.g.coeffs)  # base-field integers keep their value in ext
        T = set()
        for coset in poly.cyclotomic_cosets(self.n, self.field.q):
            if g(ext.pow(beta, coset.representative)) == 0:
                T.update(coset.members)
        self._defining_set = frozenset(T)
        return self._defining_set

    # -- codewords -----------------------------------------------------

    def encode(self, message) -> tuple[int, ...]:
        """Coefficients of m(x) * g(x), zero-padded to length n."""
        message = as_word(self.field, message)
        if len(message) != self.k:
            raise LengthMismatchError(
                f"message length {len(message)} != dimension {self.k}")
        word = poly.Poly(self.field, message) * self.g
        return word.coeffs + (0,) * (self.n - len(word.coeffs))

    def is_member(self, word) -> bool:
        word = as_word(self.field, word)
        if len(word) != self.n:
            raise LengthMismatchError(f"word length {len(word)} != n = {self.n}")
        return (poly.Poly(self.field, word) % self.g).is_zero()

    def shift(self, word) -> tuple[int, ...]:
        return constacyclic_shift(self.field, self.lam, word)

    def codewords(self):
        """Iterate all q^k codewords (small codes only)."""
        for message in itertools.product(range(self.field.q), repeat=self.k):
            yield self.encode(message)

    # -- matrices --------------------------------------------------------

    def generator_matrix(self) -> np.ndarray:
        """k x n integer matrix whose rows are x^i * g(x), i = 0..k-1."""
        if self.k == 0:
            raise DegenerateCodeError("the zero code has no generator matrix")
        G = np.zeros((self.k, self.n), dtype=np.int64)
        gc = self.g.coeffs
        for i in range(self.k):
            G[i, i:i + len(gc)] = gc
        return G

    def parity_check_matrix(self) -> np.ndarray:
        """Read-only (n-k) x n matrix H, column j = x^j mod g, packed from the
        columns the constructor walked on the first call."""
        if self.k == 0 or self.k == self.n:
            raise DegenerateCodeError(
                f"parity-check matrix needs 1 <= k <= n-1, got k = {self.k}")
        if self._parity_check is None:
            H = np.array(self._columns, dtype=np.int64).T.copy()
            H.flags.writeable = False
            self._parity_check = H
        return self._parity_check

    def standard_form(self) -> np.ndarray:
        """Read-only k x n generator matrix [I_k | -lambda^-1 R^T], R the
        last k columns of the parity-check matrix (module docstring)."""
        if self._std_form is None:
            if self.k == 0:
                raise DegenerateCodeError("the zero code has no standard form")
            F, n, k = self.field, self.n, self.k
            c = F.neg(F.inv(self.lam))
            tail = [[F.mul(c, v) for v in col] for col in self._columns[n - k:]]
            std = np.hstack([np.eye(k, dtype=np.int64), np.array(tail, dtype=np.int64)])
            std.flags.writeable = False
            self._std_form = std
        return self._std_form


def divisor_codes(field: gf.Field, n: int, lam: int):
    """Every nonzero code generated by a monic divisor of x^n - lam, the full
    space (g = 1) included.

    Codes come in lexicographic order of the multiplicity vector over the
    factors of ``poly.factor(x^n - lam)`` (sorted by degree, then
    coefficients), so a corpus built from them is reproducible.
    """
    poly.require_length(n, "length")  # before binomial, which names n the exponent
    factors = poly.factor(poly.binomial(field, n, lam)).factors
    for exps in itertools.product(*(range(m + 1) for _f, m in factors)):
        if all(e == m for e, (_f, m) in zip(exps, factors)):
            continue  # g = x^n - lam: the zero code
        g = poly.Poly.one(field)
        for e, (f, _m) in zip(exps, factors):
            g = g * f ** e
        yield ConstacyclicCode(field, n, lam, g)


# ----------------------------------------------------------------------
# enumeration machinery

def _level_size(q: int, k: int, t: int) -> int:
    """Messages of Hamming weight t whose first nonzero value is 1: one per
    scalar class."""
    return math.comb(k, t) * (q - 1) ** (t - 1)


def _window_floor(n: int, k: int, t: int, for_pair: bool) -> int:
    """Least (pair) weight of a nonzero codeword not seen in levels 1..t-1:
    it has >= t nonzeros in each of the n cyclic windows of k positions, so
    w >= ceil(n t / k) nonzeros and zero runs of at most k - t positions
    (the module docstring gives the argument)."""
    w = -(-n * t // k)
    if w >= n:
        return n
    return w + -(-(n - w) // (k - t)) if for_pair else w


@functools.lru_cache(maxsize=None)
def _axpy(field: gf.Field):
    """The one row update w - c u, as a new list, over u's (index, value)
    nonzeros: the construction walk's and the dependency search's.  Built
    once per field, in O(q) memory at every order.  Prime fields reduce mod
    p inline.  Extension fields use Zech logarithms (Huber, IEEE T-IT 36(4),
    1990), read from the field's ``exp``, ``log`` and ``zech`` tables: -c b
    = gen^y for y = log c + log b + log(-1), so w_i - c b is gen^y when
    w_i = 0, else gen^(log w_i + z[y - log w_i]) (exponents mod q - 1).  exp
    is doubled, and z's 2(q - 1) reads its zero tail (which gives 0, not
    gen^y, for w_i = 0)."""
    if field.base is None:
        p = field.q

        def axpy(w, c, nonzeros):
            w = list(w)
            for i, b in nonzeros:
                w[i] = (w[i] - c * b) % p
            return w
        return axpy
    q1, exp, log, zech = field.q - 1, field.exp, field.log, field.zech
    log_minus_one = log[field.p - 1]  # -1 is the canonical integer p - 1

    def axpy(w, c, nonzeros):
        y0 = (log[c] + log_minus_one) % q1
        w = list(w)
        for i, b in nonzeros:
            y = y0 + log[b]
            a = w[i]
            if a:
                la = log[a]
                w[i] = exp[la + zech[y - la]]
            else:
                w[i] = exp[y]
        return w
    return axpy


class _Additive:
    """A field in the message side's additive form, built once per field at
    its first scan (``_additive``).  A word is ``planes`` rows of n symbols:
    one of canonical integers, added by XOR, when p = 2; else m of base-p
    digits, added mod p.  ``dtype`` holds a symbol, or two digits' sum.
    ``logs`` is an extension field's own exp and log as int32."""

    def __init__(self, field: gf.Field):
        p = self.p = field.p
        self.planes = 1 if p == 2 else field.m
        self.dtype = np.min_scalar_type(field.q - 1 if p == 2 else 2 * (p - 1))
        self.powers = p ** np.arange(self.planes)[:, None]
        self.logs = None
        if field.base is not None:  # the field's own layout: exp[log a + log b] = a b
            self.logs = np.array(field.exp, np.int32), np.array(field.log, np.int32)

    def times(self, a, b: np.ndarray) -> np.ndarray:
        """The canonical products a b (broadcast)."""
        if self.logs is None:
            return a * b % self.p
        exp, log = self.logs
        return np.take(exp, np.take(log, a) + np.take(log, b))

    def words(self, c: np.ndarray) -> np.ndarray:
        """Canonical integers (..., n) as (..., planes, n) words."""
        c = c[..., None, :]
        return (c // self.powers % self.p if self.planes > 1 else c).astype(self.dtype)

    def sum(self, x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
        """x + y, to be reduced by ``reduce`` when p is odd."""
        return np.bitwise_xor(x, y, out=out) if self.p == 2 else np.add(x, y, out=out)

    def reduce(self, x: np.ndarray) -> np.ndarray:
        return x if self.p == 2 else np.remainder(x, self.p, out=x)

    def add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.reduce(self.sum(x, y))


_additive = functools.lru_cache(maxsize=None)(_Additive)


def _scaled_rows(form: _Additive, G: np.ndarray, values: np.ndarray):
    """``rows(j)``: the words a G_j, a in ``values``, from one table while
    that fits ``_CELL_BUDGET``, else made one position at a call."""
    a = values[:, None]
    if G.size * len(values) * form.planes <= _CELL_BUDGET:
        return form.words(form.times(a, G[:, None, :])).__getitem__
    return lambda j: form.words(form.times(a, G[j]))


def _parts(form: _Additive, rows, below, t: int, s: int, hi: int, off=None):
    """(P, R) pairs whose words kept[:P] + r, r in R, list the words of
    stage t with top position below hi once each (plus ``off``), from stage
    s < t kept whole.  Stage t takes each top position j >= t - 1 and each
    r in rows(j), over stage t - 1 below j: the first below(j, s) words of
    stage s when t = s + 1."""
    for j in range(t - 1, hi):
        R = rows(j) if off is None else form.add(rows(j), off)
        if t == s + 1:
            yield below(j, s), R
        else:
            for r in R:
                yield from _parts(form, rows, below, t - 1, s, j, r)


def _blocks(form: _Additive, kept: np.ndarray, s: int, t: int, rows, below, hi):
    """(blocks of stage t's words, each at most ``_CELL_BUDGET`` cells,
    (stage, words) last kept), from the words ``kept`` of stage s <= t.
    Stages s + 1, s + 2, ... are made whole, each from the one before, while
    they fit ``_KEEP_CELLS``; a larger one block by block from the last kept."""
    shape, width = kept.shape[1:], kept[0].size
    while s < t and (size := below(hi(s + 1), s + 1)) * width <= _KEEP_CELLS:
        words, at = np.empty((size,) + shape, form.dtype), 0
        for P, R in _parts(form, rows, below, s + 1, s, hi(s + 1)):
            form.sum(kept[None, :P], R[:, None], words[at:at + len(R) * P].reshape(-1, P, *shape))
            at += len(R) * P
        kept, s = form.reduce(words), s + 1
    step = max(1, _CELL_BUDGET // width)  # words a block

    def stream():
        for P, R in _parts(form, rows, below, t, s, hi(t)):
            per = max(1, step // P)  # rows of R a block takes
            for a in range(0, len(R), per):
                for b in range(0, P, step):
                    block = form.add(kept[None, b:min(b + step, P)], R[a:a + per, None])
                    yield block.reshape(-1, *shape)
    if s == t:
        return (kept[a:a + step] for a in range(0, len(kept), step)), (s, kept)
    return stream(), (s, kept)


def _nonzero(words: np.ndarray) -> np.ndarray:
    """Nonzero mask (rows, n) of a block of words."""
    nz = words[:, 0] != 0
    for plane in range(1, words.shape[1]):
        nz |= words[:, plane] != 0
    return nz


def _stat_minima(nz: np.ndarray) -> tuple[int, int]:
    """(least weight, least pair weight) of a block of nonzero codewords,
    given as their nonzero masks."""
    rows = nz.reshape(-1, nz.shape[-1])
    w = rows.sum(axis=1, dtype=np.int16)
    starts = rows & ~np.roll(rows, 1, axis=1)
    return int(w.min()), int((w + starts.sum(axis=1, dtype=np.int16)).min())


def _level_minima(code: ConstacyclicCode, t: int) -> tuple[int, int]:
    """(least weight, least pair weight) over level t of the message side,
    t = 0 standing for the exhaustive scan of every nonzero message.  Each
    level is made once per code and its minima kept for both distances; the
    code also keeps the last level made whole (module docstring)."""
    minima = code._minima
    if t not in minima:
        q, k = code.field.q, code.k
        if t == 0 and q ** k > 1 << 62:
            raise OutOfScopeError(f"q^k = {q ** k} overflows the exhaustive scanner")
        if t and (q - 1) ** (t - 1) > 1 << 48:
            raise OutOfScopeError(f"level {t} has {(q - 1) ** (t - 1)} value tuples; "
                                  f"set a budget to keep scans sane")
        form, G = _additive(code.field), code.standard_form()
        if t == 0:  # stage s: the q^s words on positions 0..s-1, the zero word first
            zero = np.zeros((1, form.planes, code.n), form.dtype)
            blocks, _ = _blocks(form, zero, 0, k, _scaled_rows(form, G, np.arange(q)),
                                lambda j, s: q ** min(j, s), lambda s: s)
            blocks = itertools.chain([next(blocks)[1:]], blocks)
        else:  # stage s: level s, from level 1 (row j, value 1) on
            kept = code._kept_level
            s, words = kept if kept and kept[0] < t else (1, form.words(G))
            rows = _scaled_rows(form, G, np.arange(1, q)) if s < t else None
            blocks, code._kept_level = _blocks(form, words, s, t, rows,
                                               lambda j, s: _level_size(q, j, s), lambda s: k)
        stats = [_stat_minima(_nonzero(block)) for block in blocks]
        minima[t] = tuple(map(min, zip(*stats)))
    return minima[t]


def check_budget(value, name: str = "budget", least: int = 0) -> None:
    """Validate a work cap: None, or an int (not a bool) >= ``least``."""
    if value is not None:
        require_int(value, name, least)


class Ledger:
    """One work budget for every distance call of a request: each
    ``ledger(distance, code, strategy)`` gets what is left and adds its
    ``enumeration_count`` to ``spent``.  A call that runs out raises
    BudgetExceededError for the whole request (``spent`` plus its own work,
    against ``budget``) from the call's own error."""

    def __init__(self, budget: int | None):
        check_budget(budget)
        self.budget, self.spent = budget, 0

    def __call__(self, distance, code: ConstacyclicCode, strategy: str = "auto") -> DistanceResult:
        left = None if self.budget is None else self.budget - self.spent
        try:
            result = distance(code, strategy, budget=left)
        except BudgetExceededError as exc:
            raise BudgetExceededError(exc.what, lower_bound=exc.lower_bound,
                                      upper_bound=exc.upper_bound, budget=self.budget,
                                      enumerated=self.spent + exc.enumerated) from exc
        self.spent += result.enumeration_count
        return result


# ----------------------------------------------------------------------
# parity-side dependency search

@functools.lru_cache(maxsize=1024)
def _dependency_levels(n: int, k: int, for_pair: bool) -> tuple[tuple[int, int], ...]:
    """(cost D, worst-case column reductions) of every level the dependency
    search may scan, in order.

    Level D tests each run-start-at-0 support of cost <= D at most once, and
    no support of more than n - k + 1 positions (its first n - k + 1 columns
    are already dependent), so the bound is exact when nothing is found: a
    support of s positions in t runs within 0..n-2 is a composition of s
    into t parts, with t - 1 nonempty gaps of zeros and one trailing gap:
    C(s - 1, t - 1) C(n - 1 - s, t - 1) supports of cost s (+ t if pair).
    At the Singleton ceiling (k >= 2) the first descent 0, 1, 2, ... reaches
    a full-rank prefix and stops there, which bounds that level by
    1 + (n - k)(n - 2) as well.
    """
    r, m = n - k, n - 1
    exact = [0] * (n + 1)
    for s in range(1, min(m, r + 1) + 1):
        for runs in range(1, min(s, m - s + 1) + 1):
            exact[s + for_pair * runs] += math.comb(s - 1, runs - 1) * math.comb(m - s, runs - 1)
    first, last = 1 + for_pair, (r + 1 if k >= 2 else n - 1) + for_pair
    levels = list(zip(range(first, last + 1), itertools.accumulate(exact[first:last + 1])))
    if k >= 2:
        levels[-1] = (last, min(levels[-1][1], 1 + r * (n - 2)))
    return tuple(levels)


class _Dependent(Exception):
    """A dependent support was found; ends the level being scanned."""


def _dependency_search(code: ConstacyclicCode, for_pair: bool):
    """The parity side's ``scan(D, work)``: (D, column reductions) if a support
    of cost D is dependent, else (n + 1, column reductions), its state built
    once per search.  The count depends only on which supports are dependent."""
    n, F, cols = code.n, code.field, code._columns
    axpy = _axpy(F)  # over u's nonzeros: H's unit columns keep many sparse
    root_cost = 2 if for_pair else 1
    rest = [(j, cols[j]) for j in range(1, n - 1)]
    level = count = 0

    def reduce_by(u, cand, start, j, cost):
        """Reduce the candidates cand[start:] still affordable after adding
        position j (column u, reduced against the prefix) to the prefix of
        cost ``cost``; returns them reduced against the longer prefix."""
        nonlocal count
        nonzeros = [(i, a) for i, a in enumerate(u) if a]
        piv, lead = nonzeros[0]
        inv = F.inv(lead)
        out = []
        for j2, w in itertools.islice(cand, start, None):
            cost2 = cost + (2 if for_pair and j2 != j + 1 else 1)
            if cost2 > level:
                break
            count += 1
            a = w[piv]
            if a:
                w = axpy(w, F.mul(a, inv), nonzeros)
                if not any(w):
                    assert cost2 == level, "lower levels were scanned completely"
                    raise _Dependent
            out.append((j2, w))
        return out

    def visit(last, cost, cand):
        for idx, (j, u) in enumerate(cand):
            cost_j = cost + (2 if for_pair and j != last + 1 else 1)
            if cost_j >= level:
                break
            visit(j, cost_j, reduce_by(u, cand, idx + 1, j, cost_j))

    def scan(D, _work):
        nonlocal level, count
        level, count = D, 1
        try:
            if not any(cols[0]):
                raise _Dependent
            if root_cost < level:
                visit(0, root_cost, reduce_by(cols[0], rest, 0, 0, root_cost))
        except _Dependent:
            return D, count
        return n + 1, count
    return scan


def _levels(code: ConstacyclicCode, method: str, for_pair: bool):
    """Lazily yield (floor, worst-case work, level) for each level of a level
    engine, in the order ``_min_weight`` runs them (module docstring)."""
    q, n, k = code.field.q, code.n, code.k
    if method == "exhaustive":
        yield 1 + for_pair, q ** k - 1, 0
    elif method == "bounded_weight":
        for t in range(1, k + 1):
            yield _window_floor(n, k, t, for_pair), _level_size(q, k, t), t
    else:
        for cost, worst in _dependency_levels(n, k, for_pair):
            yield cost, worst, cost


def _worst_case(code: ConstacyclicCode, method: str, for_pair: bool,
                top: int) -> tuple[int, int]:
    """(levels, work) the level loop runs at most when g has (pair) weight
    top: a message-side scan sees x^(k-1) g in its first level and then runs
    the levels whose floor is below top, the dependency search D <= top."""
    reach, levels, work = top + (method == "dependency"), 0, 0
    for floor, size, _level in _levels(code, method, for_pair):
        if levels and floor >= reach:
            break
        levels, work = levels + 1, work + size
    return levels, work


def _resolve_strategy(code: ConstacyclicCode, strategy: str, *, for_pair: bool) -> str:
    if strategy == "bounded":
        return "bounded_weight"
    if strategy in ("exhaustive", "dependency"):
        return strategy
    if strategy == "auto":
        if not for_pair and code.repeated_root_split is not None:
            return "castagnoli"
        q, n, k = code.field.q, code.n, code.k
        ext = code.field.base is not None
        word = code.g.coeffs + (0,) * (n - len(code.g.coeffs))
        top = pair_weight(word) if for_pair else hamming_weight(word)
        side = "exhaustive" if q ** k - 1 <= _AUTO_EXHAUSTIVE_LIMIT else "bounded_weight"
        levels, encodings = _worst_case(code, side, for_pair, top)
        message = _LEVEL_US[for_pair] * levels + _SYMBOL_US[ext] * n * encodings
        _, reductions = _worst_case(code, "dependency", for_pair, top)
        return "dependency" if _REDUCTION_US[ext] * reductions < message else side
    raise BadParameterError(
        f"unknown strategy {strategy!r}; "
        f"expected auto, exhaustive, bounded or dependency")


def _min_weight(code: ConstacyclicCode, strategy: str, budget: int | None,
                for_pair: bool) -> DistanceResult:
    """Minimum Hamming (or pair) weight over the nonzero codewords.

    One loop runs every level engine's ``_levels``.  Before each level it
    stops once the floor reaches the best weight seen, and raises
    BudgetExceededError (bounds: the floor, the best seen) if the level's
    worst-case work would take the work done past ``budget``.
    """
    resolved = _resolve_strategy(code, strategy, for_pair=for_pair)
    if resolved == "castagnoli":
        from . import bounds
        value, _terms, enumerated = bounds.castagnoli_details(code, budget=budget)
        return DistanceResult(value, "castagnoli", enumerated)
    name = "pair" if for_pair else "Hamming"
    if resolved == "dependency":
        scan = _dependency_search(code, for_pair)
        what, unit = f"dependency {name} search", "column reductions"
    else:
        def scan(t, work):  # a message-side level encodes every scalar class
            return _level_minima(code, t)[for_pair], work
        what, unit = f"{resolved.replace('_', '-')} {name} scan", "encodings"
    n = code.n
    best, count = n + 1, 0  # n + 1: nothing seen yet
    for floor, work, level in _levels(code, resolved, for_pair):
        if floor >= best:
            break
        if budget is not None and count + work > budget:
            raise BudgetExceededError(f"{what}: next step needs {work} {unit}",
                                      lower_bound=floor, upper_bound=best if best <= n else None,
                                      enumerated=count, budget=budget)
        seen, done = scan(level, work)
        best, count = min(best, seen), count + done
    assert best <= n or resolved == "dependency", "a message-side level sees a codeword"
    return DistanceResult(min(best, n), resolved, count)  # best > n: only Z_n is dependent


def min_hamming_distance(code: ConstacyclicCode, strategy: str = "auto", *,
                         budget: int | None = None) -> DistanceResult:
    """Exact minimum Hamming distance (on repeated-root codes ``auto`` uses
    the product formula and spends ``budget`` on its residue codes)."""
    check_budget(budget)
    if code.k == 0:
        raise ZeroCodeError("the zero code has no minimum distance")
    return _min_weight(code, strategy, budget, for_pair=False)


def min_pair_distance(code: ConstacyclicCode, strategy: str = "auto", *,
                      budget: int | None = None) -> DistanceResult:
    """Exact minimum pair distance (= min pair weight over nonzero codewords)."""
    check_budget(budget)
    if code.k == 0:
        raise ZeroCodeError("the zero code has no minimum pair distance")
    if code.n < 2:
        raise LengthTooShortError("pair distance needs n >= 2")
    return _min_weight(code, strategy, budget, for_pair=True)

"""Pure-Python reference for the benchmark's correctness checks.

Nothing here imports numpy or sympair: finite-field arithmetic, polynomial
division and both distances are recomputed from the definitions, so a bug in
the library's vectorized engine cannot hide behind a matching bug here.

* ``Field`` — GF(p^m) on canonical integers (base-p digits, little-endian),
  with the same modulus rule as the library: the smallest monic irreducible
  of degree m in canonical-value order.
* ``distances`` — exact (d_H, d_p) of the constacyclic code generated by g,
  by brute force on whichever side is cheaper: every nonzero codeword
  (message side), or every coordinate support of size <= n - k + 1 with a
  rank test on the columns x^j mod g (parity side).
* ``theorem_violations`` — the sandwich d_H + 1 <= d_p <= 2 d_H, the
  pair-Singleton bound d_p <= n - k + 2, and the constacyclic floor theorem
  (d_p = d_H + 1 iff k = n - d_H + 1; otherwise d_p >= d_H + 2, and
  d_p >= d_H + 3 when k > 1 and n - d_H >= 2k - 1).

Run ``python3 bench/oracle.py`` from the repository root to regenerate
``bench/data/small_sweep.json``, the small sweep's inputs: every nontrivial
divisor code of x^n - lambda in the sweep's range, as spec fields.  Their
distances are not stored; the benchmark computes them here on every run.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

#: Sweep range: field order -> largest length.
SWEEP_MAX_N = {2: 17, 3: 13, 4: 11, 5: 11, 7: 9, 8: 8, 9: 8}

DATA = Path(__file__).resolve().parent / "data" / "small_sweep.json"

#: The message side is used while q^k * n stays below this many symbol ops.
_MESSAGE_SIDE_LIMIT = 1 << 21


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            m, r = 0, q
            while r % p == 0:
                r //= p
                m += 1
            if r != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, m
    raise ValueError(f"{q} is not a prime power")


def _digits(value: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(value % p)
        value //= p
    return out


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """True when the monic polynomial over GF(p) has no monic factor of
    degree 1..deg/2, by trial division over all candidates."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for value in range(p ** d):
            divisor = _digits(value, p, d) + [1]
            rem = list(coeffs)
            for top in range(deg, d - 1, -1):
                c = rem[top]
                if c:
                    for i in range(d + 1):
                        rem[top - d + i] = (rem[top - d + i] - c * divisor[i]) % p
            if not any(rem[:d]):
                return False
    return True


class Field:
    """GF(q) with full addition and multiplication tables."""

    def __init__(self, q: int):
        p, m = _prime_power(q)
        self.q, self.p, self.m = q, p, m
        if m == 1:
            self.modulus = [0, 1]
        else:
            self.modulus = next(
                _digits(v, p, m) + [1] for v in range(p ** m)
                if _is_irreducible(_digits(v, p, m) + [1], p))
        self.add = [[self._add(a, b) for b in range(q)] for a in range(q)]
        self.mul = [[self._mul(a, b) for b in range(q)] for a in range(q)]
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        self.inv = [None] + [next(b for b in range(q) if self.mul[a][b] == 1)
                             for a in range(1, q)]

    def _from_digits(self, digits) -> int:
        return sum(c * self.p ** i for i, c in enumerate(digits))

    def _add(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        return self._from_digits((x + y) % p for x, y in zip(_digits(a, p, m), _digits(b, p, m)))

    def _mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(_digits(a, p, m)):
            for j, y in enumerate(_digits(b, p, m)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * m - 2, m - 1, -1):
            c = prod[top]
            if c:
                for i in range(m + 1):
                    prod[top - m + i] = (prod[top - m + i] - c * self.modulus[i]) % p
        return self._from_digits(prod[:m])


def pair_weight(word) -> int:
    """Definitional pair weight: pairs (w_i, w_{i+1 mod n}) other than (0, 0)."""
    n = len(word)
    return sum(1 for i in range(n) if word[i] or word[(i + 1) % n])


def _remainder(F: Field, num: list[int], den: list[int]) -> list[int]:
    """num mod den for a monic den, coefficient lists ascending."""
    rem = list(num)
    d = len(den) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if c:
            for i in range(d + 1):
                rem[top - d + i] = F.add[rem[top - d + i]][F.neg[F.mul[c][den[i]]]]
    return rem[:d]


def divides(F: Field, g: list[int], n: int, lam: int) -> bool:
    """g | x^n - lambda."""
    binom = [F.neg[lam]] + [0] * (n - 1) + [1]
    return not any(_remainder(F, binom, g))


def _rank(F: Field, columns) -> int:
    rows = [list(c) for c in columns]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = F.inv[rows[rank][col]]
        pivot = [F.mul[inv][v] for v in rows[rank]]
        rows[rank] = pivot
        for r in range(len(rows)):
            c = rows[r][col]
            if r != rank and c:
                rows[r] = [F.add[v][F.neg[F.mul[c][w]]] for v, w in zip(rows[r], pivot)]
        rank += 1
    return rank


def _message_side(F: Field, g: list[int], n: int, k: int) -> tuple[int, int]:
    span = [(0,) * n]
    for i in range(k):
        row = [0] * i + list(g) + [0] * (n - i - len(g))
        span = [tuple(F.add[w][F.mul[a][r]] for w, r in zip(word, row))
                for word in span for a in range(F.q)]
    nonzero = [w for w in span if any(w)]
    return (min(sum(1 for s in w if s) for w in nonzero),
            min(pair_weight(w) for w in nonzero))


def _parity_side(F: Field, g: list[int], n: int, k: int) -> tuple[int, int]:
    r = n - k
    columns = [_remainder(F, [0] * j + [1], g) if j >= r else
               [1 if i == j else 0 for i in range(r)] for j in range(n)]
    d_h = d_p = n + 1
    for size in range(1, r + 2):
        for support in itertools.combinations(range(n), size):
            if _rank(F, [columns[j] for j in support]) < size:
                d_h = min(d_h, size)
                d_p = min(d_p, pair_weight([1 if j in support else 0 for j in range(n)]))
    return d_h, d_p


def distances(F: Field, g: list[int], n: int, lam: int) -> tuple[int, int]:
    """Exact (d_H, d_p) of the lambda-constacyclic code generated by monic g."""
    if not g or g[-1] != 1 or not divides(F, g, n, lam):
        raise ValueError(f"{g} is not a monic divisor of x^{n} - {lam}")
    k = n - (len(g) - 1)
    if not 1 <= k <= n:
        raise ValueError(f"dimension {k} out of range for n = {n}")
    message_cost = F.q ** k * n
    parity_cost = sum(math.comb(n, s) for s in range(1, n - k + 2)) * (n - k + 1) ** 2
    if k == n or message_cost <= min(parity_cost, _MESSAGE_SIDE_LIMIT):
        return _message_side(F, g, n, k)
    return _parity_side(F, g, n, k)


def theorem_violations(n: int, k: int, d_h: int, d_p: int) -> list[str]:
    """Names of the distance theorems an (n, k, d_H, d_p) quadruple breaks."""
    bad = []
    if d_h < n and not d_h + 1 <= d_p <= 2 * d_h:
        bad.append("sandwich")
    if d_h == n and d_p != n:
        bad.append("full-weight")
    if d_p > n - k + 2:
        bad.append("pair-singleton")
    if 2 <= d_h < n and k < n:
        mds = k == n - d_h + 1
        if (d_p == d_h + 1) != mds:
            bad.append("floor-iff")
        floor = d_h + 1 if mds else d_h + (3 if k > 1 and n - d_h >= 2 * k - 1 else 2)
        if d_p < floor:
            bad.append("floor")
    return bad


def _sweep_specs():
    """Every nontrivial divisor code of x^n - lambda in the sweep range.

    Divisors come from the library's factorization (input generation only);
    each one is re-checked to divide x^n - lambda by the division above.
    """
    from sympair import gf, poly
    for q, max_n in SWEEP_MAX_N.items():
        p, m = _prime_power(q)
        field = gf.extension_field(p, m)
        for n in range(2, max_n + 1):
            for lam in range(1, q):
                fac = poly.factor(poly.binomial(field, n, lam))
                for exps in itertools.product(*(range(e + 1) for _f, e in fac)):
                    g = poly.Poly.one(field)
                    for e, (f, _m) in zip(exps, fac):
                        g = g * f ** e
                    if 0 < g.degree < n:
                        yield {"p": p, "m": m, "n": n, "lambda": lam,
                               "generator": list(g.coeffs)}


def write_sweep(path: Path = DATA) -> int:
    rows = [[s["p"], s["m"], s["n"], s["lambda"], s["generator"]] for s in _sweep_specs()]
    lines = ",\n".join(json.dumps(r, separators=(",", ":")) for r in rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text('{"columns": ["p", "m", "n", "lambda", "generator"],\n'
                    '"codes": [\n' + lines + "\n]}\n")
    return len(rows)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(f"wrote {write_sweep()} codes to {DATA}")

"""Three reference codes, analyzed end to end.

* a [24,3,19] cyclic code over GF(5) given by its defining set, small
  enough to certify by enumerating all 124 nonzero codewords;
* a [15,11,3] repeated-root cyclic code over GF(5) whose Hamming distance
  comes out of the residue-code product formula and whose pair distance 6
  makes it MDS for the pair metric;
* a [21,14,5] repeated-root cyclic code over GF(7) where we certify the
  Hamming side, show a pair-weight-8 codeword, and certify d_p = 8 with
  the parity-side dependency search.

Run:  python3 demos/reference_codes.py
"""

from sympair import bounds, code, gf, poly, report
from sympair.code import ConstacyclicCode
from sympair.poly import Poly

f5 = gf.prime_field(5)
f7 = gf.prime_field(7)


def show(title, rep):
    c = rep.code
    print(f"== {title}: [{c.n},{c.k}] over GF({c.field.q}) ==")
    print(f"  generator        : {c.g}")
    print(f"  d_hamming        : {rep.d_hamming.value}  ({rep.d_hamming.method})")
    print(f"  d_pair           : {rep.d_pair.value}  ({rep.d_pair.method})")
    print(f"  pair singleton   : d_p <= {rep.bounds.singleton_pair_max_dp}")
    print(f"  MDS (pair)       : {rep.mds_pair}")
    print()


# [24,3,19]: defining set = everything except {0, 19, 23}
c24 = ConstacyclicCode.from_defining_set(f5, 24, set(range(24)) - {0, 19, 23})
show("defining-set code", report.analyze(c24))

# [15,11,3]: g = (x-1)(x^3-1), a repeated-root generator
x, one = Poly.x(f5), Poly.one(f5)
c15 = ConstacyclicCode.from_generator(f5, 15, 1, (x - one) * (x**3 - one))
rep15 = report.analyze(c15)
show("repeated-root code", rep15)
print("Its Hamming distance comes from the residue-code product: each level t")
print("contributes (product of base-p digit+1 of t) * d_H(residue code at t):")
value, terms, _ = bounds.castagnoli_details(c15)
for t in terms:
    print(f"  t={t.t}: P_t={t.radix_product}, residue g={t.residue_generator}, "
          f"d={t.residue_distance}, contribution={t.contribution}")
print(f"  minimum = {value}")
print()

# [21,14,5]: g = (x-1)^4 (x-2)^2 (x-4) over GF(7)
x7, one7 = Poly.x(f7), Poly.one(f7)
g21 = (x7 - one7) ** 4 * (x7 - Poly(f7, [2])) ** 2 * (x7 - Poly(f7, [4]))
c21 = ConstacyclicCode.from_generator(f7, 21, 1, g21)
d21 = code.min_hamming_distance(c21)  # castagnoli, instant
print(f"== deeper repeated-root code: [21,14] over GF(7) ==")
print(f"  d_hamming          : {d21.value}  ({d21.method})")
witness = (6, 4, 1, 1, 0, 0, 0, 0, 0, 0, 3, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0)
print(f"  witness codeword   : {witness}")
print(f"  in the code        : {c21.is_member(witness)}")
print(f"  its pair weight    : {code.pair_weight(witness)}")
floor = bounds.repeated_root_pair_floor(c21, d21.value)
print(f"  pair floor         : d_p >= {floor.lower_bound} (condition {floor.condition_used})")
dp21 = code.min_pair_distance(c21)  # dependency search over H's columns
print(f"  d_pair             : {dp21.value}  ({dp21.method}, "
      f"{dp21.enumeration_count} column reductions)")

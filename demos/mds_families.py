"""Four families of MDS symbol-pair codes, built and certified.

Every instance is a cyclic [n, n-d_p+2] code meeting the pair-metric
Singleton bound d_p <= n - k + 2 with equality.  The first three live at
length 3p over GF(p) with pair distances 7, 8 and 6; the fourth works at
any length n dividing q^2 - 1 with n >= q + 4 and reaches pair distance 6
with dimension n - 4.

Run:  python3 demos/mds_families.py
"""

from sympair import constructions

print("family instances certified at the cheapest sizes:")
print()

rows = [
    ("mds_3p_7 (p=5)", constructions.mds_3p_7(5, "full")),
    ("mds_3p_6 (p=5)", constructions.mds_3p_6(5, "full")),
    ("mds_n_6 (q=3, n=8)", constructions.mds_n_6(3, 8, "full")),
    ("mds_n_6 (q=5, n=24)", constructions.mds_n_6(5, 24, "full")),
]
for label, res in rows:
    c = res.code
    print(f"  {label:22s} [{c.n},{c.k}] over GF({c.field.q}): "
          f"d_H = {res.d_hamming.value}, d_p = {res.d_pair.value}, "
          f"MDS-pair = {res.is_mds_pair}")
print()

print("larger instances, certified in full at the default level; the parity")
print("side settles each pair distance in milliseconds:")
print()
for label, res in [
    ("mds_3p_7 (p=11)", constructions.mds_3p_7(11)),
    ("mds_3p_8 (p=7) ", constructions.mds_3p_8(7)),
    ("mds_3p_6 (p=11)", constructions.mds_3p_6(11)),
]:
    c = res.code
    print(f"  {label:22s} [{c.n},{c.k}] over GF({c.field.q}): "
          f"d_H = {res.d_hamming.value}, d_p = {res.d_pair.value}, "
          f"MDS-pair = {res.is_mds_pair}")
print()

res = constructions.mds_n_6(7, 48, "bounds")
print("structural level for the largest instance here (q=7, n=48):")
print(f"  defining set {sorted(res.code.defining_set() & {0, 1, 7, 8})} generates "
      f"a [{res.code.n},{res.code.k}] code;")
print("  a coset-walk bound already proves d_H >= 4 without any enumeration.")

"""Sphere algebras: homotopy, weight by weight.

The free commutative algebra on K(V, n) splits by word length; each weight
is a symmetric power, computed by decalage from a divided power of
K(V, n-2) whose normalized chains live on "covering" monomials and stay
small.  Rationally the answer reproduces the free graded-commutative
closed forms (polynomial on even generators, exterior on odd ones).  In
characteristic p no closed form is assumed: the dims are whatever the
chain-level computation says, and each degree carries a stability flag
telling whether one more weight could still change it.
"""

from scalg import QQ, GF2, sphere_homotopy

print("Characteristic 0, one generator:")
for n in (2, 3):
    r = sphere_homotopy(QQ, 1, n, 6, 4)
    kind = "polynomial" if n % 2 == 0 else "exterior"
    print("  n=%d  dims %s  (%s generator)" % (n, r.dims, kind))

print()
print("Characteristic 0, two generators in degree 2: binomial growth")
r = sphere_homotopy(QQ, 2, 2, 8, 4)
print("  dims", r.dims)

print()
print("Characteristic 2: divided-power phenomena emerge, uncoded:")
r = sphere_homotopy(GF2, 1, 1, 5, 5)
print("  S(one degree-1 class):  dims %s (exterior!)" % (r.dims,))
r = sphere_homotopy(GF2, 1, 2, 6, 4)
print("  S(one degree-2 class):  dims %s" % (r.dims,))
print("  stable flags:           %s" % (r.stable_flags,))
print("  (a False flag means the W+1 recomputation could not certify that")
print("   degree within budget; nothing is ever assumed about high weights)")

print()
print("Weight stability in action: same sphere, increasing weight bound")
for W in (1, 2, 3):
    r = sphere_homotopy(GF2, 1, 2, 6, W)
    print("  W=%d  dims %s  stable through %d" % (W, r.dims, r.stable_through()))

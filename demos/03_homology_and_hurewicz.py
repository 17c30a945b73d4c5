"""Algebra homology via indecomposables, and the Hurewicz comparison.

For an almost-free algebra the homology is the homotopy of the weight-one
part (augmentation ideal modulo products): for a sphere algebra that is
the Eilenberg-MacLane object itself, so the homology is the generators in
their degree and nothing else.  The Hurewicz map compares homotopy of the
augmentation ideal with that quotient: an isomorphism in the generator
degree and a surjection one above, while decomposables like the square of
a generator die.
"""

from scalg import QQ, GF2, hurewicz, indecomposables, sphere_algebra

for field, name in ((QQ, "char 0"), (GF2, "char 2")):
    A = sphere_algebra(field, 1, 2, 5, 3)
    Q = indecomposables(A)
    h = Q.homotopy_dims()
    print("%s: homology of S(one degree-2 class) = homotopy of its "
          "indecomposables:" % name)
    print("  dims", h.to_list(4))

print()
A = sphere_algebra(QQ, 1, 2, 5, 3)
maps = hurewicz(A)
print("Hurewicz matrices pi_s(IA) -> pi_s(QA) for S(l, 2) over the rationals:")
for s in sorted(maps):
    m = maps[s]
    rows = ", ".join("[%s]" % ", ".join(map(str, row)) for row in m.to_rows())
    print("  degree %d: %d x %d  [%s]" % (s, m.nrows, m.ncols, rows))
print()
print("Degree 2 is the invertible 1x1 identity; degree 4 is 1-dimensional")
print("upstairs (the square of the generator) and lands in zero: products")
print("die in the indecomposables, exactly the Hurewicz picture.")

"""Homotopy cofibers through the two-sided bar construction.

The cofiber of an algebra map is ground (x)^h_source target, realized as
the diagonal of the bar object and truncated by bar degree, level, and the
induced weight.  Certification is by weight connectivity: the weight
blocks the truncation drops have no homotopy below a known degree.

The showpiece is the rational family: the cofiber of the map representing
the s-th power of the degree-2r polynomial generator has homotopy l at
degrees 2ri for 0 <= i < s and homology l at 2r and 2rs+1, a finite
nontrivial pair that marks the rational boundary of the boundedness
theorem.
"""

from scalg import (
    GradedDims,
    QQ,
    bar_diagonal,
    identity_map,
    les_feasibility,
    power_cofiber_tables,
    sphere_algebra,
    zero_map,
)

print("Cofiber of the identity map: contractible onto the ground field")
A = sphere_algebra(QQ, 1, 2, 4, 3)
h = bar_diagonal(identity_map(A), 2, 4, 2).homotopy_dims()
print("  pi:", h.to_list(3), "(certified through %d)" % h.certified_degree)

print()
print("Cofiber of the zero self-map of S(2): a suspension appears")
B = sphere_algebra(QQ, 1, 2, 4, 3)
h = bar_diagonal(zero_map(B, 2, source_W=2), 2, 4, 2).homotopy_dims()
print("  pi:", h.to_list(3), " -> the pattern of theta(S(2)) * theta(S(3))")

print()
print("The power-map cofiber tables (r=1, s=2): computed vs closed form")
rep = power_cofiber_tables(1, 2)
print("  pi:", rep.pi_dims, " flags:", rep.pi_flags)
print("  hq:", dict(sorted(rep.hq_dims.data.items())))
print("  certified through", rep.certified_degree)

print()
print("Long-exact-sequence feasibility on dimension tables:")
v = les_feasibility(GradedDims({2: 1}), GradedDims({}), GradedDims({}))
print("  a lone class with trivial neighbors:", "feasible" if v else "infeasible")
v = les_feasibility(GradedDims({2: 1}), GradedDims({2: 1, 3: 1}),
                    GradedDims({3: 1}))
print("  sphere-cofibration dimensions:      ", "feasible" if v else "infeasible")

"""Symmetric powers, sphere algebras, and brute-force sphere homotopy.

The free commutative algebra on a simplicial vector space splits by word
length (weight); weight d is the levelwise d-th symmetric power, taken in
the quotient (coinvariant) sense so that the same monomial bases work in
every characteristic.  Homotopy of a sphere algebra is computed one weight
at a time and summed; no closed form is assumed in characteristic p, and
a degree is only flagged weight-stable when recomputing with one more
weight adds nothing at or below it.

For powers of an Eilenberg-MacLane object there is a fast path: a basis
monomial is degenerate exactly when the jump positions of its factors fail
to cover all positions of the level, so the normalized complex lives on
"covering" monomials and is written down directly, without materializing
the full (often huge) unnormalized levels.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

from .exactfield import Mat, axpy, canonical
from .simplicial import (
    ChainComplex,
    HomotopyDims,
    SimplicialError,
    SimplicialVectorSpace,
    constant_object,
    eilenberg_maclane,
    _coface,
    _jump_surjections,
)


# Size budgets of the brute force: a covering-complex level is not built
# when its candidate multisets would exceed ENUM_BUDGET or its covering
# basis would exceed the dimension budget (DIM_BUDGET unless a caller
# passes another); degrees that need such a level are left uncertified.
ENUM_BUDGET = 4_000_000
DIM_BUDGET = 20_000


# --------------------------------------------------------------------------
# generic symmetric powers


def _monomials(dim, d):
    """Sorted d-multisets over range(dim), in lexicographic order."""
    return list(combinations_with_replacement(range(dim), d))


def _sym_map(f, src_monomials, dst_index, p):
    """Multiplicative extension of a linear map to d-th symmetric powers."""
    cols = []
    for mono in src_monomials:
        # multiply out f(e_i1) ... f(e_id) in the commutative monomial basis
        acc = {(): 1}
        for i in mono:
            col = f.cols[i]
            new = {}
            for partial, c in acc.items():
                for j, v in col.items():
                    key = tuple(sorted(partial + (j,)))
                    new[key] = new.get(key, 0) + c * v
            acc = new
        cols.append(canonical({dst_index[key]: v for key, v in acc.items()}, p))
    return cols


def symmetric_power(V, d):
    """Levelwise d-th symmetric power of a simplicial vector space.

    Level m has dimension C(dim V_m + d - 1, d); faces and degeneracies act
    multiplicatively on monomials.  d = 0 gives the constant object, d = 1
    gives V back (on the nose).
    """
    if d < 0:
        raise ValueError("negative symmetric power")
    if d == 0:
        return constant_object(V.field, V.T)
    if d == 1:
        return V
    field = V.field
    p = field.characteristic
    monomials = [_monomials(V.level_dims[m], d) for m in range(V.T + 1)]
    indexes = [{mono: i for i, mono in enumerate(mons)} for mons in monomials]
    dims = [len(mons) for mons in monomials]
    faces = [[]]
    for m in range(1, V.T + 1):
        faces.append(
            [
                Mat(field, dims[m - 1], dims[m],
                    _sym_map(V.faces[m][i], monomials[m], indexes[m - 1], p))
                for i in range(m + 1)
            ]
        )
    degens = []
    for m in range(V.T):
        degens.append(
            [
                Mat(field, dims[m + 1], dims[m],
                    _sym_map(V.degens[m][i], monomials[m], indexes[m + 1], p))
                for i in range(m + 1)
            ]
        )
    degens.append([])
    return SimplicialVectorSpace(field, dims, faces, degens, basis_labels=monomials)


# --------------------------------------------------------------------------
# fast normalized complexes for powers of K(V, n)


def _face_on_jumpmask(m, i, n):
    """Action of d_i on level-m jump masks of K(-, n); None where it dies."""
    table = {}
    phi = _coface(m, i)
    for vals, mask in _jump_surjections(m, n):
        comp = tuple(vals[phi[a]] for a in range(m))
        ok = comp[0] == 0 and comp[-1] == n
        if ok:
            ok = all(b - a in (0, 1) for a, b in zip(comp, comp[1:]))
        if not ok:
            table[mask] = None
        else:
            newmask = 0
            for a in range(m - 1):
                if comp[a + 1] > comp[a]:
                    newmask |= 1 << a
            table[mask] = newmask
    return table


def sym_power_covering_complex(field, q, n, d, T, dim_budget=DIM_BUDGET):
    """Normalized chains of Sym^d(K(V, n)), dim V = q, on covering monomials.

    A monomial of level-m generators is nondegenerate exactly when the jump
    sets of its factors jointly cover all m positions.  Returns a pair
    (complex, built_to): the complex carries levels 0..built_to, where
    built_to < T means a size budget stopped the construction early.
    """
    if n < 1:
        raise ValueError("generators must live in positive degree")
    if d == 0 or q == 0:
        dims = [1 if d == 0 else 0] + [0] * T
        diffs = [Mat.zero(field, 0, dims[0])] + [
            Mat.zero(field, dims[m - 1], dims[m]) for m in range(1, T + 1)
        ]
        return ChainComplex(field, dims, diffs), T
    masks = []      # per level: mask of each code (codes are mask-major, q colors)
    bases = []      # per level: list of covering monomials (tuples of codes)
    index = []
    built_to = T
    for m in range(T + 1):
        level_masks = [mask for _, mask in _jump_surjections(m, n)]
        ncodes = len(level_masks) * q
        if ncodes == 0:
            masks.append([])
            bases.append([])
            index.append({})
            continue
        est = math.comb(ncodes + d - 1, d)
        if est > ENUM_BUDGET:
            built_to = m - 1
            break
        full = (1 << m) - 1
        code_masks = []
        for mask in level_masks:
            code_masks.extend([mask] * q)
        basis = []
        for mono in combinations_with_replacement(range(ncodes), d):
            u = 0
            for c in mono:
                u |= code_masks[c]
            if u == full:
                basis.append(mono)
        if len(basis) > dim_budget:
            built_to = m - 1
            break
        masks.append(code_masks)
        bases.append(basis)
        index.append({b: i for i, b in enumerate(basis)})

    bases = bases[: built_to + 1]
    index = index[: built_to + 1]
    dims = [len(b) for b in bases]
    diffs = [Mat.zero(field, 0, dims[0])]
    for m in range(1, built_to + 1):
        # face action on codes: (mask, color) -> (face(mask), color)
        face_code = []
        for i in range(m + 1):
            table = _face_on_jumpmask(m, i, n)
            per_code = []
            for c in range(len(masks[m])):
                newmask = table[masks[m][c]]
                if newmask is None:
                    per_code.append(None)
                else:
                    per_code.append((newmask, c % q))
            face_code.append(per_code)
        # build a mask -> first code position lookup for the target level
        mask_pos = {}
        for pos in range(0, len(masks[m - 1]), q):
            mask_pos.setdefault(masks[m - 1][pos], pos)
        full_target = (1 << (m - 1)) - 1
        cols = []
        for mono in bases[m]:
            col = {}
            for i in range(m + 1):
                per_code = face_code[i]
                image = []
                dead = False
                acc = 0
                for c in mono:
                    fc = per_code[c]
                    if fc is None:
                        dead = True
                        break
                    newmask, color = fc
                    image.append(mask_pos[newmask] + color)
                    acc |= newmask
                if dead or acc != full_target:
                    continue
                image = tuple(sorted(image))
                k = index[m - 1][image]
                sign = 1 if i % 2 == 0 else -1
                col[k] = col.get(k, 0) + sign
            cols.append(canonical(col, field.characteristic))
        diffs.append(Mat(field, dims[m - 1], dims[m], cols))
    return ChainComplex(field, dims, diffs), built_to


def sym_power_homology(field, q, n, d, T, dim_budget=DIM_BUDGET):
    """Homotopy dims of Sym^d(K(V, n)) with the honest certified degree.

    A monomial of d weight-one factors owns d*n jump positions, so the
    covering basis is empty above level d*n; when that natural top fits
    inside the built range the complex is complete and every degree up to
    T is certified (higher degrees are zero).  Otherwise certification
    stops one short of the last built level.
    """
    if d == 0:
        return HomotopyDims({0: 1}, T)
    if q == 0:
        return HomotopyDims({}, T)
    cx, built_to = sym_power_covering_complex(field, q, n, d, T, dim_budget)
    h = cx.homology_dims()
    if d * n <= built_to:
        certified = T
    else:
        certified = built_to - 1
    return HomotopyDims({m: v for m, v in h.data.items() if m <= certified},
                        certified)


# --------------------------------------------------------------------------
# weight-graded algebras


class WeightGradedAlgebra:
    """Free commutative algebra on a simplicial vector space, truncated in
    weight: components Sym^0 .. Sym^W with monomial multiplication tables.

    Products that would exceed weight W are truncated away; every holder of
    such an algebra must treat weights > W as unknown, which is what the
    stability flags downstream account for.
    """

    def __init__(self, field, base, W, components, monomials):
        self.field = field
        self.base = base
        self.W = W
        self.components = components
        self.monomials = monomials  # per weight, per level: tuples over base
        self.q = None
        self.n = None
        self.T = base.T
        self._mult_cache = {}
        self._index_cache = {}

    def monomial_index(self, d, m):
        """Position of each weight-d, level-m monomial in its basis."""
        key = (d, m)
        index = self._index_cache.get(key)
        if index is None:
            index = {mono: i for i, mono in enumerate(self.monomials[d][m])}
            self._index_cache[key] = index
        return index

    def multiplication(self, a, b, m):
        """Matrix Sym^a_m (x) Sym^b_m -> Sym^{a+b}_m (column index a*dimB+b)."""
        if a + b > self.W:
            raise ValueError("product weight %d exceeds truncation %d" % (a + b, self.W))
        key = (a, b, m)
        cached = self._mult_cache.get(key)
        if cached is not None:
            return cached
        dim_a = self.components[a].level_dims[m]
        dim_b = self.components[b].level_dims[m]
        target_index = self.monomial_index(a + b, m)
        cols = []
        for ia in range(dim_a):
            ma = self.monomials[a][m][ia]
            for ib in range(dim_b):
                mb = self.monomials[b][m][ib]
                merged = tuple(sorted(ma + mb))
                cols.append({target_index[merged]: 1})
        out = Mat(
            self.field,
            self.components[a + b].level_dims[m],
            dim_a * dim_b,
            cols,
        )
        self._mult_cache[key] = out
        return out

    def multiply_elements(self, a, vec_a, b, vec_b, m):
        """Product of sparse vectors in Sym^a_m and Sym^b_m; {} past weight W."""
        if a + b > self.W:
            return {}
        p = self.field.characteristic
        mul = self.multiplication(a, b, m)
        dim_b = self.components[b].level_dims[m]
        acc = {}
        for ia, va in vec_a.items():
            for ib, vb in vec_b.items():
                axpy(acc, va * vb, mul.cols[ia * dim_b + ib], p)
        return acc

    def check_algebra_identities(self):
        """Commutativity, associativity and compatibility with faces.

        Checked as matrix identities on every represented level; raises
        SimplicialError on failure.
        """
        for m in range(self.T + 1):
            for a in range(self.W + 1):
                for b in range(self.W + 1 - a):
                    mab = self.multiplication(a, b, m)
                    mba = self.multiplication(b, a, m)
                    dim_a = self.components[a].level_dims[m]
                    dim_b = self.components[b].level_dims[m]
                    for ia in range(dim_a):
                        for ib in range(dim_b):
                            if mab.cols[ia * dim_b + ib] != mba.cols[ib * dim_a + ia]:
                                raise SimplicialError(
                                    "multiplication not commutative at level %d" % m
                                )
        # associativity on weight triples that fit under the truncation
        for m in range(self.T + 1):
            for a in range(1, self.W + 1):
                for b in range(1, self.W + 1 - a):
                    for c in range(1, self.W + 1 - a - b):
                        da = self.components[a].level_dims[m]
                        db = self.components[b].level_dims[m]
                        dc = self.components[c].level_dims[m]
                        for ia in range(da):
                            for ib in range(db):
                                ab = self.multiply_elements(
                                    a, {ia: 1}, b, {ib: 1}, m
                                )
                                for ic in range(dc):
                                    left = self.multiply_elements(
                                        a + b, ab, c, {ic: 1}, m
                                    )
                                    bc = self.multiply_elements(
                                        b, {ib: 1}, c, {ic: 1}, m
                                    )
                                    right = self.multiply_elements(
                                        a, {ia: 1}, b + c, bc, m
                                    )
                                    if left != right:
                                        raise SimplicialError(
                                            "multiplication not associative"
                                        )
        # faces and degeneracies are algebra maps
        for a in range(1, self.W):
            b = 1
            if a + b > self.W:
                continue
            ca, cb, cab = (
                self.components[a],
                self.components[b],
                self.components[a + b],
            )
            for m in range(1, self.T + 1):
                mul_m = self.multiplication(a, b, m)
                mul_prev = self.multiplication(a, b, m - 1)
                for i in range(m + 1):
                    lhs = cab.faces[m][i] @ mul_m
                    rhs = mul_prev @ ca.faces[m][i].kron(cb.faces[m][i])
                    if lhs != rhs:
                        raise SimplicialError(
                            "face d_%d is not an algebra map at level %d" % (i, m)
                        )

    def __repr__(self):
        return "WeightGradedAlgebra(%r, W=%d)" % (self.field, self.W)


def sphere_algebra(field, q, n, T, W):
    """Weight-truncated model of the free algebra on K(V, n), dim V = q."""
    if T < n:
        raise ValueError("truncation %d below generator degree %d" % (T, n))
    if W < 1:
        raise ValueError("weight truncation must be at least 1")
    if n < 1:
        raise ValueError("sphere generators live in positive degrees")
    base = eilenberg_maclane(field, q, n, T)
    components = []
    monomials = []
    for d in range(W + 1):
        comp = symmetric_power(base, d)
        components.append(comp)
        if d == 0:
            monomials.append([[()] for _ in range(T + 1)])
        elif d == 1:
            monomials.append(
                [[(i,) for i in range(base.level_dims[m])] for m in range(T + 1)]
            )
        else:
            monomials.append(comp.basis_labels)
    alg = WeightGradedAlgebra(field, base, W, components, monomials)
    alg.q = q
    alg.n = n
    return alg


# --------------------------------------------------------------------------
# homotopy reports


class HomotopyReport:
    """Graded homotopy dimensions with certification bookkeeping.

    dims[m] for m = 0..T sums the computed weight contributions; degrees
    above certified_degree are provisional.  stable_flags[m] is True only
    when the weight W+1 recomputation proved it adds nothing at or below m.
    """

    def __init__(self, field, q, n, T, W, dims, certified_degree, stable_flags):
        self.field = field
        self.q = q
        self.n = n
        self.T = T
        self.W = W
        self.dims = list(dims)
        self.certified_degree = certified_degree
        self.stable_flags = list(stable_flags)

    def stable_through(self):
        """Largest degree with all flags true below it, -1 if none."""
        out = -1
        for m, flag in enumerate(self.stable_flags):
            if not flag:
                break
            out = m
        return out

    def to_json_dict(self):
        return {
            "field": self.field.characteristic,
            "q": self.q,
            "n": self.n,
            "T": self.T,
            "W": self.W,
            "dims": list(self.dims),
            "certified_degree": self.certified_degree,
            "stable_flags": [bool(b) for b in self.stable_flags],
        }

    def __repr__(self):
        return "HomotopyReport(dims=%r, certified<=%d)" % (
            self.dims,
            self.certified_degree,
        )


def sphere_homotopy(field, q, n, T, W, dim_budget=DIM_BUDGET):
    """Brute-force homotopy of the sphere algebra on q generators in degree n.

    Sums the homology of the normalized chains of Sym^d(K(V, n)) over
    weights 0..W and checks stability against weight W+1.  Nothing is
    assumed about where a given weight can contribute; degrees whose
    stability check was not computable within budget are flagged unstable.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    if n < 1 or T < n:
        raise ValueError("need n >= 1 and T >= n")
    if W < 0:
        raise ValueError("W must be nonnegative")
    per_weight = []
    certified = T
    for d in range(W + 1):
        h = sym_power_homology(field, q, n, d, T, dim_budget)
        per_weight.append(h)
        certified = min(certified, h.certified_degree)
    # each weight contributes only where it is certified; entries above the
    # overall certified degree are lower bounds from the complete weights
    dims = [
        sum(h[m] for h in per_weight if h.certified_degree >= m)
        for m in range(T + 1)
    ]
    check = sym_power_homology(field, q, n, W + 1, T, dim_budget)
    flags = []
    for m in range(T + 1):
        ok = check.certified_degree >= m and all(
            check[j] == 0 for j in range(m + 1)
        )
        flags.append(bool(ok))
    return HomotopyReport(field, q, n, T, W, dims, certified, flags)


# --------------------------------------------------------------------------
# indecomposables and the Hurewicz comparison


def indecomposables(A):
    """Weight-one part of an almost-free algebra: I(A)/I(A)^2.

    Only algebras constructed by this module are accepted; they are
    levelwise free on their generators, so the quotient of the augmentation
    ideal by products is literally the weight-1 component.
    """
    if not isinstance(A, WeightGradedAlgebra):
        raise ValueError("indecomposables need an almost-free algebra built here")
    return A.components[1]


def induced_homology_matrices(src, dst, chain_maps, up_to):
    """Matrices induced on homology by a chain map (verified to commute)."""
    for m in range(1, min(len(chain_maps) - 1, up_to + 1)):
        lhs = dst.diffs[m] @ chain_maps[m]
        rhs = chain_maps[m - 1] @ src.diffs[m]
        if lhs != rhs:
            raise ValueError("not a chain map at level %d" % m)
    out = {}
    for s in range(up_to + 1):
        reps, _ = src.homology_reps(s)
        dst_reps, coords = dst.homology_reps(s)
        cols = [coords(chain_maps[s].apply(dict(col))) for col in reps.cols]
        out[s] = Mat(src.field, dst_reps.ncols, reps.ncols, cols)
    return out


def hurewicz(A, up_to=None):
    """Comparison from homotopy of the augmentation ideal to its weight-1
    part, degree by degree.

    Returns {degree: matrix pi_s(IA) -> pi_s(QA)}.  For a sphere algebra on
    generators in degree n this is invertible in degree n and surjective in
    degree n + 1.
    """
    if not isinstance(A, WeightGradedAlgebra):
        raise ValueError("hurewicz needs a weight-graded algebra")
    if A.base.level_dims[0] != 0:
        raise ValueError("algebra is not connected")
    if up_to is None:
        up_to = A.T - 1
    field = A.field
    normalized = [A.components[d].normalized_chains() for d in range(1, A.W + 1)]
    ideal = normalized[0]
    for cx in normalized[1:]:
        ideal = ideal.direct_sum(cx)
    quotient = normalized[0]
    chain_maps = []
    for m in range(A.T + 1):
        n_q = quotient.dims[m]
        n_i = ideal.dims[m]
        cols = [{j: 1} if j < n_q else {} for j in range(n_i)]
        chain_maps.append(Mat(field, n_q, n_i, cols))
    return induced_homology_matrices(ideal, quotient, chain_maps, up_to)

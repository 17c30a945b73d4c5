"""Maps of sphere algebras, the two-sided bar construction, and homotopy
cofibers.

A map out of a sphere algebra is fixed by where the generators go: a class
is handed over as a cycle in the normalized chains of the target, repaired
to a representative with every face zero (the Moore position), and spread
over all levels by degeneracy operators.  The homotopy pushout of
ground-field <- A -> B is realized by the diagonal of the two-sided bar
object with k-th layer A^(x k) (x) B; truncation is by bar degree, by
simplicial level, and by the induced weight s * (A-weights) + B-weight,
where s is the weight of the generator images.  All three truncations are
closed under the structure maps, so the result is an honest simplicial
vector space and its homotopy approximates the cofiber from below, with
per-degree certification by recomputation at enlarged bounds.

The bar diagonal builds its normalized chains directly: every degeneracy
sends a basis tuple to a single basis tuple, so the degenerate tuples are
found from the degeneracy image of each tuple one level down, and the
differential is computed on the nondegenerate columns only.  Checking
d_i d_j = d_{j-1} d_i on those columns also computes the faces of the
lower-level tuples they hit, degenerate ones included.  The face and
degeneracy matrices of the whole object, and the check of every
simplicial identity on them, are built only on first use; the tests
compare the two normalized complexes.
"""

from __future__ import annotations

import math
from itertools import combinations, product

from .exactfield import (
    QQ,
    FieldError,
    Mat,
    axpy,
    canonical,
    kernel_basis,
    solve,
)
from .simplicial import (
    ChainComplex,
    GradedDims,
    SimplicialError,
    SimplicialVectorSpace,
)
from .symalg import sphere_algebra


class CycleError(ValueError):
    """The supplied vector is not a usable cycle for a representing map."""


class TableMismatch(AssertionError):
    """Computed cofiber homotopy disagrees with the closed-form table in a
    certified degree; an implementation bug, not a truncation artifact."""


# --------------------------------------------------------------------------
# degeneracy words


def _degeneracy_word(sigma):
    """Factor a surjection into codegeneracies; returns the s_i word to
    apply, innermost first."""
    word = []
    sigma = list(sigma)
    while True:
        for i in range(len(sigma) - 1):
            if sigma[i] == sigma[i + 1]:
                word.append(i)
                del sigma[i + 1]
                break
        else:
            return word


def _apply_surjection(component_list, weight, sigma, n, vec):
    """Apply the operator of sigma: [m] ->> [n] to a level-n vector living
    in the given weight component."""
    word = _degeneracy_word(sigma)
    out = dict(vec)
    level = n
    for i in reversed(word):
        mat = component_list[weight].degens[level][i]
        out = mat.apply(out)
        level += 1
    return out


# --------------------------------------------------------------------------
# algebra maps


class AlgebraMap:
    """Multiplicative map between sphere algebras, fixed on generators.

    generator_images[m] is the matrix K(V, n)_m -> Sym^s(K_target)_m; the
    images are homogeneous of one target weight s (the weight ratio), which
    is what makes the induced-weight truncation of the bar object sound.
    """

    def __init__(self, source, target, weight_ratio, level_maps, recipe):
        self.source = source
        self.target = target
        self.weight_ratio = weight_ratio
        self.level_maps = level_maps
        self.recipe = recipe  # (n, weight, class_vec) for rebuilding
        self._weight_maps = {}
        self.check_simplicial()

    @property
    def field(self):
        return self.source.field

    def check_simplicial(self):
        """Generator images commute with faces and degeneracies."""
        K = self.source.base
        s = self.weight_ratio
        tgt = self.target.components[s] if s <= self.target.W else None
        if tgt is None:
            raise ValueError("target truncated below the image weight")
        T = min(K.T, tgt.T)
        for m in range(1, T + 1):
            for i in range(m + 1):
                lhs = tgt.faces[m][i] @ self.level_maps[m]
                rhs = self.level_maps[m - 1] @ K.faces[m][i]
                if lhs != rhs:
                    raise SimplicialError(
                        "generator images do not commute with d_%d at level %d"
                        % (i, m)
                    )
        for m in range(T):
            for i in range(m + 1):
                lhs = tgt.degens[m][i] @ self.level_maps[m]
                rhs = self.level_maps[m + 1] @ K.degens[m][i]
                if lhs != rhs:
                    raise SimplicialError(
                        "generator images do not commute with s_%d at level %d"
                        % (i, m)
                    )

    def check_multiplicative(self, weights=(1, 2), levels=None):
        """phi(xy) = phi(x)phi(y) on represented weights (spot check)."""
        levels = levels if levels is not None else range(self.source.T + 1)
        for w in weights:
            if w + 1 > self.source.W or (w + 1) * self.weight_ratio > self.target.W:
                continue
            for m in levels:
                left = self.weight_map(w + 1, m)
                dim1 = self.source.components[1].level_dims[m]
                dimw = self.source.components[w].level_dims[m]
                for i1 in range(dim1):
                    img1 = dict(self.weight_map(1, m).cols[i1])
                    for iw in range(dimw):
                        imgw = dict(self.weight_map(w, m).cols[iw])
                        prod_img = self.target.multiply_elements(
                            self.weight_ratio, img1,
                            w * self.weight_ratio, imgw, m,
                        )
                        mono = tuple(
                            sorted(self.source.monomials[1][m][i1]
                                   + self.source.monomials[w][m][iw])
                        )
                        j = self.source.monomial_index(w + 1, m)[mono]
                        if dict(left.cols[j]) != prod_img:
                            raise SimplicialError(
                                "generator extension is not multiplicative"
                            )
        return True

    def weight_map(self, w, m):
        """Sym^w(K_source)_m -> Sym^{w s}(K_target)_m, multiplicatively.

        Returns None when the target weight exceeds the target truncation
        (the product is truncated away).
        """
        s = self.weight_ratio
        if w * s > self.target.W:
            return None
        key = (w, m)
        cached = self._weight_maps.get(key)
        if cached is not None:
            return cached
        F = self.field
        if w == 0:
            out = Mat.identity(F, 1)
        elif w == 1:
            out = self.level_maps[m]
        else:
            prev = self.weight_map(w - 1, m)
            gen = self.level_maps[m]
            prev_index = self.source.monomial_index(w - 1, m)
            cols = []
            for mono in self.source.monomials[w][m]:
                head = mono[:-1]
                last = mono[-1]
                vec = self.target.multiply_elements(
                    (w - 1) * s, prev.cols[prev_index[head]], s, gen.cols[last], m
                )
                cols.append(vec)
            out = Mat(
                F,
                self.target.components[w * s].level_dims[m],
                self.source.components[w].level_dims[m],
                cols,
            )
        self._weight_maps[key] = out
        return out

    def rebuilt(self, source_W=None, target_W=None, T=None):
        """Same map on algebras rebuilt with enlarged truncations; self when
        none of them grows."""
        n, weight, cycles = self.recipe
        source_W = source_W if source_W is not None else self.source.W
        target_W = target_W if target_W is not None else self.target.W
        T = T if T is not None else self.source.T
        if (source_W, target_W, T) == (self.source.W, self.target.W, self.source.T):
            return self
        target = sphere_algebra(
            self.target.field, self.target.q, self.target.n, T, target_W
        )
        return representing_map(target, n, weight, cycles, source_W=source_W)

    def __repr__(self):
        return "AlgebraMap(S(%d gen, deg %d) -> S(%d gen, deg %d), ratio %d)" % (
            self.source.q, self.source.n, self.target.q, self.target.n,
            self.weight_ratio,
        )


def _moore_representative(component, n, class_vec):
    """Lift a normalized degree-n class to a level-n vector with every face
    zero, inside one weight component.

    Returns the representative; raises CycleError if the input is not a
    cycle or the lift fails.
    """
    F = component.field
    dim_n = component.level_dims[n]
    if n == 0:
        moore = Mat.identity(F, dim_n)
    else:
        stacked = component.faces[n][0]
        for i in range(1, n):
            stacked = stacked.vstack(component.faces[n][i])
        moore = kernel_basis(stacked)
    ncx = component.normalized_chains()
    # coordinates of the Moore columns in the normalized quotient
    proj_cols = [ncx.project(n, dict(col)) for col in moore.cols]
    proj = Mat(F, ncx.dims[n], moore.ncols, proj_cols)
    coeffs = solve(proj, dict(class_vec))
    if coeffs is None:
        raise CycleError("class does not lift to the Moore complex")
    rep = moore.apply(coeffs)
    # the lift must be an honest cycle: the last face has to vanish too
    if n >= 1 and component.faces[n][n].apply(rep):
        raise CycleError("input is not a cycle: the boundary is nonzero")
    if ncx.differential(n).apply(dict(class_vec)):
        raise CycleError("input is not a cycle in the normalized chains")
    return rep


def representing_map(target, n, weight, class_vec, source_W=1):
    """Algebra map from the sphere on degree-n generators into target,
    sending each generator to a given normalized class.

    class_vec is one sparse vector over the degree-n normalized chains of
    the target's weight component, or a list of them (one per generator);
    the empty vector gives a generator that factors through the
    augmentation.  The induced map on degree-n homotopy is computed and
    verified to hit the requested classes.
    """
    field = target.field
    cycles = (list(class_vec) if isinstance(class_vec, (list, tuple))
              else [class_vec])
    source_q = len(cycles)
    if weight < 1 or weight > target.W:
        raise ValueError("class weight %d outside the target truncation" % weight)
    if n > target.T:
        raise ValueError("class degree above the target truncation")
    source = sphere_algebra(field, source_q, n, target.T, source_W)
    K = source.base
    component = target.components[weight]
    reps = [
        _moore_representative(component, n, c) if c else {} for c in cycles
    ]
    level_maps = []
    for m in range(target.T + 1):
        cols = []
        for sigma, k, e in K.basis_labels[m]:
            # K(V, n) basis elements are indexed by surjections [m] ->> [n]
            # together with a generator color e
            cols.append(
                _apply_surjection(target.components, weight, sigma, n, reps[e])
            )
        level_maps.append(
            Mat(field, component.level_dims[m], K.level_dims[m], cols)
        )
    out = AlgebraMap(source, target, weight, level_maps,
                     recipe=(n, weight, [dict(c) for c in cycles]))
    if any(cycles):
        src_ncx = K.normalized_chains()
        dst_ncx = component.normalized_chains()
        chain = src_ncx.induced_map(dst_ncx, level_maps)
        from .symalg import induced_homology_matrices

        induced = induced_homology_matrices(src_ncx, dst_ncx, chain, n)[n]
        _, coords = dst_ncx.homology_reps(n)
        want_cols = [coords(dict(c)) if c else {} for c in cycles]
        if induced.cols != want_cols:
            raise CycleError("map does not induce the requested classes")
    return out


def identity_map(algebra, source_W=None):
    """The identity-class map: each generator to its own homotopy class."""
    n = algebra.n
    cycles = [{i: 1} for i in range(algebra.q)]
    return representing_map(algebra, n, 1, cycles,
                            source_W=algebra.W if source_W is None else source_W)


def zero_map(algebra, n, source_W=1):
    """The map factoring through the augmentation (generator to 0)."""
    return representing_map(algebra, n, 1, {}, source_W=source_W)


# --------------------------------------------------------------------------
# the bar diagonal


def _bar_levels(f, N, T, W):
    """Basis and per-tuple structure maps of bar_diagonal(f, N, T, W).

    Returns (bases, face, degeneracy): bases[m] lists the level-m tuples
    in sorted order, and face(m, i, k) and degeneracy(m, i, k) are the
    images of bases[m][k] under d_i and s_i (which inserts a unit slot) as
    canonical sparse columns over bases[m - 1] and bases[m + 1].
    """
    A, B = f.source, f.target
    p = f.field.characteristic
    s = f.weight_ratio
    if A.field != B.field:
        raise FieldError("mismatched fields")
    if T > A.T or T > B.T:
        raise ValueError("algebras truncated below the requested level")
    max_a_weight = min(A.W, W // s)
    if A.W < W // s:
        raise ValueError("source algebra truncated below weight %d" % (W // s))
    if B.W < W:
        raise ValueError("target algebra truncated below weight %d" % W)
    if N < 0 or W < 0 or T < 0:
        raise ValueError("bounds must be nonnegative")
    a_components = A.components[: max_a_weight + 1]
    b_components = B.components[: min(B.W, W) + 1]

    # codes: per level, the graded monomial basis of each algebra
    def build_codes(components):
        per_level = []
        for m in range(T + 1):
            lv = []
            for d, comp in enumerate(components):
                for i in range(comp.level_dims[m]):
                    lv.append((d, i))
            per_level.append(lv)
        return per_level

    acodes = build_codes(a_components)
    bcodes = build_codes(b_components)
    acode_index = [{c: k for k, c in enumerate(lv)} for lv in acodes]
    bcode_index = [{c: k for k, c in enumerate(lv)} for lv in bcodes]

    bases = []
    index = []
    for m in range(T + 1):
        nonunit = [k for k, (d, _) in enumerate(acodes[m]) if d > 0]
        unit = acode_index[m][(0, 0)]
        basis = []
        kmax = min(N, m, W // s) if s else min(N, m)
        for k in range(kmax + 1):
            for positions in combinations(range(m), k):
                for choice in product(nonunit, repeat=k):
                    wa = sum(acodes[m][c][0] for c in choice)
                    if s * wa > W:
                        continue
                    slots = [unit] * m
                    for pos, c in zip(positions, choice):
                        slots[pos] = c
                    for kb, (db, _) in enumerate(bcodes[m]):
                        if s * wa + db <= W:
                            basis.append((tuple(slots), kb))
        basis.sort()
        bases.append(basis)
        index.append({b: i for i, b in enumerate(basis)})

    def levelwise(m, lvl, kind, i, slots, kb):
        """Image of (slots, b) at level lvl under the levelwise structure
        map s_i or d_i (kind "degens" or "faces") of every slot and of b,
        multiplied out into (slots, kb, coeff) terms."""
        terms = [((), 1)]
        for c in slots:
            d, j = acodes[m][c]
            img = getattr(a_components[d], kind)[m][i].cols[j]
            terms = [(prefix + (acode_index[lvl][(d, j2)],), coeff * v)
                     for prefix, coeff in terms for j2, v in img.items()]
            if not terms:
                return terms
        db, jb = bcodes[m][kb]
        img = getattr(b_components[db], kind)[m][i].cols[jb]
        return [(prefix, bcode_index[lvl][(db, j2)], coeff * v)
                for prefix, coeff in terms for j2, v in img.items()]

    def emit(acc, lvl, slots, kb, coeff, may_truncate=True):
        """acc += coeff * (slots, kb) at level lvl.  Faces may leave the
        window (the term is truncated away); degeneracies never do."""
        key = index[lvl].get((slots, kb))
        if key is not None:
            acc[key] = acc.get(key, 0) + coeff
            return
        if not may_truncate:
            raise AssertionError("degeneracy left the window")
        db, _ = bcodes[lvl][kb]
        wa = sum(acodes[lvl][c][0] for c in slots)
        nonunit = sum(1 for c in slots if acodes[lvl][c][0] > 0)
        if s * wa + db <= W and nonunit <= N:
            raise AssertionError("missing basis tuple inside the window")

    def bar_face(acc, i, lvl, slots, kb, coeff):
        """Apply bar face i to (slots, b) at the target level and add."""
        if i == 0:
            if acodes[lvl][slots[0]][0] == 0:
                emit(acc, lvl, slots[1:], kb, coeff)
        elif i < len(slots):
            d1, i1 = acodes[lvl][slots[i - 1]]
            d2, i2 = acodes[lvl][slots[i]]
            prod = A.multiply_elements(d1, {i1: 1}, d2, {i2: 1}, lvl)
            for j, v in prod.items():
                new_slots = (slots[: i - 1] + (acode_index[lvl][(d1 + d2, j)],)
                             + slots[i + 1:])
                emit(acc, lvl, new_slots, kb, coeff * v)
        else:
            # i == len(slots): push the last slot through f and into b
            dlast, ilast = acodes[lvl][slots[-1]]
            wmap = f.weight_map(dlast, lvl)
            if wmap is None:
                return
            db, ib = bcodes[lvl][kb]
            prod = B.multiply_elements(dlast * s, wmap.cols[ilast], db, {ib: 1}, lvl)
            for j, v in prod.items():
                emit(acc, lvl, slots[:-1], bcode_index[lvl][(dlast * s + db, j)],
                     coeff * v)

    def face(m, i, k):
        acc = {}
        for slots, kb, coeff in levelwise(m, m - 1, "faces", i, *bases[m][k]):
            bar_face(acc, i, m - 1, slots, kb, coeff)
        return canonical(acc, p)

    def degeneracy(m, i, k):
        unit_up = (acode_index[m + 1][(0, 0)],)
        acc = {}
        for slots, kb, coeff in levelwise(m, m + 1, "degens", i, *bases[m][k]):
            emit(acc, m + 1, slots[:i] + unit_up + slots[i:], kb, coeff,
                 may_truncate=False)
        return canonical(acc, p)

    return bases, face, degeneracy


class BarDiagonal(SimplicialVectorSpace):
    """The simplicial vector space that bar_diagonal returns.

    Its normalized chains are built at construction, directly on the
    nondegenerate tuples.  Every degeneracy sends a basis tuple to a single
    basis tuple, so the degenerate subspace D_m is spanned by the tuples
    that some s_i hits, and N_m = C_m / D_m (Dold-Kan) has the other tuples
    as basis, in basis order.  The differential sum (-1)^i d_i is computed
    on those columns only, with the degenerate coordinates dropped; the
    result equals the generic SimplicialVectorSpace.normalized_chains
    matrix for matrix, as a plain ChainComplex without quotient maps.

    Checked at construction: each degeneracy image is one basis tuple with
    coefficient 1 inside the window (AssertionError otherwise); no face
    term inside the window is missing from the basis; d_i d_j = d_{j-1} d_i
    on every nondegenerate column (SimplicialError); and d o d = 0 in
    ChainComplex.  The face and degeneracy matrices of the whole object
    are built, and every simplicial identity checked, on first use of
    faces or degens.
    """

    def __init__(self, f, N, T, W):
        # SimplicialVectorSpace.__init__ takes built matrices and checks
        # them; here that waits for the first use of faces or degens
        self.field = f.field
        self.T = T
        self.basis_labels = None
        self._bases, self._face, self._degeneracy = _bar_levels(f, N, T, W)
        self.level_dims = [len(b) for b in self._bases]
        self._matrices = None
        self._chains = self._build_chains()

    @property
    def faces(self):
        return self._structure()[0]

    @property
    def degens(self):
        return self._structure()[1]

    def _structure(self):
        if self._matrices is None:
            field, dims, T = self.field, self.level_dims, self.T
            face, degeneracy = self._face, self._degeneracy
            faces = [[]]
            for m in range(1, T + 1):
                faces.append([Mat(field, dims[m - 1], dims[m],
                                  [face(m, i, k) for k in range(dims[m])])
                              for i in range(m + 1)])
            degens = []
            for m in range(T):
                degens.append([Mat(field, dims[m + 1], dims[m],
                                   [degeneracy(m, i, k) for k in range(dims[m])])
                               for i in range(m + 1)])
            degens.append([])
            self._matrices = (faces, degens)
            try:
                self._check_shapes()
                self.check_identities()
            except Exception:
                self._matrices = None
                raise
        return self._matrices

    def normalized_chains(self):
        return self._chains

    def _build_chains(self):
        field, T = self.field, self.T
        p = field.characteristic
        bases, face, degeneracy = self._bases, self._face, self._degeneracy
        keep = []  # per level: basis position of a nondegenerate tuple -> its column
        for m in range(T + 1):
            degenerate = set()
            for k in range(len(bases[m - 1]) if m else 0):
                for i in range(m):
                    image = degeneracy(m - 1, i, k)
                    if list(image.values()) != [1]:
                        raise AssertionError(
                            "degeneracy image is not a single basis tuple"
                        )
                    degenerate.update(image)
            nondegenerate = [k for k in range(len(bases[m])) if k not in degenerate]
            keep.append({k: c for c, k in enumerate(nondegenerate)})
        dims = [len(kp) for kp in keep]

        memo = [{} for _ in range(T + 1)]  # per level: (i, k) -> d_i of tuple k

        def face_of(m, i, vec):
            out = {}
            for k, v in vec.items():
                col = memo[m].get((i, k))
                if col is None:
                    col = memo[m][(i, k)] = face(m, i, k)
                axpy(out, v, col, p)
            return out

        diffs = [Mat.zero(field, 0, dims[0])]
        for m in range(1, T + 1):
            # d_i d_j = d_{j-1} d_i for i < j; level 0 has no faces
            pairs = [(i, j) for j in range(m + 1) for i in range(j)] if m > 1 else []
            cols = []
            for k in keep[m]:
                images = [face_of(m, i, {k: 1}) for i in range(m + 1)]
                for i, j in pairs:
                    if (face_of(m - 1, i, images[j])
                            != face_of(m - 1, j - 1, images[i])):
                        raise SimplicialError(
                            "d_%d d_%d identity fails at level %d" % (i, j, m)
                        )
                bd = {}
                for i, col in enumerate(images):
                    axpy(bd, (-1) ** i, col, p)
                cols.append({keep[m - 1][r]: v for r, v in bd.items()
                             if r in keep[m - 1]})
            diffs.append(Mat(field, dims[m - 1], dims[m], cols))
            memo[m - 1] = None  # level m + 1 reads faces of level m only
        return ChainComplex(field, dims, diffs)


def bar_diagonal(f, N, T, W):
    """Diagonal of the two-sided bar object of ground <- source -> target,
    truncated at bar degree N, level T, induced weight W.

    Level m is spanned by tuples (a_1, ..., a_m, b) of weight-graded
    monomials with at most N non-unit a-slots and induced weight at most W;
    faces multiply adjacent slots, drop a unit first slot, or push the last
    slot through the map into b.  Returns a BarDiagonal, a
    SimplicialVectorSpace whose homotopy approximates the cofiber homotopy
    from below; its normalized chains are built directly, and its face and
    degeneracy matrices only when asked for.
    """
    return BarDiagonal(f, N, T, W)


# --------------------------------------------------------------------------
# cofiber reports


class CofiberReport:
    """Homotopy table of a bar cofiber with per-degree certification, plus
    the closed-form homology table where one is available."""

    def __init__(self, r, s, bounds, pi_dims, pi_flags, hq_dims,
                 certified_degree, notes=()):
        self.r = r
        self.s = s
        self.bounds = dict(bounds)
        self.pi_dims = list(pi_dims)
        self.pi_flags = list(pi_flags)
        self.hq_dims = hq_dims
        self.certified_degree = certified_degree
        self.notes = list(notes)

    def to_json_dict(self):
        return {
            "r": self.r,
            "s": self.s,
            "bounds": self.bounds,
            "pi": list(self.pi_dims),
            "pi_certified_flags": [bool(b) for b in self.pi_flags],
            "hq": {str(k): v for k, v in sorted(self.hq_dims.data.items())},
            "certified_degree": self.certified_degree,
            "notes": list(self.notes),
        }


def cofiber_homotopy(f, N, T, W):
    """Homotopy dims of the bar diagonal with per-degree stability flags,
    from its normalized chains (no face or degeneracy matrix is built).

    Runs the construction at (N, W) and (N+1, W+1); a degree is flagged
    when both runs agree at and below it inside the certified range.
    """
    base = bar_diagonal(f, N, T, W).homotopy_dims()
    big_f = f.rebuilt(
        source_W=max(f.source.W, (W + 1) // f.weight_ratio if f.weight_ratio else 1, 1),
        target_W=max(f.target.W, W + 1),
    )
    check = bar_diagonal(big_f, N + 1, T, W + 1).homotopy_dims()
    certified = min(base.certified_degree, check.certified_degree)
    flags = []
    for m in range(T + 1):
        ok = m <= certified and all(base[j] == check[j] for j in range(m + 1))
        flags.append(bool(ok))
    return base, flags, certified


def power_cofiber_closed_form(r, s, upto):
    """Closed-form tables of the rational cofiber of the s-th power of the
    degree-2r generator: homotopy dims 0..upto (1 at degrees 2ri for
    0 <= i < s, else 0) and the homology GradedDims (1 at 2r and at 2rs+1).
    """
    pi = [1 if m % (2 * r) == 0 and m // (2 * r) < s else 0
          for m in range(upto + 1)]
    return pi, GradedDims({2 * r: 1, 2 * r * s + 1: 1})


def power_map(r, s, T, W):
    """The rational map S(degree 2rs) -> S(degree 2r) sending the generator
    to the s-th power of the generator, at level bound T; the target is
    truncated at weight W + 1 and the source at (W + 1) // s, so that
    cofiber_homotopy(f, N, T, W) needs no rebuild."""
    target = sphere_algebra(QQ, 1, 2 * r, T, W + 1)
    if s == 1:
        class_vec = {0: 1}
    else:
        reps, _ = target.components[s].normalized_chains().homology_reps(
            2 * r * s)
        if reps.ncols != 1:
            raise AssertionError("power class is not one-dimensional")
        class_vec = dict(reps.cols[0])
    return representing_map(target, 2 * r * s, s, class_vec,
                            source_W=max(1, (W + 1) // s))


def power_cofiber_tables(r, s, T=None, W=None, N=None):
    """Cofiber of the map representing the s-th power of the degree-2r
    polynomial generator, rationally: computed homotopy against the closed
    form 1 at degrees 2ri (0 <= i < s), homology reported as 1 at 2r and
    at 2rs+1.

    A disagreement inside the certified range raises TableMismatch.  For
    s = 1 the closed forms of the two tables disagree with each other (the
    cofiber of an equivalence is trivial, yet the generic-homology table
    puts classes at 2r and 2r+1); the homotopy table is authoritative here
    and the homology entries carry a note.
    """
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    if T is None:
        T = 2 * r * s + 2
    if W is None:
        W = max(s, math.ceil((T - 1) / (2 * r)))
    if N is None:
        N = W
    nB = 2 * r
    nA = 2 * r * s
    if T < nA:
        raise ValueError("level bound below the source generator degree")
    if W + 1 < s:
        raise ValueError("W must be at least s - 1: the s-th power has "
                         "weight s and the target stops at W + 1")
    f = power_map(r, s, T, W)
    pi, flags, certified = cofiber_homotopy(f, N, T, W)
    notes = []
    expected, hq = power_cofiber_closed_form(r, s, T)
    for m in range(certified + 1):
        if flags[m] and pi[m] != expected[m]:
            raise TableMismatch(
                "pi_%d of the (r=%d, s=%d) cofiber is %d, table says %d"
                % (m, r, s, pi[m], expected[m])
            )
    if s == 1:
        notes.append(
            "s=1: homotopy is that of the ground field; the generic homology "
            "table (classes at %d and %d) does not apply to the trivial "
            "cofiber and is reported verbatim" % (nB, nA + 1)
        )
    if nA + 1 > certified:
        notes.append(
            "homology class at degree %d lies beyond the certified range "
            "and is reported from the closed form" % (nA + 1)
        )
    return CofiberReport(
        r, s,
        {"N": N, "T": T, "W": W},
        [pi[m] for m in range(T + 1)],
        flags,
        hq,
        certified,
        notes,
    )


# --------------------------------------------------------------------------
# long-exact-sequence feasibility


class LesVerdict:
    def __init__(self, feasible, ranks, violation):
        self.feasible = feasible
        self.ranks = ranks
        self.violation = violation

    def __bool__(self):
        return self.feasible

    def __repr__(self):
        if self.feasible:
            return "LesVerdict(feasible)"
        return "LesVerdict(infeasible at %s)" % (self.violation,)


def les_feasibility(hqA, hqB, hqC):
    """Can an exact sequence ... -> C_{s+1} -> A_s -> B_s -> C_s -> ... have
    these dimensions?

    Exactness forces rank_in + rank_out = dim at every node, so the ranks
    propagate uniquely from the top; the dimensions are feasible exactly
    when the propagation stays nonnegative and closes at zero.
    """
    tops = [g.top() for g in (hqA, hqB, hqC) if g.top() is not None]
    if not tops:
        return LesVerdict(True, {}, None)
    top = max(tops)
    ranks = {}
    r = 0
    for deg in range(top, -1, -1):
        for name, g in (("A", hqA), ("B", hqB), ("C", hqC)):
            d = g[deg]
            out = d - r
            if out < 0:
                return LesVerdict(False, ranks, (name, deg))
            ranks[(name, deg)] = out
            r = out
    if r != 0:
        return LesVerdict(False, ranks, ("end", -1))
    return LesVerdict(True, ranks, None)

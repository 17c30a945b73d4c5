"""Maps of sphere algebras, the two-sided bar construction, and homotopy
cofibers.

A map out of a sphere algebra is fixed by where the generators go: a class
is handed over as a cycle in the normalized chains of the target and
lifted, with no elimination, to its Moore representative, the one vector
of its class with d_0, ..., d_{n-1} zero: (1 - s_i d_i) is applied for
i = 0, 1, ..., n - 1 in turn.  Each higher level of K(V, n) is spanned by
single degeneracies of the level below, so the lifts spread up one s_i at
a time.  The homotopy pushout of
ground-field <- A -> B is realized by the diagonal of the two-sided bar
object with k-th layer A^(x k) (x) B; truncation is by bar degree, by
simplicial level, and by the induced weight s * (A-weights) + B-weight,
where s is the weight of the generator images.  All three truncations are
closed under the structure maps, so the result is an honest simplicial
vector space.  Faces and degeneracies keep the induced weight, so the
bar splits into weight blocks, and its homotopy is certified per degree
by the first degree of the blocks the truncation drops
(cofiber_homotopy), with no second bar built.

The bar diagonal's tuples are enumerated inside the weight window only:
the b codes are ordered by weight, so each choice of a-slots takes the
prefix of them that fits its remaining weight.  By Eilenberg-Zilber its
normalized chains live on the nondegenerate tuples, and those are all the
bar keeps: the components' s_i send basis vectors to basis vectors, so
whether a tuple is s_i of one a level down is read off its slots'
bitmasks, with no image computed (_bar_levels).  The bar hands
NormalizedChains, the one Dold-Kan quotient, its nondegenerate tuples, the
boundary of one tuple and that mask test.  A face is computed from the
tuple itself: it looks up each slot's row under the components' d_i and
multiplies or pushes the looked-up slots, a unit slot multiplying as the
identity with no product computed.  No face or degeneracy matrix of the
whole object is built; the tests build it from their own rules and
compare the normalized complexes.

A map grows with its algebras: extending source and target by weight
keeps the component that holds the generator images, so AlgebraMap.rebuilt
reuses the level maps, and weight_map extends them to monomials by the
same rule that builds the symmetric powers.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations

from .exactfield import (
    QQ,
    FieldError,
    Mat,
    axpy,
    canonical,
)
from .simplicial import (
    GradedDims,
    NormalizedChains,
    SimplicialError,
    _composites_agree,
    _operator_slots,
)
from . import symalg
from .symalg import _first_degree, _monomial_count, _sym_map, sphere_algebra


class BoundsError(ValueError):
    """Bounds that admit no power cofiber table, or whose table or bar
    would exceed symalg.ENUM_BUDGET: bad input, not a fault."""


class CycleError(ValueError):
    """The supplied vector is not a usable cycle for a representing map."""


class TableMismatch(AssertionError):
    """Computed cofiber homotopy disagrees with the closed-form table in a
    certified degree; an implementation bug, not a truncation artifact."""


# --------------------------------------------------------------------------
# algebra maps


class AlgebraMap:
    """Multiplicative map between sphere algebras, fixed on generators.

    level_maps[m] is the matrix K(V, n)_m -> Sym^s(K_target)_m; the images
    are homogeneous of one target weight s (the weight ratio), which is
    what makes the induced-weight truncation of the bar object sound.  The
    constructor checks that they commute with faces and degeneracies;
    weight_map extends them to monomials.
    """

    def __init__(self, source, target, weight_ratio, level_maps):
        self.source = source
        self.target = target
        self.weight_ratio = weight_ratio
        self.level_maps = level_maps
        self._weight_maps = {}
        self.check_simplicial()

    @property
    def field(self):
        return self.source.field

    def check_simplicial(self):
        """Generator images commute with faces and degeneracies."""
        K = self.source.base
        s = self.weight_ratio
        if type(s) is not int or s < 1:
            raise ValueError("weight ratio %r is not a positive int" % (s,))
        if s > self.target.W:
            raise ValueError("target truncated below the image weight")
        tgt = self.target.components[s]
        top = min(K.T, tgt.T)
        if len(self.level_maps) < top + 1:
            raise SimplicialError("level map list length %d, need %d"
                                  % (len(self.level_maps), top + 1))
        for m, f in enumerate(self.level_maps[:top + 1]):
            if not f.field == K.field == tgt.field:
                raise FieldError("level map field mismatch at level %d" % m)
            if (f.nrows, f.ncols) != (tgt.level_dims[m], K.level_dims[m]):
                raise SimplicialError("level map shape at level %d" % m)
        for m, i, to in _operator_slots(top):
            if not _composites_agree(tgt.operator(m, i, to), self.level_maps[m],
                                     self.level_maps[to], K.operator(m, i, to)):
                raise SimplicialError(
                    "generator images do not commute with %s_%d at level %d"
                    % ("d" if to < m else "s", i, m)
                )

    def weight_map(self, w, m):
        """Sym^w(K_source)_m -> Sym^{w s}(K_target)_m, multiplicatively.

        Each generator goes to its level-map column, read as a sum of
        target monomials, and a monomial to the product of its generators'
        images (symalg._sym_map); weight 0 gives the 1x1 identity and
        weight 1 the level map.  Returns None when the target weight
        exceeds the target truncation (the product is truncated away).
        """
        s = self.weight_ratio
        if w * s > self.target.W:
            return None
        key = (w, m)
        cached = self._weight_maps.get(key)
        if cached is None:
            names = self.target.monomials[s][m]
            images = [{names[j]: v for j, v in col.items()}
                      for col in self.level_maps[m].cols]
            cols = _sym_map(images, self.source.monomials[w][m],
                            self.target.monomial_index(w * s, m),
                            self.field.characteristic)
            cached = self._weight_maps[key] = Mat(
                self.field, self.target.components[w * s].level_dims[m],
                self.source.components[w].level_dims[m], cols)
        return cached

    def rebuilt(self, source_W=None, target_W=None):
        """The same map between the algebras extended to weights source_W
        and target_W (default: unchanged); self when neither grows.

        The level maps land in weight s of the target, which extension
        keeps, so nothing of the map is recomputed; the constructor checks
        them against the extended algebras again.
        """
        source = self.source.extended(
            self.source.W if source_W is None else source_W)
        target = self.target.extended(
            self.target.W if target_W is None else target_W)
        if source is self.source and target is self.target:
            return self
        return AlgebraMap(source, target, self.weight_ratio, self.level_maps)

    def __repr__(self):
        return "AlgebraMap(S(%d gen, deg %d) -> S(%d gen, deg %d), ratio %d)" % (
            self.source.q, self.source.n, self.target.q, self.target.n,
            self.weight_ratio,
        )


def _moore_lift(component, ncx, n, class_vec):
    """The level-n vector with d_0, ..., d_{n-1} zero whose class in the
    normalized chains ncx of component is class_vec.

    Those vectors, the Moore subspace, map isomorphically onto N_n, so
    the lift is unique.  It is the class's vector on the normalized basis
    rows with (1 - s_i d_i) applied for i = 0, 1, ..., n - 1 in turn:
    step i makes d_i zero, keeps d_j zero for j < i (d_j s_i d_i =
    s_{i-1} d_{i-1} d_j) and adds a degenerate vector only.  Both
    properties are checked (AssertionError).  Raises CycleError for an
    index outside the normalized basis or a class that is not a cycle.
    """
    for k in class_vec:
        if type(k) is not int or not 0 <= k < ncx.dims[n]:
            raise CycleError("class index %r outside the %d-dimensional "
                             "degree-%d normalized chains" % (k, ncx.dims[n], n))
    p = component.field.characteristic
    want = canonical(class_vec, p)
    lift = ncx.include(n, want)
    for i in range(n):
        face = component.operator(n, i, n - 1).apply(lift)
        axpy(lift, -1, component.operator(n - 1, i, n).apply(face), p)
    if (any(component.operator(n, i, n - 1).apply(lift) for i in range(n))
            or ncx.project(n, lift) != want):
        raise AssertionError("lift is not the Moore representative of its class")
    if n >= 1 and component.operator(n, n, n - 1).apply(lift):
        raise CycleError("input is not a cycle: the boundary is nonzero")
    if ncx.differential(n).apply(want):
        raise CycleError("input is not a cycle in the normalized chains")
    return lift


def _spread(K, component, n, lifts):
    """Level maps K(V, n)_m -> component_m sending generator e to lifts[e].

    K has no basis vector below level n and one per generator at level n,
    so level n's columns are the lifts.  Above n every basis vector j of K
    is s_i of one a level down, read off the row map of K's s_i, and its
    column is the component's s_i applied to that one's column.
    """
    F = component.field
    maps = [Mat.zero(F, component.level_dims[m], 0) for m in range(n)]
    maps.append(Mat(F, component.level_dims[n], len(lifts), lifts))
    for m in range(n + 1, K.T + 1):
        cols = [None] * K.level_dims[m]
        for i in range(m):
            s_i = component.operator(m - 1, i, m)
            rows = K.operator(m - 1, i, m).unit_rows()
            for j, col in zip(rows, maps[m - 1].cols):
                if cols[j] is None:
                    cols[j] = s_i.apply(col)
        maps.append(Mat(F, component.level_dims[m], K.level_dims[m], cols))
    return maps


def representing_map(target, n, weight, class_vec, source_W=1):
    """Algebra map from the sphere on degree-n generators into target,
    sending each generator to a given normalized class.

    class_vec is one sparse vector over the degree-n normalized chains of
    the target's weight component, or a list of them (one per generator);
    the empty vector gives a generator that factors through the
    augmentation.  Each class is lifted to its Moore representative
    (_moore_lift) and spread over the higher levels by degeneracies
    (_spread); no elimination is run.  The lift projects to the requested
    class, and K(V, n) has no normalized chains next to degree n, so the
    map induces exactly the requested classes on degree-n homotopy.
    """
    field = target.field
    cycles = (list(class_vec) if isinstance(class_vec, (list, tuple))
              else [class_vec])
    if weight < 1 or weight > target.W:
        raise ValueError("class weight %d outside the target truncation" % weight)
    if n > target.T:
        raise ValueError("class degree above the target truncation")
    source = sphere_algebra(field, len(cycles), n, target.T, source_W)
    component = target.components[weight]
    ncx = component.normalized_chains() if any(cycles) else None
    lifts = [_moore_lift(component, ncx, n, c) if c else {} for c in cycles]
    return AlgebraMap(source, target, weight,
                      _spread(source.base, component, n, lifts))


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
    """Nondegenerate tuples, level dims and per-tuple rules of
    bar_diagonal(f, N, T, W).

    Returns (bases, level_dims, face, degenerate): bases[m] lists the
    level-m tuples (slots, b) that no s_i hits, in sorted order;
    level_dims[m] counts every tuple in the window; face(m, i, t) is d_i
    of a level-m tuple t of the window, degenerate or not, as a canonical
    sparse column keyed by level-(m - 1) tuples; and degenerate(m, t)
    says whether a level-m tuple is s_i of a tuple one level down.  Each
    a-slot and b is a (weight, index) pair naming a monomial of the source
    or target; the unit is (0, 0).

    Faces and the slot masks read each component's d_i or s_i at level m
    once, as its row map (Mat.unit_rows); AssertionError unless every
    column is one entry 1, or empty for a face.  A face sends every slot
    and b to its row, then multiplies or pushes the mapped slots as the
    bar face does, with a unit slot dropped instead of multiplied.
    Neither changes a tuple's weight or adds a non-unit slot, so every
    term lies in the window; a term that is neither in bases nor
    degenerate raises AssertionError.

    Bit i of a slot's or b's mask says it is s_i of an element one level
    down (always, for the unit), and a tuple is s_i of a tuple one level
    down, which has its weight and non-unit count and so lies in the
    window, exactly when bit i is set in its unit-slot positions and in
    every slot's and b's mask: degenerate reads that off one tuple, and
    the enumeration of the window carries it along the slot choices.  The
    component s_i are injective, so unless some s_i left the window
    (AssertionError), level m holds at least level_dims[m - 1] tuples with
    bit i set; the tuples are tallied by mask as they are enumerated, so
    that count costs no pass over them, and only the nondegenerate ones
    are kept.
    """
    A, B = f.source, f.target
    p = f.field.characteristic
    s = f.weight_ratio
    if A.field != B.field:
        raise FieldError("mismatched fields")
    if T > A.T or T > B.T:
        raise ValueError("algebras truncated below the requested level")
    if A.W < W // s:
        raise ValueError("source algebra truncated below weight %d" % (W // s))
    if B.W < W:
        raise ValueError("target algebra truncated below weight %d" % W)
    if N < 0 or W < 0 or T < 0:
        raise ValueError("bounds must be nonnegative")
    a_components = A.components[: W // s + 1]
    b_components = B.components[: W + 1]
    unit = (0, 0)
    row_maps = {}  # (m, i, to) -> row maps of the a- and b-components

    def read(m, i, to):
        """The row maps of the a- and b-components' d_i (to = m - 1) or
        s_i (to = m + 1) at level m, read and checked once."""
        maps = row_maps.get((m, i, to))
        if maps is None:
            maps = tuple([comp.operator(m, i, to).unit_rows()
                          for comp in components]
                         for components in (a_components, b_components))
            for rows in maps[0] + maps[1]:
                if None in rows or (to > m and -1 in rows):
                    raise AssertionError(
                        "face image is neither a single basis tuple nor zero"
                        if to < m else
                        "degeneracy image is not a single basis tuple")
            row_maps[(m, i, to)] = maps
        return maps

    bases = []
    level_dims = []
    masks = []  # per level: the a- and b-components' masks
    for m in range(T + 1):
        # bit i of an element's mask: it is s_i of an element one level down
        a_masks = [[0] * comp.level_dims[m] for comp in a_components]
        b_masks = [[0] * comp.level_dims[m] for comp in b_components]
        for i in range(m):
            a_rows, b_rows = read(m - 1, i, m)
            for bits, rows in zip(a_masks + b_masks, a_rows + b_rows):
                for r in rows:
                    bits[r] |= 1 << i
        masks.append((a_masks, b_masks))
        nonunit = [(d, i) for d in range(1, len(a_components))
                   for i in range(a_components[d].level_dims[m])]
        bcodes = [(d, i) for d, comp in enumerate(b_components)
                  for i in range(comp.level_dims[m])]
        b_bits = [bits for level in b_masks for bits in level]  # per b code
        # bcodes is ordered by weight: upto[w] of them have weight <= w
        upto = list(accumulate(comp.level_dims[m] for comp in b_components))
        basis = []
        count = 0
        tally = {}  # nonzero mask -> number of tuples with it
        every = (1 << m) - 1
        # the non-unit slot choices of each length k inside the window,
        # grown one slot at a time, with their a-weight and joint mask
        choices = [((), 0, every)]
        for k in range(min(N, m, W // s) + 1):
            if k:
                choices = [(choice + (c,), wa + c[0], bits & a_masks[c[0]][c[1]])
                           for choice, wa, bits in choices
                           for c in nonunit if s * (wa + c[0]) <= W]
            for positions in combinations(range(m), k):
                units = every - sum(1 << pos for pos in positions)
                for choice, wa, bits in choices:
                    slots = [unit] * m
                    for pos, c in zip(positions, choice):
                        slots[pos] = c
                    slots = tuple(slots)
                    bits &= units
                    fits = upto[W - s * wa]
                    count += fits
                    for b, b_bit in zip(bcodes[:fits], b_bits):
                        if mask := bits & b_bit:
                            tally[mask] = tally.get(mask, 0) + 1
                        else:
                            basis.append((slots, b))
        basis.sort()
        bases.append(basis)
        level_dims.append(count)
        for i in range(m):
            if (sum(n for bits, n in tally.items() if bits >> i & 1)
                    < level_dims[m - 1]):
                raise AssertionError("degeneracy left the window")
    kept = [set(basis) for basis in bases]

    def degenerate(m, t):
        """Whether the level-m tuple t is s_i of a tuple one level down for
        some i; False for a slot or b outside its component's basis."""
        a_masks, b_masks = masks[m]
        slots, (db, jb) = t
        try:
            bits = b_masks[db][jb]
            for pos, (d, j) in enumerate(slots):
                if d:
                    bits &= a_masks[d][j] & ~(1 << pos)
        except IndexError:
            return False
        return bits != 0

    def mapped(m, i, t):
        """t with every slot and b sent to its row under the components'
        d_i; None when one of them goes to zero."""
        a_rows, b_rows = read(m, i, m - 1)
        slots, (db, jb) = t
        rb = b_rows[db][jb]
        if rb == -1:
            return None
        image = []
        for d, j in slots:
            r = a_rows[d][j]
            if r == -1:
                return None
            image.append((d, r))
        return tuple(image), (db, rb)

    def bar_face(i, lvl, slots, b):
        """Bar face i of (slots, b), whose slots are already at the target
        level, as (slots, b, coeff) terms.  A unit slot multiplies as the
        identity, with no product computed: the other factor stays, with
        coefficient 1 (every slot weight is at most A.W, and every b
        weight at most B.W, so no product of a unit is truncated away)."""
        if i == 0:
            return [(slots[1:], b, 1)] if slots[0][0] == 0 else []
        if i < len(slots):
            (d1, i1), (d2, i2) = slots[i - 1], slots[i]
            if not d1 or not d2:  # drop the unit of the two
                cut = i - 1 if not d1 else i
                return [(slots[:cut] + slots[cut + 1:], b, 1)]
            prod = A.multiply_elements(d1, {i1: 1}, d2, {i2: 1}, lvl)
            return [(slots[: i - 1] + ((d1 + d2, j),) + slots[i + 1:], b, v)
                    for j, v in prod.items()]
        # i == len(slots): push the last slot through f and into b
        dlast, ilast = slots[-1]
        if not dlast:
            return [(slots[:-1], b, 1)]
        db, ib = b
        wmap = f.weight_map(dlast, lvl)
        prod = B.multiply_elements(dlast * s, wmap.cols[ilast], db, {ib: 1}, lvl)
        return [(slots[:-1], (dlast * s + db, j), v) for j, v in prod.items()]

    def face(m, i, t):
        image = mapped(m, i, t)
        if image is None:
            return {}
        acc = {}
        for slots, b, v in bar_face(i, m - 1, *image):
            key = (slots, b)
            if key not in kept[m - 1] and not degenerate(m - 1, key):
                raise AssertionError("missing basis tuple inside the window")
            acc[key] = acc.get(key, 0) + v
        return canonical(acc, p)

    return bases, level_dims, face, degenerate


class BarDiagonal:
    """The bar diagonal that bar_diagonal returns: level dims, normalized
    chains and homotopy.

    Its normalized chains, a NormalizedChains on the nondegenerate tuples
    of _bar_levels, are built at construction without any structure
    matrix or any store of the degenerate tuples.  The boundary sum
    (-1)^i d_i is computed on the nondegenerate tuples only and projected
    by dropping the degenerate terms, with no elimination.

    Checked at construction: every component face and degeneracy has one
    entry 1 in each column, or none for a face, every face term is a basis
    tuple or degenerate, and each level holds, for each s_i, at least as
    many tuples with bit i set as the level below holds tuples, so no
    degeneracy left the window (AssertionError otherwise); d_i d_j =
    d_{j-1} d_i on every nondegenerate tuple, reading the faces of the
    tuples its faces hit, degenerate ones included (SimplicialError); and
    d o d = 0 in ChainComplex.
    """

    def __init__(self, f, N, T, W):
        self.field = f.field
        self.N, self.T, self.W = N, T, W
        bases, self.level_dims, face, degenerate = _bar_levels(f, N, T, W)
        self._chains = self._build_chains(bases, face, degenerate)

    def normalized_chains(self):
        return self._chains

    def homotopy_dims(self):
        """Homology of the normalized chains; certified through T - 1."""
        return self._chains.homology_dims()

    def _build_chains(self, bases, face, degenerate):
        p = self.field.characteristic
        memo = [{} for _ in bases]  # per level: t -> the faces of tuple t

        def faces(m, t):
            """d_0, ..., d_m of the level-m tuple t, memoised; callers only
            read them."""
            out = memo[m].get(t)
            if out is None:
                out = memo[m][t] = [face(m, i, t) for i in range(m + 1)]
            return out

        def face_of(terms, i):
            """d_i of the vector whose (coeff, faces) pairs are terms; for
            one term with coefficient 1 the memoised column itself."""
            if len(terms) == 1 and terms[0][0] == 1:
                return terms[0][1][i]
            out = {}
            for v, columns in terms:
                axpy(out, v, columns[i], p)
            return out

        def boundary(m, t):
            if m >= 2:
                memo[m - 2] = None  # level m reads faces of levels m, m - 1 only
            images = faces(m, t)
            # d_i d_j = d_{j-1} d_i for i < j, every face of a term of d_j t
            # read once; level 0 has no faces
            terms = [[(v, faces(m - 1, u)) for u, v in col.items()]
                     for col in images] if m > 1 else ()
            for j in range(len(terms)):
                for i in range(j):
                    if face_of(terms[j], i) != face_of(terms[i], j - 1):
                        raise SimplicialError(
                            "d_%d d_%d identity fails at level %d" % (i, j, m)
                        )
            bd = {}
            for i, col in enumerate(images):
                axpy(bd, (-1) ** i, col, p)
            return bd

        return NormalizedChains(self.field, bases, boundary, degenerate)


def bar_diagonal(f, N, T, W):
    """Diagonal of the two-sided bar object of ground <- source -> target,
    truncated at bar degree N, level T, induced weight W.

    Level m is spanned by tuples (a_1, ..., a_m, b) of weight-graded
    monomials with at most N non-unit a-slots and induced weight at most W;
    faces multiply adjacent slots, drop a unit first slot, or push the last
    slot through the map into b.  Returns a BarDiagonal, whose homotopy
    approximates the cofiber homotopy from below.
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
    """Homotopy dims of the bar diagonal at (N, T, W), from its normalized
    chains (no face or degeneracy matrix is built); per-degree flags, True
    where they equal the untruncated bar's; and the last flagged degree.

    One bar is built, at (min(N, W // s), T, W), with f extended as far as
    it needs: a tuple of induced weight at most W has at most W // s
    non-unit slots.  Faces and degeneracies keep induced weight, so the
    untruncated bar is a direct sum of weight blocks, and the blocks of
    weight at most W are this bar when N >= W // s.  By Eilenberg-Zilber
    and Kunneth the skeletal filtration of a block has E^1 terms
    Sigma^k A-bar^(x k) (x) B; a term of A-weight D and B-weight e starts
    in degree [D > 0] (1 + first_A(D)) + first_B(e), first_* being
    symalg._first_degree.  So the blocks of weight above W start at the
    least of these with e = max(0, W + 1 - s D), and every lower degree
    is exact.  For N < W // s the bar is the N-skeleton, whose quotient
    has N + 1 slots or more, each of degree n_A or more: it is exact
    through (N + 1)(n_A + 1) - 2.  Degree T is never flagged.
    """
    s = f.weight_ratio
    f = f.rebuilt(source_W=max(f.source.W, W // s),
                  target_W=max(f.target.W, W))
    dims = bar_diagonal(f, min(N, W // s), T, W).homotopy_dims()
    p, nA, nB = f.field.characteristic, f.source.n, f.target.n
    dropped = min((1 + _first_degree(p, nA, D) if D else 0)
                  + _first_degree(p, nB, max(0, W + 1 - s * D))
                  for D in range(W // s + 2))
    certified = min(dims.certified_degree, dropped - 1)
    if N < W // s:
        certified = min(certified, (N + 1) * (nA + 1) - 2)
    return dims, [m <= certified for m in range(T + 1)], certified


def power_cofiber_closed_form(r, s, upto):
    """Closed-form tables of the rational cofiber of the s-th power of the
    degree-2r generator: homotopy dims 0..upto (1 at degrees 2ri for
    0 <= i < s, else 0) and the homology GradedDims (1 at 2r and at 2rs+1).
    BoundsError when the homotopy table would have more entries than
    symalg.ENUM_BUDGET.
    """
    budget = symalg.ENUM_BUDGET
    if upto + 1 > budget:
        raise BoundsError("a table through degree %d has %d entries, over the "
                         "budget of %d; lower T, r or s"
                         % (upto, upto + 1, budget))
    pi = [1 if m % (2 * r) == 0 and m // (2 * r) < s else 0
          for m in range(upto + 1)]
    return pi, GradedDims({2 * r: 1, 2 * r * s + 1: 1})


def power_map(r, s, T, W):
    """The rational map S(degree 2rs) -> S(degree 2r) sending the generator
    to the s-th power of the generator, at level bound T; the target is
    truncated at weight max(W, s) and the source at max(1, W // s), so
    that cofiber_homotopy(f, N, T, W) needs no rebuild.  The class is the
    one representative of H_2rs of weight s; for s = 1 that is {0: 1}."""
    target = sphere_algebra(QQ, 1, 2 * r, T, max(W, s))
    reps, _ = target.components[s].normalized_chains().homology_reps(2 * r * s)
    if reps.ncols != 1:
        raise AssertionError("power class is not one-dimensional")
    class_vec = dict(reps.cols[0])
    return representing_map(target, 2 * r * s, s, class_vec,
                            source_W=max(1, W // s))


def _bar_level_size(r, s, N, m, W, cap):
    """Number of level-m tuples of bar_diagonal(power_map(r, s, T, W), N,
    T, W), or None once the count passes cap.

    It is counted as _bar_levels enumerates the tuples: C(m, k) positions
    of k <= min(N, m, W // s) non-unit a-slots, the ordered choices of
    those slots by their total a-weight wa (a slot of weight d is one of
    the C(cA + d - 1, d) monomials on the cA = C(m, 2rs) source codes),
    and the C(cB + j, j) b monomials of weight at most j = W - s*wa on the
    cB = C(m, 2r) target codes.
    """
    cA, cB = math.comb(m, 2 * r * s), math.comb(m, 2 * r)
    top = W // s if cA else 0  # no level below 2rs has a non-unit slot
    one = [0] + [math.comb(cA + d - 1, d) for d in range(1, top + 1)]
    ways = [1] + [0] * top  # ordered choices of k slots, by a-weight
    size = math.comb(cB + W, W)  # k = 0: every slot is the unit
    for k in range(1, min(N, m, top) + 1):
        prev, ways = ways, [0] * (top + 1)
        for wa in range(k, top + 1):
            ways[wa] = sum(prev[wa - d] * one[d] for d in range(1, wa - k + 2))
            size += math.comb(m, k) * ways[wa] * math.comb(cB + W - s * wa, cB)
            if size > cap:
                return None
    return None if size > cap else size


def cofiber_bounds(r, s, T=None, W=None, N=None):
    """The bounds (T, W, N) of power_cofiber_tables, defaults filled in;
    BoundsError when the arguments admit no table, when the largest level
    power_map would build, Sym^max(W, s) of level T of K(Q, 2r), has more
    monomials than symalg.ENUM_BUDGET, or when a level of the bar diagonal
    that cofiber_homotopy builds, at (min(N, W // s), W), has more tuples
    than that budget.  Each count is cut off once it passes the budget, so
    this is quick for any r and s, and the message gives the monomial
    count only when it was reached."""
    if r < 1 or s < 1:
        raise BoundsError("need r >= 1 and s >= 1")
    if T is None:
        T = 2 * r * s + 2
    if W is None:
        W = max(s, -(-(T - 1) // (2 * r)))
    if N is None:
        N = W
    if T < 2 * r * s:
        raise BoundsError("level bound below the source generator degree")
    budget = symalg.ENUM_BUDGET
    monomials = _monomial_count(1, 2 * r, max(W, s), T, budget)
    if monomials is None or monomials > budget:
        raise BoundsError(
            "T = %d, W = %d need Sym^%d of level %d of K(Q, %d): %s the "
            "budget of %d; lower T or W"
            % (T, W, max(W, s), T, 2 * r,
               "more monomials than" if monomials is None
               else "%d monomials, over" % monomials, budget))
    for m in range(T + 1):
        if _bar_level_size(r, s, N, m, W, budget) is None:
            raise BoundsError(
                "T = %d, W = %d, N = %d need a bar diagonal with more tuples "
                "at level %d than the budget of %d; lower T, W or N"
                % (T, W, N, m, budget))
    return T, W, N


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
    T, W, N = cofiber_bounds(r, s, T, W, N)
    nB = 2 * r
    nA = 2 * r * s
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

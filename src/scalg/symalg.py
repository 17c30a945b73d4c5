"""Symmetric powers, sphere algebras, and sphere homotopy.

The free commutative algebra on a simplicial vector space splits by word
length (weight); weight d is the levelwise d-th symmetric power, taken in
the quotient (coinvariant) sense so that the same monomial bases work in
every characteristic.  Homotopy of a sphere algebra is computed one weight
at a time (_weight), up to the first weight certified below n, and summed;
a degree is only flagged weight-stable when recomputing with one more
weight adds nothing at or below it.

For powers of an Eilenberg-MacLane object a basis monomial is degenerate
exactly when the jump positions of its factors fail to cover all
positions of the level, so normalized complexes live on "covering"
monomials, which NormalizedChains takes as its basis keys, without the
full (often huge) unnormalized levels, from level n up to level d*n + 1
at most.  One generator goes by decalage, a theorem valid in every
characteristic: pi_i Sym^d K(F, n) is pi_{i-2d} Gamma^d K(F, n-2) for
n >= 2, and Sym^d K(F, 1) has Lambda^d(F) in degree d.  Gamma^d K(F, n-2) is built
on covering divided-power monomials, sharing the basis and the face
tables (read off jump masks by gamma's rule) of the Sym^d covering complex
(sym_power_covering_complex, the brute force kept as the tests'
reference); only the coefficient of a face that merges codes differs.
More generators are never built either: Sym(V + V') = Sym V (x) Sym V'
levelwise, so with Eilenberg-Zilber and Kunneth over a field the homotopy
of Sym^d K(F^q, n) is the weight-d part of the q-fold convolution of the
one-generator pieces.  Budgets bound the q-generator Sym^d covering
complex, which defines certification; it is counted, not built.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, groupby

from .exactfield import Mat, canonical
from .simplicial import (
    GradedDims,
    HomotopyDims,
    NormalizedChains,
    SimplicialError,
    SimplicialVectorSpace,
    constant_object,
    eilenberg_maclane,
    _act,
    _composites_agree,
    _jump_masks,
)


# Size budgets of the Sym^d covering complex: a level is out of budget
# when its candidate multisets would exceed ENUM_BUDGET or its covering
# basis would exceed DIM_BUDGET; degrees that need such a level are left
# uncertified.  Both are read at call time.  Outside the brute force
# (sym_power_covering_complex) the levels are counted, not built.
ENUM_BUDGET = 4_000_000
DIM_BUDGET = 20_000


# --------------------------------------------------------------------------
# generic symmetric powers


def _monomials(dim, d):
    """Sorted d-multisets over range(dim), in lexicographic order."""
    return list(combinations_with_replacement(range(dim), d))


def _mono_product(x, y):
    """Product of two {monomial: coeff} dicts; monomials multiply by sorted
    concatenation.  Coefficients are summed over the integers (or Q), not
    reduced, and may be zero."""
    out = {}
    for a, u in x.items():
        for b, v in y.items():
            key = tuple(sorted(a + b))
            out[key] = out.get(key, 0) + u * v
    return out


def _sym_map(images, src_monomials, dst_index, p):
    """Multiplicative extension of a linear map to d-th symmetric powers.

    images[i] is the image of generator i as {target monomial: coeff}; a
    source monomial goes to the product of its generators' images, read
    off in the target monomial basis dst_index.
    """
    cols = []
    for mono in src_monomials:
        acc = images[mono[0]] if mono else {(): 1}
        for i in mono[1:]:
            acc = _mono_product(acc, images[i])
        cols.append(canonical({dst_index[key]: v for key, v in acc.items()}, p))
    return cols


def _sym_rows(f, src_monomials, dst_index):
    """The row map (Mat.unit_rows) of _sym_map of a map f whose every
    column is empty or one entry 1, read off f's: a monomial goes to the
    sorted monomial of its generators' rows, or to zero (-1) when f kills
    one of them.  None when f has any other column, which leaves it to
    _sym_map."""
    rows = f.unit_rows()
    if None in rows:
        return None
    out = []
    for mono in src_monomials:
        image = [rows[a] for a in mono]
        out.append(-1 if -1 in image else dst_index[tuple(sorted(image))])
    return out


def _generator_images(f):
    """Columns of a linear map as images keyed by 1-tuple monomials."""
    return [{(j,): v for j, v in col.items()} for col in f.cols]


def symmetric_power(V, d):
    """Levelwise d-th symmetric power of a simplicial vector space.

    Level m has dimension C(dim V_m + d - 1, d); faces and degeneracies act
    multiplicatively on monomials.  d = 0 gives the constant object, d = 1
    gives V back (on the nose).

    Every structure map is _sym_map of V's (by _sym_rows where V's map
    sends each basis vector to a basis vector or to zero, as on K(V, n):
    the same matrix, read off V's row map without products), and
    _sym_map preserves composites and identities matrix for matrix (it
    computes maps of polynomial rings exactly, and reducing mod p is a
    ring map), so the simplicial identities of Sym^d V follow from V's
    and are not checked again; shapes are.  The tests check that functoriality and run
    check_identities on symmetric powers as the oracle.
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

    def operator(m, i, to):
        f = V.operator(m, i, to)
        rows = _sym_rows(f, monomials[m], indexes[to])
        if rows is None:
            return Mat(field, dims[to], dims[m],
                       _sym_map(_generator_images(f), monomials[m], indexes[to], p))
        return Mat.from_unit_rows(field, dims[to], rows)

    return SimplicialVectorSpace._functor_image(field, dims, operator, monomials)


# --------------------------------------------------------------------------
# fast normalized complexes for powers of K(V, n)


def _comb_upto(a, k, cap):
    """math.comb(a, k), or None when it is over cap and not yet reached.

    The product runs over j = min(k, a - k) factors: after i of them it is
    C(a - j + i, i), which at least doubles at each step, so it passes cap
    within cap.bit_length() factors for any a and k, and returns None
    there unless that was the last factor.
    """
    if not 0 <= k <= a:
        return 0
    j = min(k, a - k)
    c = 1
    for i in range(1, j + 1):
        c = c * (a - j + i) // i
        if c > cap and i < j:
            return None
    return c


def _monomial_count(q, n, d, m, cap=None):
    """Number of monomials of Sym^d(K(V, n)), dim V = q, at level m: the
    d-multisets of its q*C(m, n) codes.  With a cap (q, d >= 1), None
    instead of a count over cap that _comb_upto did not reach, so the
    answer costs a few products however large the arguments are."""
    if cap is None:
        return math.comb(q * math.comb(m, n) + d - 1, d)
    codes = _comb_upto(m, n, cap)
    return None if codes is None else _comb_upto(q * codes + d - 1, d, cap)


def _covering_count(q, n, d, m):
    """Number of covering monomials of Sym^d(K(V, n)), dim V = q, at level
    m, by inclusion-exclusion over the uncovered positions: the codes that
    miss s given positions are as many as the codes of level m - s."""
    return sum((-1) ** s * math.comb(m, s) * _monomial_count(q, n, d, m - s)
               for s in range(m + 1))


def _covering_dims(q, n, d, T):
    """Counted level dims 0..built_to of the covering complex of
    Sym^d(K(V, n)), dim V = q, for d >= 1.

    The list stops before the first level whose candidate multisets exceed
    ENUM_BUDGET or whose covering count exceeds DIM_BUDGET.
    """
    dims = []
    for m in range(T + 1):
        count = _covering_count(q, n, d, m)
        if _monomial_count(q, n, d, m) > ENUM_BUDGET or count > DIM_BUDGET:
            break
        dims.append(count)
    return dims


def _certified(q, n, d, T):
    """Certified degree of Sym^d(K(V, n)), dim V = q >= 1, d >= 1, from the
    counted levels 0..built_to of its covering complex.

    A monomial of d weight-one factors owns d*n jump positions, so the
    covering basis is empty above level d*n; when that natural top fits
    inside the counted range the complex is complete and every degree up
    to T is certified (higher degrees are zero).  Otherwise certification
    stops one short of the last counted level, but never below n - 1: no
    level below n has a covering monomial, so those degrees are zero
    whatever the budgets.  Nothing past T is certified.  Levels above d*n
    cannot change the answer, so they are not counted: each costs an
    (m+1)-term inclusion-exclusion.
    """
    built_to = len(_covering_dims(q, n, d, min(T, d * n))) - 1
    return T if d * n <= built_to else min(T, max(built_to - 1, n - 1))


def _covering_basis(n, d, m):
    """Covering d-multisets of the level-m codes of K(F, n), in
    lexicographic order; code c is the c-th of _jump_masks(m, n)."""
    masks = _jump_masks(m, n)[0]
    full = (1 << m) - 1
    basis = []
    for mono in combinations_with_replacement(range(len(masks)), d):
        u = 0
        for c in mono:
            u |= masks[c]
        if u == full:
            basis.append(mono)
    assert len(basis) == _covering_count(1, n, d, m), \
        "covering count disagrees at level %d" % m
    return basis


def _face_codes(m, n):
    """Action of each face d_i, i = 0..m, on the level-m codes of K(F, n):
    per code, the (code, jump mask) it goes to at level m - 1, or None
    where the face kills it.

    This is gamma's rule on jump masks (simplicial._act): the face keeps
    a code where it acts as the identity onto a summand, and kills it
    elsewhere, since K(F, n) has zero differential.
    """
    position = _jump_masks(m - 1, n)[1]
    return [[(position[a[1]], a[1]) if a and a[0] == "id" else None
             for a in (_act(mask, m, i, m - 1) for mask in _jump_masks(m, n)[0])]
            for i in range(m + 1)]


def _sym_merge(mono, image):
    """Coefficient of a symmetric-power face image: always 1."""
    return 1


def _divided_power_merge(mono, image):
    """Coefficient of a divided-power face image.

    A face that merges codes with multiplicities a_1..a_r into one code
    multiplies x^[a_1]...x^[a_r] into (a_1+...+a_r)!/(a_1!...a_r!) times
    x^[a_1+...+a_r]; over all codes that is the product of the image's
    multiplicity factorials over the source's.
    """
    num = den = 1
    for _, run in groupby(image):
        num *= math.factorial(len(list(run)))
    for _, run in groupby(mono):
        den *= math.factorial(len(list(run)))
    return num // den


def _covering_complex(field, n, d, top, merge):
    """Normalized chains, levels 0..min(top, d*n + 1), of a d-th power
    functor of K(F, n) whose level-m basis is the d-multisets of level-m
    codes.

    K(F, n)'s faces and degeneracies send each code to one code or to 0,
    and its degeneracies are injective on codes, so a basis monomial is
    degenerate exactly when the jump masks of its codes fail to cover all
    m positions: the chains live on covering monomials.  A face acts code
    by code; merge(mono, image) is the coefficient the functor gives the
    image where codes merge.  No level below n has a code, and no level
    above d*n a covering monomial, as each code owns n jump positions.
    NormalizedChains assembles the differential; the boundary leaves out
    the non-covering images, so any other key it returns is an error.
    """
    top = min(top, d * n + 1)
    bases = [_covering_basis(n, d, m) if m >= n else [] for m in range(top + 1)]
    face_codes = {m: _face_codes(m, n) for m in range(max(n, 1), top + 1)}

    def boundary(m, mono):
        full = (1 << (m - 1)) - 1
        col = {}
        for i, per_code in enumerate(face_codes[m]):
            image = []
            acc = 0
            for c in mono:
                fc = per_code[c]
                if fc is None:
                    break
                image.append(fc[0])
                acc |= fc[1]
            else:  # no code killed; an image that fails to cover is degenerate
                if acc == full:
                    image = tuple(sorted(image))
                    col[image] = col.get(image, 0) + (-1) ** i * merge(mono, image)
        return col

    return NormalizedChains(field, bases, boundary)


def sym_power_covering_complex(field, n, d, T):
    """Normalized chains of Sym^d(K(F, n)) on covering monomials.

    A monomial of level-m generators is nondegenerate exactly when the jump
    sets of its factors jointly cover all m positions.  Returns a pair
    (complex, built_to): the complex carries levels 0..built_to, which is
    min(T, d*n + 1) unless a size budget stopped the construction early.

    This is the brute force that sym_power_homology replaces by decalage;
    it stays as the reference the tests compare against.
    """
    if n < 1:
        raise ValueError("generators must live in positive degree")
    if d == 0:  # the empty monomial covers level 0 only
        return NormalizedChains(field, [[()]] + [[] for _ in range(T)], None), T
    built_to = len(_covering_dims(1, n, d, min(T, d * n + 1))) - 1
    return _covering_complex(field, n, d, built_to, _sym_merge), built_to


def divided_power_covering_complex(field, n, d, top):
    """Normalized chains of Gamma^d(K(F, n)), levels 0..min(top, d*n + 1),
    on covering divided-power monomials.

    The basis and faces are those of sym_power_covering_complex; only a
    face that merges codes carries a multinomial coefficient.
    """
    return _covering_complex(field, n, d, top, _divided_power_merge)


def _first_degree(p, n, d):
    """A degree below which Sym^d(K(V, n)) over a field of characteristic
    p has no homotopy, for any dim V: 0 for d = 0; n*d over Q, where it
    is the polynomial (or exterior) degree; d for n = 1 (Lambda^d in
    degree d); and 2d + n - 2 over F_p for n >= 2, by decalage (Illusie,
    LNM 239, I.4.3; Quillen 1970).  The bound grows with d, and a tensor
    product of factors of weights d_1 + ... + d_k = d (one-generator
    pieces, or the slots of a bar tuple) starts at or above it: n*d and d
    add, and 2d + n - 2 adds up to n - 2 >= 0 per extra factor.
    """
    if d == 0:
        return 0
    return n * d if p == 0 or n < 2 else 2 * d + n - 2


def sym_power_homology(field, q, n, d, T):
    """Homotopy dims of Sym^d(K(V, n)), dim V = q, with the honest certified
    degree.

    One generator goes by decalage: L Sym^d(Sigma M) ~ Sigma^d L Lambda^d(M)
    and L Lambda^d(Sigma M) ~ Sigma^d L Gamma^d(M) over any ring (Illusie,
    LNM 239, I.4.3; Quillen 1970), and degreewise functors preserve weak
    equivalences, so pi_i Sym^d K(F, n) = pi_{i-2d} Gamma^d K(F, n-2) for
    n >= 2, and Sym^d K(F, 1) has Lambda^d(F) in degree d: F for d = 1,
    zero for d >= 2.  Gamma^d K(F, n-2) is built on covering divided-power
    monomials up to level certified - 2d + 1, or one past its last covering
    level if that comes first, and its degrees below the top are exact.
    More generators are convolved from one-generator pieces (see _weight).
    For every q the budgets bound the q-generator Sym^d covering complex,
    which defines certification and is only counted, not built.
    """
    if d == 0:
        return HomotopyDims({0: 1}, T)
    if q == 0:
        return HomotopyDims({}, T)
    if q > 1:
        return _weight(field, q, n, d, T, [])
    certified = _certified(1, n, d, T)
    if n == 1:
        return HomotopyDims({1: 1} if d == 1 and certified >= 1 else {}, certified)
    top = certified - 2 * d + 1
    if top <= n - 2:  # Gamma^d K(F, n-2) has no chains below level n-2
        return HomotopyDims({}, certified)
    cx = divided_power_covering_complex(field, n - 2, d, top)
    return HomotopyDims({m + 2 * d: v for m, v in cx.homology_dims().data.items()
                         if m < cx.top}, certified)


def _weight(field, q, n, d, T, pieces):
    """Homotopy dims of Sym^d(K(V, n)), dim V = q >= 1.

    One generator is sym_power_homology itself.  For q > 1,
    Sym(V + V') = Sym V (x) Sym V' levelwise, so by Eilenberg-Zilber and
    Kunneth over a field weight d is the weight-d part of the q-fold
    convolution of the one-generator pieces 0..d: pieces holds those
    computed so far, and grows to d + 1 here.  The certification keeps the
    rule of the q-generator covering complex, counted once; the pieces
    always certify at least that far, since padding a one-generator
    covering multiset of size a with d - a copies of the last code is
    injective.

    A weight certified below n is a tail weight.  It is zero where
    certified, as there are no chains below level n, so it needs no piece.
    Its count stops at a level built_to <= n below the natural top d*n, and
    that level does not grow with d, since C(ncodes + d - 1, d) grows with
    d and padding a covering multiset with a copy of its last code injects
    weight d into weight d + 1: every later weight is a tail weight too,
    with a certified degree no larger.
    """
    if q == 1:
        return sym_power_homology(field, 1, n, d, T)
    certified = _certified(q, n, d, T) if d else T
    if certified < n:
        return HomotopyDims({}, certified)
    while len(pieces) <= d:
        pieces.append(sym_power_homology(field, 1, n, len(pieces), T))
    assert min(h.certified_degree for h in pieces[:d + 1]) >= certified, \
        "one-generator pieces certify less than the split power"
    power = [GradedDims({0: 1})] + [GradedDims()] * d
    for _ in range(q):
        power = [
            sum((power[b].convolve(pieces[w - b], upto=certified)
                 for b in range(w + 1)), GradedDims())
            for w in range(d + 1)
        ]
    return HomotopyDims(power[d].data, certified)


# --------------------------------------------------------------------------
# weight-graded algebras


class WeightGradedAlgebra:
    """Free commutative algebra on a simplicial vector space, truncated in
    weight: components Sym^0 .. Sym^W, whose monomials multiply by sorted
    concatenation (``_mono_product``, as in ``_sym_map``).

    components[d] is the d-th symmetric power of base, so field, T and W
    are read off base and components; the monomials of weight d >= 2 are
    the component's basis labels, those of weights 0 and 1 are () and the
    generators (i,).  q and n record the generators of a sphere algebra.
    Products that would exceed weight W are truncated away; every holder of
    such an algebra must treat weights > W as unknown, which is what the
    stability flags downstream account for.
    """

    def __init__(self, base, components, q=None, n=None):
        self.field = base.field
        self.base = base
        self.T = base.T
        self.W = len(components) - 1
        self.components = list(components)
        self.q = q
        self.n = n
        # per weight, per level: the monomial of each basis element
        self.monomials = [
            comp.basis_labels if d >= 2
            else [_monomials(dim, d) for dim in base.level_dims]
            for d, comp in enumerate(self.components)
        ]
        self._index_cache = {}

    def extended(self, W):
        """The same algebra truncated at weight W >= self.W (self when equal).

        Components 0..self.W are shared; the higher ones are built by
        symmetric_power, whose identities follow from the base's.
        """
        if W < self.W:
            raise ValueError("cannot extend weight truncation %d down to %d"
                             % (self.W, W))
        if W == self.W:
            return self
        more = [symmetric_power(self.base, d) for d in range(self.W + 1, W + 1)]
        return WeightGradedAlgebra(self.base, self.components + more,
                                   self.q, self.n)

    def monomial_index(self, d, m):
        """Position of each weight-d, level-m monomial in its basis."""
        key = (d, m)
        index = self._index_cache.get(key)
        if index is None:
            index = {mono: i for i, mono in enumerate(self.monomials[d][m])}
            self._index_cache[key] = index
        return index

    def multiply_elements(self, a, vec_a, b, vec_b, m):
        """Product of sparse vectors in Sym^a_m and Sym^b_m; {} past weight W."""
        if a + b > self.W:
            return {}
        names_a, names_b = self.monomials[a][m], self.monomials[b][m]
        prod = _mono_product({names_a[i]: v for i, v in vec_a.items()},
                             {names_b[i]: v for i, v in vec_b.items()})
        index = self.monomial_index(a + b, m)
        return canonical({index[key]: v for key, v in prod.items()},
                         self.field.characteristic)

    def check_algebra_identities(self):
        """Commutativity, associativity and compatibility with faces.

        Checked on basis monomials of every represented level, through
        multiply_elements; raises SimplicialError on failure.
        """
        dims = [comp.level_dims for comp in self.components]
        for m in range(self.T + 1):
            for a in range(self.W + 1):
                for b in range(self.W + 1 - a):
                    for ia in range(dims[a][m]):
                        for ib in range(dims[b][m]):
                            if (self.multiply_elements(a, {ia: 1}, b, {ib: 1}, m)
                                    != self.multiply_elements(b, {ib: 1}, a,
                                                              {ia: 1}, m)):
                                raise SimplicialError(
                                    "multiplication not commutative at level %d" % m
                                )
        # associativity on weight triples that fit under the truncation
        for m in range(self.T + 1):
            for a in range(1, self.W + 1):
                for b in range(1, self.W + 1 - a):
                    for c in range(1, self.W + 1 - a - b):
                        for ia in range(dims[a][m]):
                            for ib in range(dims[b][m]):
                                ab = self.multiply_elements(
                                    a, {ia: 1}, b, {ib: 1}, m
                                )
                                for ic in range(dims[c][m]):
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
        # faces are algebra maps: d_i(xy) = d_i(x) d_i(y)
        b = 1
        for a in range(1, self.W):
            ca, cb, cab = (
                self.components[a],
                self.components[b],
                self.components[a + b],
            )
            for m in range(1, self.T + 1):
                for i in range(m + 1):
                    for ia in range(dims[a][m]):
                        for ib in range(dims[b][m]):
                            lhs = cab.operator(m, i, m - 1).apply(
                                self.multiply_elements(a, {ia: 1}, b, {ib: 1}, m))
                            rhs = self.multiply_elements(
                                a, ca.operator(m, i, m - 1).cols[ia],
                                b, cb.operator(m, i, m - 1).cols[ib], m - 1)
                            if lhs != rhs:
                                raise SimplicialError(
                                    "face d_%d is not an algebra map at level %d"
                                    % (i, m)
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
    return WeightGradedAlgebra(
        base, [symmetric_power(base, d) for d in range(W + 1)], q, n)


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


def sphere_homotopy(field, q, n, T, W):
    """Homotopy of the sphere algebra on q generators in degree n.

    Sums the homotopy of Sym^d(K(V, n)) over weights 0..W and checks
    stability against weight W+1, where weight W stands for every weight
    after the first tail weight (see _weight).  Degrees whose stability
    check was not computable within budget are flagged unstable.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    if n < 1 or T < n:
        raise ValueError("need n >= 1 and T >= n")
    if W < 0:
        raise ValueError("W must be nonnegative")
    if q == 0:  # the ground field: every weight d >= 1 is zero
        return HomotopyReport(field, q, n, T, W, [1] + [0] * T, T, [True] * (T + 1))
    pieces = []
    per_weight = []
    for d in range(W + 1):
        per_weight.append(_weight(field, q, n, d, T, pieces))
        if per_weight[-1].certified_degree < n:
            break
    if d < W:  # weight d is a tail weight
        per_weight.append(_weight(field, q, n, W, T, pieces))
    check = _weight(field, q, n, W + 1, T, pieces)
    certified = min([T] + [h.certified_degree for h in per_weight])
    # each weight contributes only where it is certified; entries above the
    # overall certified degree are lower bounds from the complete weights
    dims = [
        sum(h[m] for h in per_weight if h.certified_degree >= m)
        for m in range(T + 1)
    ]
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
    ideal by products is literally the weight-1 component.  An algebra
    truncated below weight 1 has no such component and is refused.
    """
    if not isinstance(A, WeightGradedAlgebra):
        raise ValueError("indecomposables need an almost-free algebra built here")
    if A.W < 1:
        raise ValueError("algebra is truncated below weight 1")
    return A.components[1]


def induced_homology_matrices(src, dst, chain_maps, up_to):
    """Matrices induced on homology by a chain map, verified to commute at
    every level it is given through up_to + 1 (H_up_to needs boundaries
    from level up_to + 1 to go to boundaries).

    Each class is read through homology_reps, in the bases it returns for
    src and dst; the tests use this as the reference for hurewicz.
    """
    for m in range(1, min(len(chain_maps), up_to + 2)):
        if not _composites_agree(dst.diffs[m], chain_maps[m],
                                 chain_maps[m - 1], src.diffs[m]):
            raise ValueError("not a chain map at level %d" % m)
    out = {}
    for s in range(up_to + 1):
        dst_reps, coords = dst.homology_reps(s)
        reps = src.homology_reps(s)[0]
        cols = [coords(chain_maps[s].apply(dict(col))) for col in reps.cols]
        out[s] = Mat(src.field, dst_reps.ncols, reps.ncols, cols)
    return out


def hurewicz(A, up_to=None):
    """Comparison from homotopy of the augmentation ideal to its weight-1
    part, degree by degree.

    Returns {degree: matrix pi_s(IA) -> pi_s(QA)}.  The weights 1..W are
    simplicial summands of the ideal and the comparison is the projection
    onto weight 1, so in the homology_reps bases of the weights, side by
    side in weight order, the matrix is [identity | 0]: the homology
    dimensions of each weight fix it, and no class is read.  For a sphere
    algebra on generators in degree n this is invertible in degree n and
    surjective in degree n + 1.
    """
    weights = [indecomposables(A)] + A.components[2:]
    if A.base.level_dims[0] != 0:
        raise ValueError("algebra is not connected")
    if up_to is None:
        up_to = A.T - 1
    if up_to > A.T:
        raise ValueError("no differential at level %d" % (A.T + 1))
    h = [comp.normalized_chains().homology_dims() for comp in weights]
    return {s: Mat.from_unit_rows(A.field, h[0][s], list(range(h[0][s]))
                                  + [-1] * sum(hd[s] for hd in h[1:]))
            for s in range(up_to + 1)}

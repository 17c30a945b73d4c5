"""Finite-type truncated simplicial vector spaces and their homotopy.

An object carries levels 0..T with explicit face and degeneracy matrices;
the constructor verifies every simplicial identity, so an instance that
exists is honest.  Homotopy is computed as the homology of the normalized
chain complex (levelwise quotient by the span of the degeneracy images,
with the alternating-sum differential); the unnormalized complex on full
levels is kept alongside as an independent oracle.  Degrees up to T - 1
are certified, the degree-T value is reported but provisional since its
cycles see no boundaries from the missing level T + 1.

Objects are built through the inverse Dold-Kan functor ``gamma``: feeding
it a chain complex concentrated in degree n yields the Eilenberg-MacLane
object K(V, n) with level dimensions C(m, n) * dim V.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .exactfield import FieldSpec, FieldError, Mat, axpy, kernel_basis, pivot_rows


class SimplicialError(ValueError):
    """Invalid simplicial data: shape or identity violations."""


class GradedDims:
    """Finitely supported map degree -> nonnegative dimension."""

    __slots__ = ("data",)

    def __init__(self, data=None):
        self.data = {}
        if data:
            for k, v in dict(data).items():
                if v < 0:
                    raise ValueError("negative dimension at degree %d" % k)
                if k < 0:
                    raise ValueError("negative degree %d" % k)
                if v:
                    self.data[int(k)] = int(v)

    def __getitem__(self, degree):
        return self.data.get(degree, 0)

    def top(self):
        return max(self.data) if self.data else None

    def to_list(self, upto):
        return [self[i] for i in range(upto + 1)]

    def __eq__(self, other):
        if isinstance(other, GradedDims):
            return self.data == other.data
        return NotImplemented

    def __add__(self, other):
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, 0) + v
        return GradedDims(out)

    def convolve(self, other, upto=None):
        """Graded tensor dimension count (Cauchy product of dimensions)."""
        out = {}
        for a, va in self.data.items():
            for b, vb in other.data.items():
                if upto is None or a + b <= upto:
                    out[a + b] = out.get(a + b, 0) + va * vb
        return GradedDims(out)

    def __repr__(self):
        return "GradedDims(%r)" % (self.data,)


class HomotopyDims(GradedDims):
    """GradedDims annotated with the certified degree range."""

    __slots__ = ("certified_degree",)

    def __init__(self, data, certified_degree):
        super().__init__(data)
        self.certified_degree = certified_degree

    def certified(self):
        return GradedDims({k: v for k, v in self.data.items()
                           if k <= self.certified_degree})

    def __repr__(self):
        return "HomotopyDims(%r, certified<=%d)" % (self.data, self.certified_degree)


# --------------------------------------------------------------------------
# chain complexes


class ChainComplex:
    """Nonnegatively graded complex with exact differentials, d o d = 0."""

    def __init__(self, field, dims, diffs):
        self.field = field
        self.dims = list(dims)
        self.diffs = list(diffs)  # diffs[m]: dims[m] -> dims[m-1]; diffs[0] unused
        T = len(self.dims) - 1
        if len(self.diffs) != T + 1:
            raise SimplicialError("differential list length mismatch")
        for m in range(1, T + 1):
            d = self.diffs[m]
            if d.nrows != self.dims[m - 1] or d.ncols != self.dims[m]:
                raise SimplicialError("differential shape at level %d" % m)
            if m >= 2 and not (self.diffs[m - 1] @ d).is_zero():
                raise SimplicialError("d o d != 0 at level %d" % m)

    @property
    def top(self):
        return len(self.dims) - 1

    def differential(self, m):
        """d_m: level m -> m-1 (the zero map out of level 0)."""
        if 1 <= m <= self.top:
            return self.diffs[m]
        if m == 0:
            return Mat.zero(self.field, 0, self.dims[0])
        raise ValueError("no differential at level %d" % m)

    def homology_dims(self):
        """Homology in degrees 0..top; the top degree ignores unseen boundaries.

        H_m = dims[m] - rank d_m - rank d_{m+1}, with each differential
        ranked once, from the top down.  The pivot rows P of d_{m+1} carry
        im d_{m+1} isomorphically, so C_m is the direct sum of im d_{m+1}
        and span{e_i : i not in P}; d_m kills im d_{m+1}, so rank d_m is
        the rank of its columns outside P, and only those are eliminated.
        """
        ranks = [0] * (self.top + 2)
        rows = ()
        for m in range(self.top, 0, -1):
            rows = pivot_rows(self.diffs[m], drop=rows)
            ranks[m] = len(rows)
        out = {m: self.dims[m] - ranks[m] - ranks[m + 1]
               for m in range(self.top + 1)}
        return HomotopyDims(out, self.top - 1)

    def homology_reps(self, m):
        """Representative cycles of H_m and a coordinatizer for cycles.

        Returns (reps, coords) where reps is a Mat whose columns are chosen
        cycle representatives and coords maps a sparse cycle vector to its
        coefficients over those representatives (modulo boundaries).
        """
        from .exactfield import ColumnEchelon

        F = self.field
        d_out = self.differential(m)
        cycles = kernel_basis(d_out)
        boundary = self.diffs[m + 1] if m + 1 <= self.top else Mat.zero(
            F, self.dims[m], 0
        )
        ech = ColumnEchelon(F, self.dims[m], track=True)
        nb = boundary.ncols
        for col in boundary.cols:
            ech.insert(col)
        rep_cols = []
        for col in cycles.cols:
            pivot, _ = ech.insert(col)
            if pivot is not None:
                rep_cols.append(dict(col))
        reps = Mat(F, self.dims[m], len(rep_cols), rep_cols)

        def coords(vec):
            if d_out.apply(vec):
                raise ValueError("vector is not a cycle in degree %d" % m)
            residue, combo = ech.reduce(vec)
            if residue:
                raise AssertionError("cycle escaped the cycle space")
            out = {}
            for k, v in combo.items():
                if k >= nb:
                    out[k - nb] = v
            return out

        return reps, coords

    def direct_sum(self, other):
        if self.field != other.field:
            raise FieldError("field mismatch in direct sum")

        def part_dim(cx, m):
            return cx.dims[m] if m <= cx.top else 0

        def part_diff(cx, m):
            if m <= cx.top:
                return cx.diffs[m]
            return Mat.zero(cx.field, part_dim(cx, m - 1), 0)

        T = max(self.top, other.top)
        dims = [part_dim(self, m) + part_dim(other, m) for m in range(T + 1)]
        diffs = [Mat.zero(self.field, 0, dims[0])]
        for m in range(1, T + 1):
            diffs.append(
                Mat.block_diag(self.field, [part_diff(self, m), part_diff(other, m)])
            )
        return ChainComplex(self.field, dims, diffs)


class _LevelQuotient:
    """Quotient of one level by the span of degeneracy images.

    Keeps a fully reduced echelon of the span; coset representatives are
    supported on the complement rows, which become the normalized basis.
    """

    def __init__(self, field, dim, span_columns):
        self.field = field
        self.dim = dim
        pivots = {}  # pivot row -> echelon column (dict)
        for col in span_columns:
            col = self._reduce(dict(col), pivots)
            if col:
                low = min(col)
                pivots[low] = axpy({}, field.inv(col[low]), col,
                                   field.characteristic)
        self.pivots = pivots
        self.complement = [i for i in range(dim) if i not in pivots]
        self.position = {r: k for k, r in enumerate(self.complement)}

    def _reduce(self, vec, pivots):
        p = self.field.characteristic
        while True:
            hit = [r for r in vec if r in pivots]
            if not hit:
                return vec
            r = min(hit)
            axpy(vec, -vec[r], pivots[r], p)

    @property
    def quotient_dim(self):
        return len(self.complement)

    def project(self, vec):
        """Sparse level vector -> sparse coordinates in the quotient basis."""
        red = self._reduce(dict(vec), self.pivots)
        return {self.position[r]: v for r, v in red.items()}

    def include(self, vec):
        """Quotient coordinates -> the canonical level representative."""
        return {self.complement[k]: v for k, v in vec.items()}


class NormalizedChains(ChainComplex):
    """Normalized chain complex of a simplicial vector space.

    Carries the per-level quotient maps so that simplicial maps can be
    pushed to normalized chain maps (project o f o include).
    """

    def __init__(self, field, dims, diffs, quotients):
        super().__init__(field, dims, diffs)
        self.quotients = quotients

    def project(self, m, vec):
        return self.quotients[m].project(vec)

    def include(self, m, vec):
        return self.quotients[m].include(vec)

    def induced_map(self, other, level_maps):
        """Normalized chain map from simplicial level maps (self -> other).

        level_maps[m] acts between the underlying levels; the result acts
        between normalized bases.
        """
        out = []
        for m in range(min(self.top, other.top) + 1):
            f = level_maps[m]
            cols = []
            for k in range(self.dims[m]):
                v = self.include(m, {k: 1})
                cols.append(other.project(m, f.apply(v)))
            out.append(Mat(self.field, other.dims[m], self.dims[m], cols))
        return out


# --------------------------------------------------------------------------
# simplicial vector spaces


class SimplicialVectorSpace:
    """Levels 0..T with face maps d_i and degeneracy maps s_i as matrices.

    faces[m][i] : level m -> level m-1   (1 <= m <= T, 0 <= i <= m)
    degens[m][i]: level m -> level m+1   (0 <= m <  T, 0 <= i <= m)

    All simplicial identities are checked at construction; violation raises
    SimplicialError.  Instances are immutable by convention; nothing mutates
    them after __init__, so concurrent reads are safe.
    """

    def __init__(self, field, level_dims, faces, degens, basis_labels=None):
        self.field = field
        self.level_dims = list(level_dims)
        self.T = len(self.level_dims) - 1
        if self.T < 0:
            raise SimplicialError("need at least level 0")
        self.faces = faces
        self.degens = degens
        self.basis_labels = basis_labels
        self._check_shapes()
        self.check_identities()

    # -- validation ----------------------------------------------------

    def _check_shapes(self):
        T = self.T
        if len(self.faces) != T + 1 or len(self.degens) != T + 1:
            raise SimplicialError("face/degeneracy list length mismatch")
        if self.faces[0]:
            raise SimplicialError("level 0 has no faces")
        for m in range(1, T + 1):
            if len(self.faces[m]) != m + 1:
                raise SimplicialError("level %d needs %d faces" % (m, m + 1))
            for i, d in enumerate(self.faces[m]):
                if d.field != self.field:
                    raise FieldError("face field mismatch")
                if (d.nrows, d.ncols) != (self.level_dims[m - 1], self.level_dims[m]):
                    raise SimplicialError("face d_%d shape at level %d" % (i, m))
        for m in range(T):
            if len(self.degens[m]) != m + 1:
                raise SimplicialError("level %d needs %d degeneracies" % (m, m + 1))
            for i, s in enumerate(self.degens[m]):
                if s.field != self.field:
                    raise FieldError("degeneracy field mismatch")
                if (s.nrows, s.ncols) != (self.level_dims[m + 1], self.level_dims[m]):
                    raise SimplicialError("degeneracy s_%d shape at level %d" % (i, m))
        if self.degens[T]:
            raise SimplicialError("top level has no degeneracies")

    def check_identities(self):
        """Assert every simplicial identity; cheap for sparse maps."""
        d, s, T = self.faces, self.degens, self.T
        for m in range(2, T + 1):
            for j in range(m + 1):
                for i in range(j):
                    if d[m - 1][i] @ d[m][j] != d[m - 1][j - 1] @ d[m][i]:
                        raise SimplicialError(
                            "d_%d d_%d identity fails at level %d" % (i, j, m)
                        )
        for m in range(T - 1):
            for j in range(m + 1):
                for i in range(j + 1):
                    if s[m + 1][i] @ s[m][j] != s[m + 1][j + 1] @ s[m][i]:
                        raise SimplicialError(
                            "s_%d s_%d identity fails at level %d" % (i, j, m)
                        )
        for m in range(T):
            ident = Mat.identity(self.field, self.level_dims[m])
            for j in range(m + 1):
                for i in range(m + 2):
                    lhs = d[m + 1][i] @ s[m][j]
                    if i < j:
                        rhs = s[m - 1][j - 1] @ d[m][i]
                    elif i in (j, j + 1):
                        rhs = ident
                    else:
                        rhs = s[m - 1][j] @ d[m][i - 1]
                    if lhs != rhs:
                        raise SimplicialError(
                            "d_%d s_%d identity fails at level %d" % (i, j, m)
                        )

    # -- chains ----------------------------------------------------------

    def boundary(self, m):
        """Alternating sum of the faces out of level m."""
        F = self.field
        if m < 1 or m > self.T:
            raise ValueError("no boundary at level %d" % m)
        cols = [{} for _ in range(self.level_dims[m])]
        for i, face in enumerate(self.faces[m]):
            for acc, col in zip(cols, face.cols):
                axpy(acc, (-1) ** i, col, F.characteristic)
        return Mat(F, self.level_dims[m - 1], self.level_dims[m], cols)

    def unnormalized_chains(self):
        """Moore complex on the full levels (the oracle complex)."""
        diffs = [Mat.zero(self.field, 0, self.level_dims[0])]
        for m in range(1, self.T + 1):
            diffs.append(self.boundary(m))
        return ChainComplex(self.field, self.level_dims, diffs)

    def normalized_chains(self):
        """Quotient of each level by its degenerate subspace."""
        quotients = []
        for m in range(self.T + 1):
            span = []
            if m >= 1:
                for s_i in self.degens[m - 1]:
                    span.extend(s_i.cols)
            quotients.append(_LevelQuotient(self.field, self.level_dims[m], span))
        dims = [q.quotient_dim for q in quotients]
        diffs = [Mat.zero(self.field, 0, dims[0])]
        for m in range(1, self.T + 1):
            bd = self.boundary(m)
            cols = []
            for k in range(dims[m]):
                rep = quotients[m].include({k: 1})
                cols.append(quotients[m - 1].project(bd.apply(rep)))
            diffs.append(Mat(self.field, dims[m - 1], dims[m], cols))
        return NormalizedChains(self.field, dims, diffs, quotients)

    def homotopy_dims(self):
        """Homology of the normalized chains; certified through T - 1."""
        return self.normalized_chains().homology_dims()

    # -- constructions ----------------------------------------------------

    def tensor(self, other):
        """Levelwise tensor product with diagonal structure maps."""
        if self.field != other.field:
            raise FieldError("tensor over different fields")
        if self.T != other.T:
            raise SimplicialError("tensor of different truncations")
        dims = [a * b for a, b in zip(self.level_dims, other.level_dims)]
        faces = [[]]
        for m in range(1, self.T + 1):
            faces.append(
                [self.faces[m][i].kron(other.faces[m][i]) for i in range(m + 1)]
            )
        degens = []
        for m in range(self.T):
            degens.append(
                [self.degens[m][i].kron(other.degens[m][i]) for i in range(m + 1)]
            )
        degens.append([])
        return SimplicialVectorSpace(self.field, dims, faces, degens)

    def direct_sum(self, other):
        if self.field != other.field:
            raise FieldError("direct sum over different fields")
        if self.T != other.T:
            raise SimplicialError("direct sum of different truncations")
        dims = [a + b for a, b in zip(self.level_dims, other.level_dims)]
        faces = [[]]
        for m in range(1, self.T + 1):
            faces.append(
                [
                    Mat.block_diag(self.field, [self.faces[m][i], other.faces[m][i]])
                    for i in range(m + 1)
                ]
            )
        degens = []
        for m in range(self.T):
            degens.append(
                [
                    Mat.block_diag(self.field, [self.degens[m][i], other.degens[m][i]])
                    for i in range(m + 1)
                ]
            )
        degens.append([])
        return SimplicialVectorSpace(self.field, dims, faces, degens)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self):
        return {
            "field": self.field.characteristic,
            "truncation": self.T,
            "level_dims": list(self.level_dims),
            "faces": [[_mat_to_lists(d) for d in self.faces[m]]
                      for m in range(self.T + 1)],
            "degeneracies": [[_mat_to_lists(s) for s in self.degens[m]]
                             for m in range(self.T + 1)],
        }

    @classmethod
    def from_json_dict(cls, data):
        field = FieldSpec(data["field"])
        dims = data["level_dims"]
        T = data["truncation"]
        if len(dims) != T + 1:
            raise SimplicialError("level_dims length does not match truncation")
        faces = [[]]
        for m in range(1, T + 1):
            faces.append(
                [_mat_from_lists(field, rows, dims[m - 1], dims[m])
                 for rows in data["faces"][m]]
            )
        degens = []
        for m in range(T):
            degens.append(
                [_mat_from_lists(field, rows, dims[m + 1], dims[m])
                 for rows in data["degeneracies"][m]]
            )
        degens.append([])
        return cls(field, dims, faces, degens)

    def __repr__(self):
        return "SimplicialVectorSpace(%r, dims=%r)" % (self.field, self.level_dims)


def _entry_to_json(v):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return "%d/%d" % (v.numerator, v.denominator)
    return int(v)


def _entry_from_json(x):
    if isinstance(x, str):
        num, den = x.split("/")
        return Fraction(int(num), int(den))
    return x


def _mat_to_lists(m):
    return [[_entry_to_json(v) for v in row] for row in m.to_rows()]


def _mat_from_lists(field, rows, nrows, ncols):
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise SimplicialError("matrix shape mismatch in serialized data")
    return Mat.from_rows(field, [[_entry_from_json(x) for x in r] for r in rows],
                         ncols=ncols)


# --------------------------------------------------------------------------
# the inverse Dold-Kan functor


def _jump_surjections(m, k):
    """(values, jump mask) of each order-preserving surjection [m] ->> [k].

    A surjection is determined by its k jump positions inside {0..m-1}
    (bit j of the mask is set when the value steps up from j to j + 1), so
    there are C(m, k) of them; they come in sorted order.
    """
    for jumps in combinations(range(m), k):
        mask = 0
        for j in jumps:
            mask |= 1 << j
        vals = [0] * (m + 1)
        for i in range(m):
            vals[i + 1] = vals[i] + (mask >> i & 1)
        yield tuple(vals), mask


def surjections(m, k):
    """Order-preserving surjections [m] ->> [k] as value tuples, sorted."""
    return [vals for vals, _ in _jump_surjections(m, k)]


def _coface(m, i):
    """delta^i: [m-1] -> [m] skipping i, as a value tuple."""
    return tuple(x if x < i else x + 1 for x in range(m))


def _codegeneracy(m, i):
    """eta^i: [m+1] -> [m] repeating i, as a value tuple."""
    return tuple(x if x <= i else x - 1 for x in range(m + 2))


def gamma(field, complex_dims, complex_diffs, T):
    """Simplicial vector space whose normalized chains realize a complex.

    complex_dims[k] is the dimension in degree k; complex_diffs[k] is the
    differential degree k -> k-1 (entry 0 unused).  Level m of the result
    is the sum over order-preserving surjections sigma: [m] ->> [k] of a
    copy of degree k; a simplicial operator phi acts on the sigma summand
    through the epi-mono factorization of sigma o phi, applying the
    identity when the mono part is trivial, the differential when the mono
    part misses exactly the top element, and zero otherwise.
    """
    kmax = len(complex_dims) - 1
    diffs = list(complex_diffs)
    if len(diffs) != kmax + 1:
        raise SimplicialError("complex differential list length mismatch")
    for k in range(1, kmax + 1):
        d = diffs[k]
        if (d.nrows, d.ncols) != (complex_dims[k - 1], complex_dims[k]):
            raise SimplicialError("complex differential shape at degree %d" % k)
        if k >= 2 and not (diffs[k - 1] @ d).is_zero():
            raise SimplicialError("complex has d o d != 0 at degree %d" % k)

    bases = []   # per level: list of (sigma, k, e)
    index = []   # per level: dict (sigma, k, e) -> position
    for m in range(T + 1):
        basis = []
        for k in range(min(m, kmax) + 1):
            for sigma in surjections(m, k):
                for e in range(complex_dims[k]):
                    basis.append((sigma, k, e))
        bases.append(basis)
        index.append({b: i for i, b in enumerate(basis)})

    def operator_matrix(phi, m_src, m_dst):
        cols = []
        for sigma, k, e in bases[m_src]:
            comp = tuple(sigma[phi[i]] for i in range(m_dst + 1))
            image = set(comp)
            col = {}
            if len(image) == k + 1:
                col[index[m_dst][(comp, k, e)]] = 1
            elif image == set(range(k)):
                for e2, v in diffs[k].cols[e].items():
                    col[index[m_dst][(comp, k - 1, e2)]] = v
            cols.append(col)
        return Mat(field, len(bases[m_dst]), len(bases[m_src]), cols)

    faces = [[]]
    for m in range(1, T + 1):
        faces.append(
            [operator_matrix(_coface(m, i), m, m - 1) for i in range(m + 1)]
        )
    degens = []
    for m in range(T):
        degens.append(
            [operator_matrix(_codegeneracy(m, i), m, m + 1) for i in range(m + 1)]
        )
    degens.append([])
    dims = [len(b) for b in bases]
    svs = SimplicialVectorSpace(field, dims, faces, degens, basis_labels=bases)
    return svs


def eilenberg_maclane(field, q, n, T):
    """K(V, n) for V of dimension q, truncated at level T >= n.

    Level m has dimension C(m, n) * q and the homotopy is V concentrated
    in degree n (certified through T - 1).
    """
    if T < n:
        raise ValueError("truncation %d below degree %d" % (T, n))
    if q < 0 or n < 0:
        raise ValueError("q and n must be nonnegative")
    dims = [0] * n + [q]
    diffs = [None] + [Mat.zero(field, dims[k - 1], dims[k]) for k in range(1, n + 1)]
    return gamma(field, dims, diffs, T)


def constant_object(field, T):
    """The constant simplicial object on the ground field."""
    return gamma(field, [1], [None], T)


def zero_object(field, T):
    return gamma(field, [0], [None], T)

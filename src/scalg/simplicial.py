"""Finite-type truncated simplicial vector spaces and their homotopy.

An object carries levels 0..T with explicit face and degeneracy matrices.
Every builder, here and in symalg and barcof, hands
SimplicialVectorSpace.from_operators one rule operator(m, i, to) giving
d_i (to = m - 1) or s_i (to = m + 1) out of level m, and reads maps back
through the same signature; how they are stored is known to this module
only.  The constructors verify every simplicial identity, so an instance
that exists is honest.  The exceptions are levelwise functors applied to
checked objects through _functor_image (symalg.symmetric_power, tensor,
direct_sum): their identities are images of checked ones, so only shapes
are checked there.  constant_object is one shared identity, built once
per (field, T) per process, and an object keeps its normalized chains.

Homotopy is computed as the homology of the normalized chain complex, the
levelwise quotient by the span of the degeneracy images.  NormalizedChains
is that quotient for every object, here and in symalg and barcof: it
takes a normalized basis of hashable keys and the boundary of one basis
element, so an object that knows its nondegenerate elements (covering
monomials, bar tuples) never builds its full levels.  The unnormalized
complex on full levels is kept alongside as an independent oracle.
Degrees up to T - 1 are certified, the degree-T value is reported but
provisional since its cycles see no boundaries from the missing level
T + 1.

Objects are built through the inverse Dold-Kan functor ``gamma``: the
complex with V in degree n alone yields the Eilenberg-MacLane object
K(V, n), level m of dimension C(m, n) * dim V, each operator a row map
cached per shape plus the blocks of the complex's nonzero differentials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, pairwise

from .exactfield import (
    ColumnEchelon, FieldSpec, FieldError, Mat, _EMPTY_COLUMN, _unit_columns, axpy,
    canonical, kernel_basis, pivot_rows,
)


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

    def convolve(self, other, upto):
        """Graded tensor dimension count (Cauchy product of dimensions)
        through degree upto."""
        out = {}
        for a, va in self.data.items():
            for b, vb in other.data.items():
                if a + b <= upto:
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
            if m >= 2 and not _composes_to_zero(self.diffs[m - 1], d):
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
        coefficients over those representatives (modulo boundaries):
        coords(reps.cols[j]) is {j: 1} and a boundary has coords {}.  A
        kernel cycle that reduces into the boundaries and cycles before it
        still uses up an insertion index of the echelon, so combinations
        are read back through each surviving cycle's recorded position.
        """
        F = self.field
        d_out = self.differential(m)
        cycles = kernel_basis(d_out)
        boundary = self.diffs[m + 1] if m + 1 <= self.top else Mat.zero(
            F, self.dims[m], 0
        )
        ech = ColumnEchelon(F, self.dims[m], track=True)
        for col in boundary.cols:
            ech.insert(col)
        rep_cols = []
        position = {}  # insertion index of a surviving cycle -> its rep
        for col in cycles.cols:
            idx = ech.ninserted
            pivot, _ = ech.insert(col)
            if pivot is not None:
                position[idx] = len(rep_cols)
                rep_cols.append(dict(col))
        reps = Mat(F, self.dims[m], len(rep_cols), rep_cols)

        def coords(vec):
            if d_out.apply(vec):
                raise ValueError("vector is not a cycle in degree %d" % m)
            residue, combo = ech.reduce(vec)
            if residue:
                raise AssertionError("cycle escaped the cycle space")
            return {position[k]: v for k, v in combo.items() if k in position}

        return reps, coords


class NormalizedChains(ChainComplex):
    """Normalized chain complex N_m = C_m / D_m of a simplicial vector space
    (Dold-Kan): the one place where a normalized differential is assembled.

    The complex is keyed by basis element.  bases[m] lists the keys of the
    normalized basis of level m, any hashable ones: row indices of a
    SimplicialVectorSpace, covering monomials, bar tuples.
    boundary(m, key) is the unnormalized boundary sum (-1)^i d_i of basis
    element key as {key: coeff}; it is called on bases[m] only, level by
    level upwards, and the differential is its projection.  It may leave
    out terms it knows to be degenerate.

    Where every degeneracy image into level m is a single basis element,
    D_m is spanned by the elements hit, and bases[m] holds the others:
    project keeps the basis keys, drops those that degenerate(m, key)
    marks (with degenerate None, the boundary leaves them all out), and
    raises AssertionError on any other key.  A level with other images
    has a ColumnEchelon of them as echelons[m], keyed by rows, whose
    non-pivot rows form bases[m] and whose normal_form projects.  On unit
    images the pivot rows are the rows hit, so both rules give the same
    bases, differentials and projections; every coset of D_m has exactly
    one representative supported on bases[m].  project and include push
    simplicial maps to normalized chain maps (project o f o include).
    """

    def __init__(self, field, bases, boundary, degenerate=None, echelons=None):
        self.field = field
        self.bases = bases
        self.echelons = echelons or [None] * len(bases)
        self._degenerate = degenerate
        self._positions = [{key: k for k, key in enumerate(b)} for b in bases]
        dims = [len(b) for b in bases]
        diffs = [Mat.zero(field, 0, dims[0])]
        for m in range(1, len(dims)):
            cols = [self.project(m - 1, boundary(m, key)) for key in bases[m]]
            diffs.append(Mat(field, dims[m - 1], dims[m], cols))
        super().__init__(field, dims, diffs)

    def project(self, m, vec):
        """Sparse level vector -> sparse coordinates in the normalized basis."""
        position = self._positions[m]
        ech = self.echelons[m]
        if ech is not None:
            return {position[r]: v for r, v in ech.normal_form(vec).items()}
        out = {}
        for key, v in canonical(vec, self.field.characteristic).items():
            k = position.get(key)
            if k is not None:
                out[k] = v
            elif self._degenerate is None or not self._degenerate(m, key):
                raise AssertionError("%r is neither a basis element of level %d "
                                     "nor degenerate" % (key, m))
        return out

    def include(self, m, vec):
        """Normalized coordinates -> the representative on the basis keys."""
        return {self.bases[m][k]: v for k, v in vec.items()}


# --------------------------------------------------------------------------
# simplicial vector spaces


def _operator_slots(T):
    """Every (m, i, to) of a truncation-T object: each face d_i out of level
    m (to = m - 1), then each degeneracy s_i (to = m + 1)."""
    for m in range(1, T + 1):
        for i in range(m + 1):
            yield m, i, m - 1
    for m in range(T):
        for i in range(m + 1):
            yield m, i, m + 1


def _operator_lists(T, operator):
    """The faces and degens lists of a rule operator(m, i, to); level 0 has
    no faces and level T no degeneracies."""
    faces = [[] for _ in range(T + 1)]
    degens = [[] for _ in range(T + 1)]
    for m, i, to in _operator_slots(T):
        (faces if to < m else degens)[m].append(operator(m, i, to))
    return faces, degens


def _composite(a, b, r):
    """Column r of a @ b: a's column k when b's column r is {k: 1} (Mat
    entries are canonical, so that is the product's column), empty when
    b's column r is, else the product's column computed."""
    k = b.unit_rows()[r]
    if k is None:
        return a.apply(b.cols[r])
    return a.cols[k] if k >= 0 else {}


def _composed_rows(a, b):
    """The row map of a @ b read off those of a and b (see Mat.unit_rows):
    where b's column r is {k: 1}, a's entry k; -1 where b's column is
    empty; None where b's column is neither."""
    rows = a.unit_rows()
    return [k if k is None or k < 0 else rows[k] for k in b.unit_rows()]


def _composites_agree(a, b, c, e):
    """a @ b == c @ e, compared column by column; the caller checks shapes.

    The two composed row maps decide every column that is unit or empty
    on both sides; only a column that is neither on one side is
    multiplied out, through _composite."""
    left, right = _composed_rows(a, b), _composed_rows(c, e)
    if left == right and None not in left:
        return True
    for r, (x, y) in enumerate(zip(left, right)):
        if x is None or y is None:
            if _composite(a, b, r) != _composite(c, e, r):
                return False
        elif x != y:
            return False
    return True


def _composes_to_zero(a, b):
    """a @ b is zero: every column r is empty."""
    return all(k == -1 or (k is None and not _composite(a, b, r))
               for r, k in enumerate(_composed_rows(a, b)))


def _composes_to_identity(a, b):
    """a @ b is the identity: every column r is {r: 1}."""
    return all(k == r or (k is None and _composite(a, b, r) == {r: 1})
               for r, k in enumerate(_composed_rows(a, b)))


class SimplicialVectorSpace:
    """Levels 0..T with face maps d_i and degeneracy maps s_i as matrices.

    faces[m][i] : level m -> level m-1   (1 <= m <= T, 0 <= i <= m)
    degens[m][i]: level m -> level m+1   (0 <= m <  T, 0 <= i <= m)

    Builders hand from_operators one rule operator(m, i, to), the map d_i
    (to = m - 1) or s_i (to = m + 1) out of level m, and operator(m, i, to)
    reads one back; only this module knows the list layout above.  The
    constructors check shapes and every simplicial identity; violation
    raises SimplicialError.  _functor_image checks shapes only, for objects
    whose identities follow from those of checked objects; check_identities
    re-checks any instance.  Instances are immutable by convention; nothing
    mutates them after construction, so concurrent reads are safe.
    normalized_chains is computed on first call and kept (not pickled).
    """

    def __init__(self, field, level_dims, faces, degens, basis_labels=None):
        self._set_levels(field, level_dims, faces, degens, basis_labels)
        self.check_identities()

    @classmethod
    def from_operators(cls, field, level_dims, operator, basis_labels=None):
        """The object with d_i = operator(m, i, m - 1) and s_i =
        operator(m, i, m + 1) out of each level m, checked in full."""
        obj = cls._functor_image(field, level_dims, operator, basis_labels)
        obj.check_identities()
        return obj

    @classmethod
    def _functor_image(cls, field, level_dims, operator, basis_labels):
        """The object whose faces and degeneracies are F(d_i) and F(s_i) for
        those of checked objects and a levelwise functor F (of one object
        or two) that preserves composites and identities matrix for matrix,
        given as one rule as in from_operators.

        Each simplicial identity is then F of identities that hold, so it
        holds and is not checked again; shapes are.
        """
        obj = cls.__new__(cls)
        obj._set_levels(field, level_dims,
                        *_operator_lists(len(level_dims) - 1, operator), basis_labels)
        return obj

    def operator(self, m, i, to):
        """d_i out of level m when to == m - 1, s_i when to == m + 1."""
        return (self.faces if to < m else self.degens)[m][i]

    # -- validation ----------------------------------------------------

    def _set_levels(self, field, level_dims, faces, degens, basis_labels):
        self.field = field
        self.level_dims = list(level_dims)
        self.T = len(self.level_dims) - 1
        if self.T < 0:
            raise SimplicialError("need at least level 0")
        self.faces = faces
        self.degens = degens
        self.basis_labels = basis_labels
        self._chains = None
        self._check_shapes()

    def __getstate__(self):
        # the kept chains hold closures, which do not pickle
        return dict(vars(self), _chains=None)

    def _check_shapes(self):
        T = self.T
        if len(self.faces) != T + 1 or len(self.degens) != T + 1:
            raise SimplicialError("face/degeneracy list length mismatch")
        if self.faces[0]:
            raise SimplicialError("level 0 has no faces")
        if self.degens[T]:
            raise SimplicialError("top level has no degeneracies")
        for m in range(T + 1):
            if m and len(self.faces[m]) != m + 1:
                raise SimplicialError("level %d needs %d faces" % (m, m + 1))
            if m < T and len(self.degens[m]) != m + 1:
                raise SimplicialError("level %d needs %d degeneracies" % (m, m + 1))
        for m, i, to in _operator_slots(T):
            op = self.operator(m, i, to)
            kind, name = ("face", "d") if to < m else ("degeneracy", "s")
            if op.field != self.field:
                raise FieldError("%s field mismatch" % kind)
            if (op.nrows, op.ncols) != (self.level_dims[to], self.level_dims[m]):
                raise SimplicialError("%s %s_%d shape at level %d" % (kind, name, i, m))

    def check_identities(self):
        """Assert every simplicial identity, one column of each side at a
        time: columns that are unit or empty on both sides compare by
        their composed row maps, any other is multiplied out (see
        _composites_agree), and d_i s_j = id asks every column r to be
        {r: 1}.  No product matrix is built."""
        d, s, T = self.faces, self.degens, self.T
        for m in range(2, T + 1):
            for j in range(m + 1):
                for i in range(j):
                    if not _composites_agree(d[m - 1][i], d[m][j],
                                             d[m - 1][j - 1], d[m][i]):
                        raise SimplicialError(
                            "d_%d d_%d identity fails at level %d" % (i, j, m)
                        )
        for m in range(T - 1):
            for j in range(m + 1):
                for i in range(j + 1):
                    if not _composites_agree(s[m + 1][i], s[m][j],
                                             s[m + 1][j + 1], s[m][i]):
                        raise SimplicialError(
                            "s_%d s_%d identity fails at level %d" % (i, j, m)
                        )
        for m in range(T):
            for j in range(m + 1):
                for i in range(m + 2):
                    if i < j:
                        ok = _composites_agree(d[m + 1][i], s[m][j],
                                               s[m - 1][j - 1], d[m][i])
                    elif i <= j + 1:
                        ok = _composes_to_identity(d[m + 1][i], s[m][j])
                    else:
                        ok = _composites_agree(d[m + 1][i], s[m][j],
                                               s[m - 1][j], d[m][i - 1])
                    if not ok:
                        raise SimplicialError(
                            "d_%d s_%d identity fails at level %d" % (i, j, m)
                        )

    # -- chains ----------------------------------------------------------

    def _boundary_column(self, m, r):
        """Alternating sum of the faces out of level m on basis vector r; a
        unit face column adds its sign at its row."""
        p = self.field.characteristic
        out = {}
        for i, face in enumerate(self.faces[m]):
            k = face.unit_rows()[r]
            if k is None:
                axpy(out, (-1) ** i, face.cols[r], p)
            elif k >= 0:
                w = out.get(k, 0) + (-1) ** i
                if p:
                    w %= p
                if w:
                    out[k] = w
                else:
                    del out[k]
        return out

    def boundary(self, m):
        """Alternating sum of the faces out of level m."""
        if m < 1 or m > self.T:
            raise ValueError("no boundary at level %d" % m)
        return Mat(self.field, self.level_dims[m - 1], self.level_dims[m],
                   [self._boundary_column(m, r)
                    for r in range(self.level_dims[m])])

    def unnormalized_chains(self):
        """Unnormalized chains on the full levels (the oracle complex)."""
        diffs = [Mat.zero(self.field, 0, self.level_dims[0])]
        for m in range(1, self.T + 1):
            diffs.append(self.boundary(m))
        return ChainComplex(self.field, self.level_dims, diffs)

    def normalized_chains(self):
        """Quotient of each level by the span of its degeneracy images,
        with the boundary evaluated on normalized basis rows only: a level
        whose images are all unit columns drops the rows hit, any other
        goes through a ColumnEchelon (see NormalizedChains).  Computed on
        first call and kept."""
        if self._chains is not None:
            return self._chains
        bases, echelons, hit = [], [], []
        for m, dim in enumerate(self.level_dims):
            cols = [col for s_i in self.degens[m - 1] for col in s_i.cols] if m else []
            if all(len(col) == 1 for col in cols):
                ech, rows = None, {r for col in cols for r in col}
            else:
                ech = ColumnEchelon(self.field, dim)
                for col in cols:
                    ech.insert(col)
                rows = ech.pivots
            echelons.append(ech)
            hit.append(rows)
            bases.append([r for r in range(dim) if r not in rows])
        self._chains = NormalizedChains(self.field, bases, self._boundary_column,
                                        lambda m, r: r in hit[m], echelons)
        return self._chains

    def homotopy_dims(self):
        """Homology of the normalized chains; certified through T - 1."""
        return self.normalized_chains().homology_dims()

    # -- constructions ----------------------------------------------------

    def tensor(self, other):
        """Levelwise tensor product with diagonal structure maps."""
        return self._levelwise_pair(other, "tensor", lambda x, y: x * y, Mat.kron)

    def direct_sum(self, other):
        return self._levelwise_pair(
            other, "direct sum", lambda x, y: x + y,
            lambda f, g: Mat.block_diag(self.field, [f, g]))

    def _levelwise_pair(self, other, name, dim, combine):
        """The object with levels dim(a, b) and each operator combine(f, g)
        of the two objects' operators: a functor image, since Mat.kron and
        Mat.block_diag keep composites and identities matrix for matrix."""
        if self.field != other.field:
            raise FieldError("%s over different fields" % name)
        if self.T != other.T:
            raise SimplicialError("%s of different truncations" % name)
        dims = [dim(a, b) for a, b in zip(self.level_dims, other.level_dims)]
        return SimplicialVectorSpace._functor_image(
            self.field, dims,
            lambda m, i, to: combine(self.operator(m, i, to), other.operator(m, i, to)),
            None)

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

    @staticmethod
    def json_entry_counts(level_dims):
        """(m, count) for m = 1, 2, ...: the JSON values to_json_dict writes
        for the faces and degeneracies through level m, level dims read
        lazily: between levels m - 1 and m, m + 1 faces and m degeneracies,
        each a list of dense rows, itself and rows x cols entries."""
        count = 0
        for m, (below, dim) in enumerate(pairwise(level_dims), 1):
            count += (2 * m + 1) * (1 + below * dim)
            yield m, count

    @classmethod
    def from_json_dict(cls, data):
        """Inverse of to_json_dict; malformed data raises SimplicialError."""
        for key in ("field", "truncation", "level_dims", "faces", "degeneracies"):
            if key not in data:
                raise SimplicialError("serialized data lacks %r" % key)
        for key in ("field", "truncation"):
            if not _is_count(data[key]):
                raise SimplicialError("%s must be a nonnegative integer" % key)
        field = FieldSpec(data["field"])
        dims = data["level_dims"]
        T = data["truncation"]
        if not isinstance(dims, list) or not all(_is_count(x) for x in dims):
            raise SimplicialError("level_dims must be a list of nonnegative integers")
        if len(dims) != T + 1:
            raise SimplicialError("level_dims length does not match truncation")
        for key in ("faces", "degeneracies"):
            if not isinstance(data[key], list) or len(data[key]) != T + 1:
                raise SimplicialError("%s length does not match truncation" % key)
            if not all(isinstance(level, list) for level in data[key]):
                raise SimplicialError("%s entries must be lists of matrices" % key)
        if data["faces"][0]:
            raise SimplicialError("level 0 has no faces")
        if data["degeneracies"][T]:
            raise SimplicialError("top level has no degeneracies")
        # both are empty, so neither dims[-1] nor dims[T + 1] is read
        faces = [[_mat_from_lists(field, rows, dims[m - 1], dims[m]) for rows in level]
                 for m, level in enumerate(data["faces"])]
        degens = [[_mat_from_lists(field, rows, dims[m + 1], dims[m]) for rows in level]
                  for m, level in enumerate(data["degeneracies"])]
        return cls(field, dims, faces, degens)

    def __repr__(self):
        return "SimplicialVectorSpace(%r, dims=%r)" % (self.field, self.level_dims)


def _entry_to_json(v):
    if v.__class__ is int:
        return v
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return "%d/%d" % (v.numerator, v.denominator)
    return int(v)


def _entry_from_json(x):
    if isinstance(x, bool):
        raise SimplicialError("entry %r is not a number" % x)
    if isinstance(x, str):
        try:
            num, den = x.split("/")
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise SimplicialError("entry %r is not a fraction a/b" % x) from None
    return x


def _mat_to_lists(m):
    return [[_entry_to_json(v) for v in row] for row in m.to_rows()]


def _is_count(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _mat_from_lists(field, rows, nrows, ncols):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SimplicialError("matrix in serialized data is not a list of rows")
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise SimplicialError("matrix shape mismatch in serialized data")
    return Mat.from_rows(field, [[_entry_from_json(x) for x in r] for r in rows],
                         ncols=ncols)


# --------------------------------------------------------------------------
# the inverse Dold-Kan functor


@lru_cache(maxsize=None)
def _jump_masks(m, k):
    """The jump masks of the order-preserving surjections [m] ->> [k], in
    surjections(m, k) order, and the position of each mask in it.

    A surjection is determined by its k jump positions inside {0..m-1}
    (bit j of the mask is set when the value steps up from j to j + 1), so
    there are C(m, k) of them.  Computed once per process.
    """
    masks = tuple(sum(1 << j for j in jumps) for jumps in combinations(range(m), k))
    return masks, {mask: c for c, mask in enumerate(masks)}


def surjections(m, k):
    """Order-preserving surjections [m] ->> [k] as value tuples, sorted."""
    return [tuple(accumulate((mask >> j & 1 for j in range(m)), initial=0))
            for mask in _jump_masks(m, k)[0]]


def _act(mask, m, i, to):
    """The epi-mono factorization of sigma o delta^i (to = m - 1) or
    sigma o eta^i (to = m + 1), sigma: [m] ->> [k] given by its jump mask:
    ("id", e) when the mono part is trivial, ("d", e) when it misses
    exactly k, None otherwise, e the epi part's mask.  eta^i adds a flat
    step at i; delta^i merges steps i - 1 and i, missing sigma(i) when
    both jump (delta^0 misses 0 when step 0 does, delta^m misses k when
    step m - 1 does)."""
    low = mask & ((1 << i) - 1)
    if to > m:
        return "id", low | mask >> i << (i + 1)
    if i == m and mask >> (m - 1) & 1:
        return "d", mask ^ (1 << (m - 1))
    if i == 0:
        return None if mask & 1 else ("id", mask >> 1)
    if mask >> (i - 1) & 3 == 3:
        return None
    return "id", low | mask >> i << (i - 1)


@lru_cache(maxsize=None)
def _gamma_level(dims, m):
    """Level m of gamma of a complex with dimensions dims (a tuple): its
    basis, the (sigma, k, e) in gamma's order, and the position of the
    first of them for each k.  This depends on the shape only, so it is
    computed once per process.  A degree k with dims[k] = 0 adds no basis
    vector, so its C(m, k) surjections are not listed."""
    basis, starts = [], []
    for k in range(min(m, len(dims) - 1) + 1):
        starts.append(len(basis))
        if not dims[k]:
            continue
        for sigma in surjections(m, k):
            for e in range(dims[k]):
                basis.append((sigma, k, e))
    return tuple(basis), tuple(starts)


@lru_cache(maxsize=None)
def _gamma_plan(m, i, to, dims):
    """Gamma's d_i (to = m - 1) or s_i (to = m + 1) out of level m, for a
    complex with dimensions dims, as (rows, blocks): the row map
    (Mat.unit_rows) with a row per unit column, -1 per empty column and
    None per block column, and each block (k, base, start): the columns
    from start on are the complex's d_k, each row moved down by base.  A
    differential into a degree of dimension 0 gives empty columns, not a
    block, so every operator of K(V, n) is a row map alone.  The plan
    holds ints and tuples and depends on the shape only, so it is
    computed once per process.
    """
    offsets = _gamma_level(dims, to)[1]
    rows, blocks = [], []
    for k in range(min(m, len(dims) - 1) + 1):
        n = dims[k]
        if not n:
            continue
        for mask in _jump_masks(m, k)[0]:
            action = _act(mask, m, i, to)
            if action is None or action[0] == "d" and not dims[k - 1]:
                rows += [-1] * n
            elif action[0] == "id":
                base = offsets[k] + _jump_masks(to, k)[1][action[1]] * n
                rows += range(base, base + n)
            else:
                blocks.append((k, offsets[k - 1] + _jump_masks(to, k - 1)[1][action[1]]
                               * dims[k - 1], len(rows)))
                rows += [None] * n
    return tuple(rows), tuple(blocks)


def gamma(field, complex_dims, complex_diffs, T):
    """Simplicial vector space whose normalized chains realize a complex.

    complex_dims[k] is the dimension in degree k; complex_diffs[k] is the
    differential degree k -> k-1 (entry 0 unused), checked by ChainComplex.
    Level m of the result is the sum over order-preserving surjections
    sigma: [m] ->> [k] of a copy of degree k, ordered by k, then sigma (as
    in surjections), then the basis vector e of degree k; basis_labels
    lists the (sigma, k, e).  A simplicial operator phi acts on the sigma
    summand through the epi-mono factorization of sigma o phi, read off
    sigma's jump mask by _act: the identity when the mono part is
    trivial, the differential when the mono part misses exactly the top
    element, and zero otherwise.  Which of the three, and onto which
    summand, depends on the shape only, and so do the levels
    (_gamma_level) and each operator's row map and differential blocks
    (_gamma_plan), both cached.  A complex fills in only the block entries
    of the row map, shifting its differential's; an operator that is then
    unit or empty in every column is Mat.from_unit_rows of it.  Every unit
    or empty column is the shared read-only one of exactfield (see Mat);
    only the other columns of a block are fresh dicts.
    """
    diffs = ChainComplex(field, complex_dims, complex_diffs).diffs
    dims = tuple(complex_dims)
    bases = [list(_gamma_level(dims, m)[0]) for m in range(T + 1)]
    level_dims = [len(b) for b in bases]

    def operator(m, i, to):
        rows, blocks = _gamma_plan(m, i, to, dims)
        rows = list(rows)
        for k, base, start in blocks:
            rows[start:start + dims[k]] = [r if r is None or r < 0 else base + r
                                           for r in diffs[k].unit_rows()]
        if None not in rows:
            return Mat.from_unit_rows(field, level_dims[to], rows)
        units = _unit_columns(level_dims[to])
        cols = [_EMPTY_COLUMN if r is None or r < 0 else units[r] for r in rows]
        for k, base, start in blocks:
            for j, col in enumerate(diffs[k].cols, start):
                if rows[j] is None:
                    cols[j] = {base + a: v for a, v in col.items()}
        return Mat(field, level_dims[to], level_dims[m], cols, rows)

    return SimplicialVectorSpace.from_operators(
        field, level_dims, operator, basis_labels=bases)


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


@lru_cache(maxsize=None)
def constant_object(field, T):
    """gamma(field, [1], [None], T), the constant object on the ground
    field, with one shared 1 x 1 identity for every operator; built and
    checked in full once per (field, T) per process, shared by callers."""
    one = Mat.identity(field, 1)
    return SimplicialVectorSpace.from_operators(
        field, [1] * (T + 1), lambda m, i, to: one,
        basis_labels=[[((0,) * (m + 1), 0, 0)] for m in range(T + 1)])


def zero_object(field, T):
    return gamma(field, [0], [None], T)

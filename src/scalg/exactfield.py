"""Exact linear algebra over the prime fields F_p and over the rationals.

Everything downstream (chain complexes, homotopy groups, bar constructions)
reduces to rank and kernel computations done here.  Three requirements
shape the module:

* arithmetic is exact, never floating point: F_p elements are canonical
  integers in 0..p-1; rational entries are Python ints wherever they are
  built from integers, and ``fractions.Fraction`` enters only through
  non-integer input and where elimination divides by a pivot;
* this is the only module that knows field arithmetic.  Structure maps
  (faces, degeneracies, symmetric powers, multiplication tables, bar
  faces) are defined over the integers, so their constructors compute
  with plain ``+`` and ``*`` and hand each computed column to
  ``canonical``, the one point where numbers become field elements
  (reduced mod p, zeros dropped); a column of literal 1s, or of entries
  copied from a field matrix, is one already.  ``FieldSpec.element``
  validates outside input and ``FieldSpec.inv`` serves elimination;
* elimination is deterministic, so a given matrix always produces
  bit-for-bit identical ranks, kernels and echelon data.  ``ColumnEchelon``
  processes columns left to right and pivots a reduced column on its
  smallest nonzero row index.  Rank-only elimination (``pivot_rows``)
  first reorders, which a rank does not see: columns lightest first, and
  rows relabelled by ascending nonzero count, so the same smallest-row
  rule pivots on sparse rows and fill-in stays low.

Matrices are stored column-sparse (one dict per column), which keeps the
very sparse face/degeneracy/multiplication matrices of the simplicial
machinery cheap.  ``axpy`` is the shared sparse update and ``ColumnEchelon``
the one exact elimination kernel.  ``pivot_rows`` alone, needing no
residues, runs F_2 on bitmask columns (Python big ints) and Q on
fraction-free integer columns; ``rank`` is the number of its rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class FieldError(ValueError):
    """Raised for invalid field specs or field/entry mismatches."""


# The first twelve primes: as Miller-Rabin bases they decide primality
# exactly for every n < 2**64 (no strong pseudoprime to all of them is
# that small), which is why characteristics are capped there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_CHARACTERISTIC = 2**64


def _is_prime(n):
    """Deterministic Miller-Rabin, exact for n < MAX_CHARACTERISTIC."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The ground field: characteristic 0 (rationals) or a prime p (F_p)."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic):
        if characteristic >= MAX_CHARACTERISTIC:
            raise FieldError(
                "characteristic must be below 2**64, got %r" % (characteristic,)
            )
        if characteristic != 0 and not _is_prime(characteristic):
            raise FieldError(
                "characteristic must be 0 or a prime, got %r" % (characteristic,)
            )
        self.characteristic = characteristic

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and other.characteristic == self.characteristic
        )

    def __hash__(self):
        return hash(("FieldSpec", self.characteristic))

    def __repr__(self):
        if self.characteristic == 0:
            return "FieldSpec(0)"
        return "FieldSpec(%d)" % self.characteristic

    # -- elements ---------------------------------------------------------

    def element(self, x):
        """Canonicalize outside input as a field element; reject mismatches.

        Over Q an int stays an int and a Fraction stays a Fraction.
        """
        p = self.characteristic
        if p == 0:
            if isinstance(x, (int, Fraction)):
                return x
            raise FieldError("rational entries must be int or Fraction, got %r" % (x,))
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise FieldError("denominator of %r not invertible mod %d" % (x, p))
            return x.numerator * pow(x.denominator, -1, p) % p
        if isinstance(x, int):
            return x % p
        raise FieldError("F_%d entries must be integers, got %r" % (p, x))

    def inv(self, a):
        """Inverse of a nonzero element; over Q an integral inverse is an int."""
        p = self.characteristic
        if p == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            inverse = 1 / Fraction(a)
            return inverse.numerator if inverse.denominator == 1 else inverse
        return pow(a, -1, p)


QQ = FieldSpec(0)
GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def canonical(col, p):
    """The field column of a sparse column of exact numbers.

    The one point where structure-map entries, computed over the integers
    (or over Q), become field elements: reduced mod p, or kept as they are
    over Q (p == 0), with zeros dropped either way.
    """
    if p:
        return {i: w for i, v in col.items() if (w := v % p)}
    return {i: v for i, v in col.items() if v}


def axpy(acc, c, vec, p):
    """acc += c * vec on sparse vectors, in place; returns acc.

    Arithmetic is mod p, or exact over Q when p == 0; entries that become
    zero are dropped, so acc stays canonical.
    """
    if p:
        for i, v in vec.items():
            w = (acc.get(i, 0) + c * v) % p
            if w:
                acc[i] = w
            else:
                acc.pop(i, None)
    else:
        for i, v in vec.items():
            w = acc.get(i, 0) + c * v
            if w:
                acc[i] = w
            else:
                acc.pop(i, None)
    return acc


class Mat:
    """Column-sparse exact matrix over a FieldSpec.

    ``cols[j]`` maps row index to a nonzero field element.  Shapes with
    zero rows or columns are legal and common (empty chain groups).
    """

    __slots__ = ("field", "nrows", "ncols", "cols")

    def __init__(self, field, nrows, ncols, cols=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        if cols is None:
            cols = [dict() for _ in range(ncols)]
        if len(cols) != ncols:
            raise ValueError("column count mismatch")
        self.cols = cols

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        """Build from a dense list of row lists (entries canonicalized)."""
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        cols = [dict() for _ in range(ncols)]
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, x in enumerate(row):
                v = field.element(x)
                if v != 0:
                    cols[j][i] = v
        return cls(field, nrows, ncols, cols)

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls(field, nrows, ncols)

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, [{i: 1} for i in range(n)])

    # -- basics ---------------------------------------------------------

    def to_rows(self):
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def is_zero(self):
        return all(not c for c in self.cols)

    def nnz(self):
        return sum(len(c) for c in self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.cols == other.cols
        )

    def __repr__(self):
        return "Mat(%r, %dx%d, nnz=%d)" % (
            self.field,
            self.nrows,
            self.ncols,
            self.nnz(),
        )

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        self._check_same_shape(other)
        p = self.field.characteristic
        cols = [axpy(dict(a), 1, b, p) for a, b in zip(self.cols, other.cols)]
        return Mat(self.field, self.nrows, self.ncols, cols)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a):
        a = self.field.element(a)
        p = self.field.characteristic
        return Mat(
            self.field,
            self.nrows,
            self.ncols,
            [canonical({i: a * v for i, v in c.items()}, p) for c in self.cols],
        )

    def __matmul__(self, other):
        """Composition self @ other, i.e. (self o other) on column vectors."""
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field:
            raise FieldError("field mismatch in matrix product")
        if self.ncols != other.nrows:
            raise ValueError(
                "shape mismatch: %dx%d @ %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        out = [self.apply(bcol) for bcol in other.cols]
        return Mat(self.field, self.nrows, other.ncols, out)

    def apply(self, vec):
        """Apply to a sparse vector {index: value}; returns a sparse vector."""
        p = self.field.characteristic
        acc = {}
        for k, bv in vec.items():
            axpy(acc, bv, self.cols[k], p)
        return acc

    def transpose(self):
        cols = [dict() for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                cols[i][j] = v
        return Mat(self.field, self.ncols, self.nrows, cols)

    def hstack(self, other):
        self._check_same_field(other)
        if self.nrows != other.nrows:
            raise ValueError("hstack row mismatch")
        return Mat(
            self.field,
            self.nrows,
            self.ncols + other.ncols,
            [dict(c) for c in self.cols] + [dict(c) for c in other.cols],
        )

    def vstack(self, other):
        self._check_same_field(other)
        if self.ncols != other.ncols:
            raise ValueError("vstack column mismatch")
        cols = []
        for a, b in zip(self.cols, other.cols):
            c = dict(a)
            for i, v in b.items():
                c[i + self.nrows] = v
            cols.append(c)
        return Mat(self.field, self.nrows + other.nrows, self.ncols, cols)

    def kron(self, other):
        """Kronecker product: row/column index pairs flattened row-major."""
        self._check_same_field(other)
        p = self.field.characteristic
        cols = []
        for j1 in range(self.ncols):
            c1 = self.cols[j1]
            for j2 in range(other.ncols):
                c2 = other.cols[j2]
                col = {}
                for i1, v1 in c1.items():
                    for i2, v2 in c2.items():
                        col[i1 * other.nrows + i2] = v1 * v2
                cols.append(canonical(col, p))
        return Mat(self.field, self.nrows * other.nrows, self.ncols * other.ncols,
                   cols)

    @classmethod
    def block_diag(cls, field, blocks):
        nrows = sum(b.nrows for b in blocks)
        cols = []
        off = 0
        for b in blocks:
            if b.field != field:
                raise FieldError("field mismatch in block_diag")
            for c in b.cols:
                cols.append({i + off: v for i, v in c.items()})
            off += b.nrows
        return cls(field, nrows, len(cols), cols)

    def _check_same_field(self, other):
        if self.field != other.field:
            raise FieldError("field mismatch")

    def _check_same_shape(self, other):
        self._check_same_field(other)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")


class ColumnEchelon:
    """Incremental column echelon form with optional combination tracking.

    Columns are fed in one at a time and reduced against the pivots seen so
    far; a surviving column is normalized (pivot entry 1) and becomes a new
    pivot at its smallest nonzero row.  With ``track=True`` every reduction
    also returns the coefficients expressing the removed part in terms of
    the previously inserted columns, which is what homology representatives
    and linear solves need.

    This is the one exact kernel for every field; the bitmask F_2 and
    fraction-free Q paths are rank-only and live in ``rank``.
    """

    def __init__(self, field, nrows, track=False):
        self.field = field
        self.nrows = nrows
        self.track = track
        self.pivots = {}  # pivot row -> index into self.columns
        self.columns = []  # echelon columns (normalized)
        self.combos = []  # combos[i]: dict old-col-index -> coeff
        self.ninserted = 0

    @property
    def rank(self):
        return len(self.columns)

    def reduce(self, col):
        """Reduce a sparse column; return (residue, combo) (combo None if untracked).

        The residue is exact: col minus the combination of inserted columns
        that combo records.
        """
        p = self.field.characteristic
        col = axpy({}, 1, col, p)
        combo = {} if self.track else None
        while col:
            low = min(col)
            j = self.pivots.get(low)
            if j is None:
                break
            c = col[low]  # pivot of stored column is 1
            axpy(col, -c, self.columns[j], p)
            if self.track:
                axpy(combo, c, self.combos[j], p)
        return (col, combo)

    def insert(self, col):
        """Insert a column; return (new_pivot_row or None, combo-of-reduction)."""
        p = self.field.characteristic
        idx = self.ninserted
        self.ninserted += 1
        residue, combo = self.reduce(col)
        if not residue:
            return (None, combo)
        low = min(residue)
        inv = self.field.inv(residue[low])
        self.pivots[low] = len(self.columns)
        self.columns.append(axpy({}, inv, residue, p))
        if self.track:
            # normalized column = inv*col_idx - sum inv*combo[k]*col_k
            self.combos.append(axpy({idx: inv}, -inv, combo, p))
        return (low, combo)


def _pivots_f2(cols, label):
    """Pivot rows (relabelled) of columns over F_2, packed into int bitmasks."""
    pivots = {}  # pivot row -> bitmask column
    for col in cols:
        m = 0
        for i in col:
            m |= 1 << label[i]
        while m:
            low = (m & -m).bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = m
                break
            m ^= piv
    return pivots


def _pivots_q(cols, label):
    """Pivot rows (relabelled) of columns over Q, each known up to a nonzero scale.

    A column is cleared of denominators; to kill its entry at a pivot row,
    cross-multiply (a*col - c*pivotcol) and strip the content, which keeps
    the span and keeps entries integral and small.
    """
    pivots = {}  # pivot row -> integer column
    for col in cols:
        den = lcm(*[v.denominator for v in col.values()])
        col = {label[i]: int(v * den) for i, v in col.items() if v}
        while col:
            low = min(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            a = piv[low]
            c = col[low]
            new = {}
            g = 0
            for i in set(col) | set(piv):
                w = a * col.get(i, 0) - c * piv.get(i, 0)
                if w:
                    new[i] = w
                    g = gcd(g, w)
            if g > 1:
                new = {i: v // g for i, v in new.items()}
            col = new
    return pivots


def _check_field_arg(M, field):
    if field is not None and field != M.field:
        raise FieldError(
            "matrix over %r used with field %r" % (M.field, field)
        )


def pivot_rows(M, field=None, drop=()):
    """Pivot rows of a rank-only elimination of the columns of M whose
    indices are not in drop.

    The image of those columns maps isomorphically onto the coordinates at
    the returned rows, so their number is the rank.  Rank does not depend
    on the order of rows or columns, so the elimination reorders first:
    columns go lightest first, and rows are relabelled by ascending nonzero
    count, so that the smallest-row rule pivots on sparse rows.  The order
    depends only on the columns eliminated, so the result is deterministic.
    F_2 runs on bitmask columns, Q on fraction-free integer columns, other
    fields on an untracked ColumnEchelon.
    """
    _check_field_arg(M, field)
    cols = [c for j, c in enumerate(M.cols) if j not in drop] if drop else list(M.cols)
    count = {}
    for col in cols:
        for i in col:
            count[i] = count.get(i, 0) + 1
    if not count:
        return set()  # no nonzero entry, nothing to eliminate
    cols.sort(key=len)
    order = sorted(count, key=count.__getitem__)
    label = {i: r for r, i in enumerate(order)}
    p = M.field.characteristic
    if p == 2:
        pivots = _pivots_f2(cols, label)
    elif p == 0:
        pivots = _pivots_q(cols, label)
    else:
        ech = ColumnEchelon(M.field, M.nrows)
        for col in cols:
            ech.insert({label[i]: v for i, v in col.items()})
        pivots = ech.pivots
    return {order[r] for r in pivots}


def rank(M, field=None):
    """Rank of M over its field; field argument cross-checks the spec."""
    return len(pivot_rows(M, field))


def kernel_basis(M, field=None):
    """Matrix whose columns are a basis of ker M (deterministic choice).

    Columns are produced in order of the free columns of the echelon form;
    the result K satisfies M @ K = 0 and has ncols(M) - rank(M) columns.
    """
    _check_field_arg(M, field)
    F = M.field
    ech = ColumnEchelon(F, M.nrows, track=True)
    kernel_cols = []
    for j, col in enumerate(M.cols):
        pivot, combo = ech.insert(col)
        if pivot is None:
            # col_j = sum combo[k] * col_k, so col_j - sum ... = 0
            kernel_cols.append(axpy({j: 1}, -1, combo, F.characteristic))
    return Mat(F, M.ncols, len(kernel_cols), kernel_cols)


def solve(M, target, field=None):
    """One solution x of M x = target (sparse dicts), or None if unsolvable."""
    _check_field_arg(M, field)
    F = M.field
    ech = ColumnEchelon(F, M.nrows, track=True)
    for col in M.cols:
        ech.insert(col)
    residue, combo = ech.reduce(target)
    if residue:
        return None
    return dict(combo)


def homology_dim(d_in, d_out, field=None):
    """dim ker(d_out) - rank(d_in) for a composable pair with d_out o d_in = 0.

    d_in carries boundaries into the middle group, d_out maps out of it.
    """
    _check_field_arg(d_in, field)
    _check_field_arg(d_out, field)
    if d_in.field != d_out.field:
        raise FieldError("field mismatch between differentials")
    if d_out.ncols != d_in.nrows:
        raise ValueError(
            "differentials not composable: d_out has %d columns, d_in has %d rows"
            % (d_out.ncols, d_in.nrows)
        )
    if not (d_out @ d_in).is_zero():
        raise ValueError("d_out o d_in != 0")
    # d_out kills im d_in, which the pivot rows of d_in carry isomorphically,
    # so rank d_out is the rank of its columns outside those rows
    rows = pivot_rows(d_in)
    return d_out.ncols - len(pivot_rows(d_out, drop=rows)) - len(rows)

"""Exact linear algebra over the prime fields F_p and over the rationals.

Everything downstream (chain complexes, homotopy groups, bar constructions)
reduces to rank and kernel computations done here.  Three requirements
shape the module:

* arithmetic is exact, never floating point: F_p elements are canonical
  integers in 0..p-1; rational entries are Python ints wherever they are
  built from integers, and ``fractions.Fraction`` enters only through
  non-integer input and where elimination divides by a pivot;
* this is the only module that knows field arithmetic.  Structure maps
  (faces, degeneracies, symmetric powers, monomial products, bar faces)
  are defined over the integers, so their constructors compute
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
very sparse face/degeneracy matrices of the simplicial machinery cheap.
``axpy`` is the shared sparse update and ``ColumnEchelon`` the one exact
elimination kernel: kernels, solves and homology representatives run on
it, and so does the quotient of a level by its degenerate span
(``normal_form``) when some degeneracy image has more than one entry; the
unit images of every constructed object span coordinates, which
``simplicial.NormalizedChains`` drops without elimination.
``pivot_rows`` alone, needing no residues, runs F_2 on bitmask columns
(Python big ints) and Q on fraction-free integer columns; ``rank`` is the
number of its rows.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType


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


# The shared read-only columns: wherever a builder named in the Mat
# docstring makes the column {r: 1} or an empty one, it takes
# _UNIT_COLUMNS[r] or _EMPTY_COLUMN, which costs one list slot instead of
# one dict.  They are MappingProxyType views, so an in-place edit raises
# TypeError instead of changing every matrix that holds them.
_EMPTY_COLUMN = MappingProxyType({})
_UNIT_COLUMNS = []
_UNIT_COLUMNS_LOCK = threading.Lock()


def _unit_columns(n):
    """The table of shared columns, grown so that entry r is {r: 1} for
    every r < n.  Growth appends in order under a lock, so a thread that
    sees n entries reads finished ones."""
    table = _UNIT_COLUMNS
    if len(table) < n:
        with _UNIT_COLUMNS_LOCK:
            for r in range(len(table), n):
                table.append(MappingProxyType({r: 1}))
    return table


def _shared(col):
    """col, or the shared column equal to it when it is {k: 1} or empty."""
    k = _unit_row(col)
    if k is None:
        return col
    return _EMPTY_COLUMN if k < 0 else _unit_columns(k + 1)[k]


class Mat:
    """Column-sparse exact matrix over a FieldSpec.

    ``cols[j]`` maps row index to a nonzero field element.  Shapes with
    zero rows or columns are legal and common (empty chain groups).

    Most structure maps send each basis vector to one basis vector or to
    zero, so every Mat has one row map, ``unit_rows()``: per column the
    row k when the column is exactly {k: 1}, -1 when it is empty, and
    None otherwise.  It is computed from ``cols`` on first call, or handed
    to the constructor by a builder that made the columns from it, and
    then cached.  A Mat must therefore not be edited after construction.

    The unit and empty columns that ``from_unit_rows``, ``zero``,
    ``identity``, ``kron``, the default ``cols`` and ``simplicial.gamma``
    build are not fresh dicts: column {r: 1} is the one shared read-only
    view of row r, and an empty column the one shared empty view, so
    editing one raises TypeError.  Readers see ordinary mappings.
    """

    __slots__ = ("field", "nrows", "ncols", "cols", "_unit_rows")

    def __init__(self, field, nrows, ncols, cols=None, unit_rows=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        if cols is None:
            cols = [_EMPTY_COLUMN] * ncols
        if len(cols) != ncols:
            raise ValueError("column count mismatch")
        self.cols = cols
        self._unit_rows = unit_rows

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
        return cls(field, n, n, _unit_columns(n)[:n], list(range(n)))

    @classmethod
    def from_unit_rows(cls, field, nrows, rows):
        """The matrix with the given row map, every column unit or empty
        (see unit_rows)."""
        units = _unit_columns(nrows)
        return cls(field, nrows, len(rows),
                   [units[r] if r >= 0 else _EMPTY_COLUMN for r in rows], rows)

    # -- basics ---------------------------------------------------------

    def to_rows(self):
        """Dense row lists; ValueError for a row index outside the matrix,
        which __init__ does not check."""
        nrows = self.nrows
        rows = [[0] * self.ncols for _ in range(nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                if not 0 <= i < nrows:
                    raise ValueError("column %d has an entry in row %d, "
                                     "outside rows 0..%d" % (j, i, nrows - 1))
                rows[i][j] = v
        return rows

    def is_zero(self):
        return all(not c for c in self.cols)

    def unit_rows(self):
        """Per column: the row k of a column {k: 1}, -1 for an empty column,
        None for any other; cached (see the class docstring)."""
        rows = self._unit_rows
        if rows is None:
            rows = self._unit_rows = [_unit_row(col) for col in self.cols]
        return rows

    def nnz(self):
        return sum(len(c) for c in self.cols)

    def __reduce__(self):
        # the shared columns are views, which do not pickle: pickle and
        # copy a Mat with plain dict columns
        return (Mat, (self.field, self.nrows, self.ncols,
                      [dict(c) for c in self.cols]))

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

    def kron(self, other):
        """Kronecker product: row/column index pairs flattened row-major.

        When every column of both factors is unit or empty, column (c1, c2)
        is {r1 * n2 + r2: 1} or empty, read off the two row maps, and the
        product's row map comes with it.  Otherwise a zero column of self
        gives a block of empty columns, and over Q a product of nonzero
        entries is nonzero, so only F_p columns go through canonical; a
        product that is unit or empty is the shared column.
        """
        self._check_same_field(other)
        p = self.field.characteristic
        n2 = other.nrows
        rows1, rows2 = self.unit_rows(), other.unit_rows()
        if None not in rows1 and None not in rows2:
            return Mat.from_unit_rows(
                self.field, self.nrows * n2,
                [-1 if r1 < 0 or r2 < 0 else r1 * n2 + r2
                 for r1 in rows1 for r2 in rows2])
        cols = []
        for c1 in self.cols:
            if not c1:
                cols += [_EMPTY_COLUMN] * other.ncols
                continue
            for c2 in other.cols:
                col = {i1 * n2 + i2: v1 * v2
                       for i1, v1 in c1.items() for i2, v2 in c2.items()}
                cols.append(_shared(canonical(col, p) if p else col))
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


def _unit_row(col):
    """The row map entry of one column (see Mat.unit_rows)."""
    if not col:
        return -1
    if len(col) == 1:
        for k, v in col.items():
            if v == 1:
                return k
    return None


class ColumnEchelon:
    """Incremental column echelon form with optional combination tracking.

    Columns are fed in one at a time and reduced against the pivots seen so
    far; a surviving column is normalized (pivot entry 1) and becomes a new
    pivot at its smallest nonzero row.  With ``track=True`` every reduction
    also returns the coefficients expressing the removed part in terms of
    the previously inserted columns, which is what homology representatives
    and linear solves need.

    This is the one exact kernel for every field; the bitmask F_2 and
    fraction-free Q paths are rank-only and live in ``pivot_rows``.
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
        col = canonical(col, p)
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

    def normal_form(self, col):
        """col reduced at every pivot row, not only the leading one.

        The result is the one representative of col modulo the inserted
        span that is supported off the pivot rows: the span maps
        isomorphically onto the pivot-row coordinates.  A stored column has
        no entry above its pivot row, so clearing the smallest pivot row
        left never refills a smaller one.
        """
        p = self.field.characteristic
        col = canonical(col, p)
        while True:
            hit = [r for r in col if r in self.pivots]
            if not hit:
                return col
            r = min(hit)
            axpy(col, -col[r], self.columns[self.pivots[r]], p)

    def insert(self, col):
        """Insert a column; return (new_pivot_row or None, combo-of-reduction)."""
        p = self.field.characteristic
        idx = self.ninserted
        self.ninserted += 1
        residue, combo = self.reduce(col)
        if not residue:
            return (None, combo)
        low = min(residue)
        if residue[low] == 1:
            inv = 1  # normalized already; residue is a fresh dict, kept as is
        else:
            inv = self.field.inv(residue[low])
            residue = axpy({}, inv, residue, p)
        self.pivots[low] = len(self.columns)
        self.columns.append(residue)
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


def pivot_rows(M, drop=()):
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


def rank(M):
    """Rank of M over its field."""
    return len(pivot_rows(M))


def kernel_basis(M):
    """Matrix whose columns are a basis of ker M (deterministic choice).

    Columns are produced in order of the free columns of the echelon form;
    the result K satisfies M @ K = 0 and has ncols(M) - rank(M) columns.
    """
    F = M.field
    ech = ColumnEchelon(F, M.nrows, track=True)
    kernel_cols = []
    for j, col in enumerate(M.cols):
        pivot, combo = ech.insert(col)
        if pivot is None:
            # col_j = sum combo[k] * col_k, so col_j - sum ... = 0
            kernel_cols.append(axpy({j: 1}, -1, combo, F.characteristic))
    return Mat(F, M.ncols, len(kernel_cols), kernel_cols)


def solve(M, target):
    """One solution x of M x = target (sparse dicts), or None if unsolvable."""
    F = M.field
    ech = ColumnEchelon(F, M.nrows, track=True)
    for col in M.cols:
        ech.insert(col)
    residue, combo = ech.reduce(target)
    if residue:
        return None
    return dict(combo)


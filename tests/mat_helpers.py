"""Matrix operations that only the tests need, on scalg.exactfield.Mat."""

from scalg.exactfield import Mat, canonical


def is_zero(mat):
    """Every column of mat is empty."""
    return not any(mat.cols)


def scale(mat, a):
    """a * mat, a canonicalized as an element of mat's field."""
    a = mat.field.element(a)
    p = mat.field.characteristic
    return Mat(mat.field, mat.nrows, mat.ncols,
               [canonical({i: a * v for i, v in col.items()}, p) for col in mat.cols])


def transpose(mat):
    """The transpose of mat."""
    cols = [{} for _ in range(mat.nrows)]
    for j, col in enumerate(mat.cols):
        for i, v in col.items():
            cols[i][j] = v
    return Mat(mat.field, mat.ncols, mat.nrows, cols)

"""Structure maps are integral: a build over F_p is the build over Q
reduced mod p, entry by entry, and a build over Q holds only ints.
"""

import pytest

from scalg.exactfield import GF2, GF3, QQ, Mat
from scalg.simplicial import gamma
from scalg.symalg import sym_power_covering_complex, symmetric_power

# an integral complex Z^1 -> Z^3 -> Z^2 with d1 d2 = 0 over Z, whose
# entries 2, 3 and -1 reduce differently mod 2 and mod 3
D1 = [[2, -1, 0], [3, 0, -1]]
D2 = [[1], [2], [3]]


def integral_gamma(field, T):
    diffs = [None, Mat.from_rows(field, D1), Mat.from_rows(field, D2)]
    return gamma(field, [2, 3, 1], diffs, T)


def structure_matrices(V):
    return [M for level in V.faces + V.degens for M in level]


def reduced(M, p):
    return [{i: v % p for i, v in col.items() if v % p} for col in M.cols]


def assert_reduction(over_q, over_p, p):
    assert len(over_q) == len(over_p)
    for Mq, Mp in zip(over_q, over_p):
        assert (Mq.nrows, Mq.ncols) == (Mp.nrows, Mp.ncols)
        assert reduced(Mq, p) == Mp.cols


def assert_int_entries(mats):
    values = [v for M in mats for col in M.cols for v in col.values()]
    assert values and all(type(v) is int for v in values)
    assert any(v != 1 for v in values)  # some entry changes under reduction


def test_gamma_specialises_by_reduction():
    over_q = structure_matrices(integral_gamma(QQ, 4))
    assert_int_entries(over_q)
    for F in (GF2, GF3):
        over_p = structure_matrices(integral_gamma(F, 4))
        assert_reduction(over_q, over_p, F.characteristic)


def test_symmetric_power_specialises_by_reduction():
    over_q = structure_matrices(symmetric_power(integral_gamma(QQ, 3), 2))
    assert_int_entries(over_q)
    for F in (GF2, GF3):
        over_p = structure_matrices(symmetric_power(integral_gamma(F, 3), 2))
        assert_reduction(over_q, over_p, F.characteristic)


@pytest.mark.parametrize("q,n,d,T", [(2, 1, 3, 4), (1, 2, 3, 6)])
def test_covering_complex_specialises_by_reduction(q, n, d, T):
    cx_q, top_q = sym_power_covering_complex(QQ, q, n, d, T)
    assert_int_entries(cx_q.diffs[1:])
    for F in (GF2, GF3):
        cx_p, top_p = sym_power_covering_complex(F, q, n, d, T)
        assert top_p == top_q
        assert_reduction(cx_q.diffs[1:], cx_p.diffs[1:], F.characteristic)

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import itertools
import math
import random

import pytest

from scalg.exactfield import Mat, QQ, GF2, GF3, rank, kernel_basis
from scalg.simplicial import eilenberg_maclane, gamma
from scalg.symalg import (
    indecomposables,
    hurewicz,
    sphere_algebra,
    sphere_homotopy,
    symmetric_power,
)
from scalg.barcof import power_cofiber_tables
from scalg.series import (
    asymptotic_check,
    from_dims,
    leq,
    mul,
    sphere_series_char0,
)
from scalg.audit import EnvelopeProfile, rational_check, serre_audit
from scalg.cli import main as cli_main


def _ok(num, message):
    print("ACCEPTANCE %2d: PASS  %s" % (num, message))


def free_graded_commutative_dims(q, n, upto):
    coeffs = [1] + [0] * upto
    for _ in range(q):
        if n % 2 == 0:
            for i in range(n, upto + 1):
                coeffs[i] += coeffs[i - n]
        else:
            for i in range(upto, n - 1, -1):
                coeffs[i] += coeffs[i - n]
    return coeffs


@pytest.fixture(scope="module")
def cofiber_reports():
    return {
        (1, 2): power_cofiber_tables(1, 2),          # T = 6: degrees <= 5
        (1, 3): power_cofiber_tables(1, 3, T=7),     # degrees <= 6
        (2, 2): power_cofiber_tables(2, 2, T=8, W=2, N=2),
    }


def test_01_eilenberg_maclane_correctness():
    for field in (QQ, GF2):
        for q in (1, 2):
            for n in (1, 2, 3):
                T = n + 4
                k = eilenberg_maclane(field, q, n, T)
                h = k.homotopy_dims()
                assert h.certified_degree == T - 1
                for m in range(T):
                    assert h[m] == (q if m == n else 0), (field, q, n, m)
    _ok(1, "homotopy of K(V, n) is V in degree n for q <= 2, n <= 3, T = n+4,"
           " char 0 and 2")


def _random_gamma(rng, field, T, max_dim=3):
    dims = [rng.randint(0, max_dim) for _ in range(T + 1)]
    diffs = [None]
    prev_kernel = None
    for m in range(1, T + 1):
        if m == 1:
            d = Mat.from_rows(
                field,
                [[rng.randint(-2, 2) for _ in range(dims[1])]
                 for _ in range(dims[0])],
                ncols=dims[1],
            )
        else:
            mix = Mat.from_rows(
                field,
                [[rng.randint(-2, 2) for _ in range(dims[m])]
                 for _ in range(prev_kernel.ncols)],
                ncols=dims[m],
            )
            d = prev_kernel @ mix
        diffs.append(d)
        prev_kernel = kernel_basis(d)
    return gamma(field, dims, diffs, T)


def test_02_dual_oracle_agreement():
    rng = random.Random(2024)
    fields = [QQ, GF2, GF3]
    corpus = []
    for i in range(50):
        corpus.append(_random_gamma(rng, fields[i % 3], rng.randint(1, 4)))
    for field in (QQ, GF2):
        for q in (1, 2):
            for n in (1, 2, 3):
                corpus.append(eilenberg_maclane(field, q, n, n + 2))
    for field in (QQ, GF2, GF3):
        for (q, n, d, T) in [(1, 1, 2, 4), (1, 1, 3, 4), (1, 2, 2, 5),
                             (2, 1, 2, 4), (1, 2, 3, 5)]:
            corpus.append(symmetric_power(eilenberg_maclane(field, q, n, T), d))
    checked = 0
    for v in corpus:
        hn = v.normalized_chains().homology_dims()
        hu = v.unnormalized_chains().homology_dims()
        for m in range(v.T):
            assert hn[m] == hu[m], (v, m)
        checked += 1
    assert checked >= 50 + 12 + 15
    _ok(2, "normalized and unnormalized homology agree on %d objects "
           "(randomized plus every K and Sym instance)" % checked)


def test_03_char0_sphere_homotopy_closed_forms():
    for q in (1, 2):
        for n in (1, 2, 3, 4):
            T = 9
            W = math.ceil(8 / n)
            r = sphere_homotopy(QQ, q, n, T, W)
            want = free_graded_commutative_dims(q, n, 8)
            assert r.certified_degree >= 8, (q, n)
            for m in range(9):
                assert r.dims[m] == want[m], (q, n, m, r.dims, want)
    _ok(3, "brute-force sphere homotopy equals free graded-commutative "
           "closed forms for q <= 2, n <= 4, degree <= 8")


def test_04_dold_invariance():
    for field in (QQ, GF2):
        for n in (1, 2):
            T, W = n + 3, 3
            minimal = eilenberg_maclane(field, 1, n, T)
            acyclic = gamma(
                field,
                [0] * (n + 1) + [1, 1],
                [None] + [Mat.zero(field, 0, 0)] * n
                + [Mat.zero(field, 0, 1), Mat.identity(field, 1)],
                T,
            )
            fat = minimal.direct_sum(acyclic)
            report = sphere_homotopy(field, 1, n, T, W)
            stable = report.stable_through()
            assert stable >= n + 1
            dims_fat = [0] * (T + 1)
            dims_fat[0] = 1
            for d in range(1, W + 1):
                h = symmetric_power(fat, d).homotopy_dims()
                for m in range(T):
                    dims_fat[m] += h[m]
            for m in range(min(stable, T - 1) + 1):
                assert report.dims[m] == dims_fat[m], (field, n, m)
    _ok(4, "weakly equivalent models of K(l, n), n <= 2, have identical "
           "sphere homotopy in certified stable degrees, char 0 and 2")


def test_05_hurewicz_iso_and_surjectivity():
    for field in (QQ, GF2):
        for n in (1, 2, 3):
            A = sphere_algebra(field, 1, n, n + 2, 3)
            h = hurewicz(A)
            assert h[n].nrows == 1 and h[n].ncols == 1
            assert rank(h[n]) == 1, (field, n)
            assert rank(h[n + 1]) == h[n + 1].nrows, (field, n)
    _ok(5, "hurewicz comparison is an isomorphism in degree n and a "
           "surjection in degree n+1 on S(l, n), n <= 3, char 0 and 2")


def test_06_homology_of_spheres():
    for field in (QQ, GF2):
        for q in (1, 2):
            for n in (1, 2, 3):
                A = sphere_algebra(field, q, n, n + 2, 2)
                h = indecomposables(A).homotopy_dims()
                for m in range(n + 2):
                    assert h[m] == (q if m == n else 0), (field, q, n, m)
    _ok(6, "indecomposables of S(V, n) have homotopy V concentrated in "
           "degree n across the parameter grid")


def test_07_power_cofiber_tables(cofiber_reports):
    rep12 = cofiber_reports[(1, 2)]
    assert rep12.certified_degree >= 5
    assert rep12.pi_dims[:6] == [1, 0, 1, 0, 0, 0]
    assert all(rep12.pi_flags[:6])
    assert rep12.hq_dims.data == {2: 1, 5: 1}
    rep13 = cofiber_reports[(1, 3)]
    assert rep13.certified_degree >= 6
    assert rep13.pi_dims[:7] == [1, 0, 1, 0, 1, 0, 0]
    assert all(rep13.pi_flags[:7])
    assert rep13.hq_dims.data == {2: 1, 7: 1}
    rep22 = cofiber_reports[(2, 2)]
    assert rep22.pi_dims[:8] == [1, 0, 0, 0, 1, 0, 0, 0]
    assert all(rep22.pi_flags[:8])
    assert rep22.hq_dims.data == {4: 1, 9: 1}
    _ok(7, "power-map cofiber homotopy matches the closed-form tables: "
           "(1,2) through degree 5, (1,3) through degree 6, (2,2) through "
           "degree 7, flags true; homology reported per table")


def test_08_series_inequality_on_cofibres(cofiber_reports):
    for (r, s), rep in cofiber_reports.items():
        upto = rep.certified_degree
        theta_mid = sphere_series_char0(1, 2 * r, upto)
        theta_src = sphere_series_char0(1, 2 * r * s, upto)
        theta_cof = from_dims(rep.pi_dims[: upto + 1])
        assert leq(theta_mid, mul(theta_src, theta_cof)), (r, s)
    _ok(8, "the cofibration series inequality theta(B) <= theta(A) theta(C) "
           "holds coefficientwise on every computed cofiber triple")


def test_09_serre_audit_grid():
    total = 0
    for n in (2, 3, 4):
        for qs in itertools.product(range(3), repeat=n - 1):
            for qn in (1, 2):
                dims = {s + 1: v for s, v in enumerate(qs)}
                dims[n] = qn
                for p in (2, 3):
                    for D in (p + 1, 100):
                        v = serre_audit(EnvelopeProfile(p, dims, pi_bound=D))
                        assert v.outcome == "contradiction", (dims, p, D)
                        assert v.verify(), (dims, p, D)
                        total += 1
    for p in (2, 3):
        for q1 in (1, 2):
            v = serre_audit(EnvelopeProfile(p, {1: q1}, pi_bound=100))
            assert v.outcome == "consistent"
            total += 1
    _ok(9, "boundedness audit: contradiction with verified witness on all "
           "%d profiles with top degree 2..4, consistent for top degree 1"
           % total)


def test_10_growth_law_trend(dim_budget):
    grid = [0.125, 0.25, 0.375, 0.5, 1.0, 2.0, 4.0, 8.0]
    dim_budget(60_000)
    rep = asymptotic_check(1, 2, 2, grid, M=6)
    stabilized = [r for r in rep.rows if r.stabilized]
    assert len(stabilized) >= 3
    ratios = [r.ratio for r in stabilized]
    assert ratios == sorted(ratios), ratios
    assert all(r < 1 for r in ratios)
    assert rep.monotone_toward_one()
    assert rep.inconclusive_from() is not None  # honestly truncation-limited
    flagged = [r for r in rep.rows if not r.stabilized]
    assert flagged, "expected the large-t samples to be flagged"
    _ok(10, "phi ratio rises monotonically toward 1 over the stabilized "
            "prefix (%d points) and the rest is flagged inconclusive"
            % len(stabilized))


def test_11_rational_counterexample_and_vanishing():
    # the odd sphere series is bounded: total homotopy of S(l, 3) is finite
    s = sphere_series_char0(1, 3, 12)
    assert sum(s.coeffs) == 2
    r = sphere_homotopy(QQ, 1, 3, 8, 4)
    assert sum(r.dims[m] for m in range(r.certified_degree + 1)) == 2
    v = rational_check(EnvelopeProfile(0, {2: 1, 5: 1}), True)
    assert v.outcome == "not_applicable"
    v = rational_check(EnvelopeProfile(0, {2: 1}), True)
    assert v.outcome == "forced_empty"
    v = rational_check(EnvelopeProfile(0, {2: 1, 4: 2}), True)
    assert v.outcome == "forced_empty"
    _ok(11, "odd sphere series is bounded (rational failure); vanishing "
            "check: not applicable on the odd-class profile, forced empty "
            "on even-only profiles with finite homotopy")


def test_12_cli_determinism():
    commands = [
        ["pi-sphere", "--char", "0", "-q", "1", "-n", "2", "-T", "6", "-W", "3"],
        ["audit", "--char", "2", "--profile", "2:1", "--pi-bound", "3"],
        ["rational-example", "-r", "1", "-s", "2", "-T", "6"],
        ["property-test", "--seed", "5", "--cases", "10"],
    ]
    for argv in commands:
        outs = []
        codes = []
        for _ in range(2):
            buf = io.StringIO()
            codes.append(cli_main(argv, stdout=buf))
            outs.append(buf.getvalue())
        assert outs[0] == outs[1], argv
        assert codes[0] == codes[1], argv
    _ok(12, "repeated CLI invocations are byte-identical across %d commands"
            % len(commands))

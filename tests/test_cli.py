import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import scalg.barcof
import scalg.cli
import scalg.symalg
from scalg.barcof import AlgebraMap
from scalg.cli import (
    COMMANDS, OUTPUT_FORMATS, _field, _nonnegative, _parse_profile, _positive,
    _t_samples, build_parser, main)
from scalg.schemas import SCHEMAS
from scalg.series import SeriesError
from scalg.simplicial import SimplicialError, SimplicialVectorSpace


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, stdout=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    return code, json.loads(text) if text.strip().startswith("{") else text


# ------------------------------------------------------------ basic outputs

def test_pi_sphere_polynomial_generator():
    code, data = run_json(
        ["pi-sphere", "--char", "0", "-q", "1", "-n", "2", "-T", "6", "-W", "3"]
    )
    assert code == 0
    assert data["dims"] == [1, 0, 1, 0, 1, 0, 1]
    jsonschema.validate(data, SCHEMAS["pi-sphere"])


def test_pi_sphere_exterior_generator():
    code, data = run_json(
        ["pi-sphere", "--char", "0", "-q", "1", "-n", "3", "-T", "6", "-W", "2"]
    )
    assert code == 0
    assert data["dims"] == [1, 0, 0, 1, 0, 0, 0]


def test_pi_sphere_q_zero():
    code, data = run_json(
        ["pi-sphere", "--char", "0", "-q", "0", "-n", "2", "-T", "4", "-W", "2"]
    )
    assert code == 0
    assert data["dims"] == [1, 0, 0, 0, 0]


def test_pi_sphere_huge_weight_bound_stops_at_the_tail(limit_weight_pieces):
    # weight 2 is the first tail weight for one generator and for two; a
    # tail weight of two generators calls no sym_power_homology, so only
    # the limit on its counts stops a loop over every weight there
    argvs = [["pi-sphere", "--char", "2", "-q", q, "-n", "2", "-T", "2"]
             for q in ("1", "2")]
    wants = [dict(run_json(argv + ["-W", "3"])[1], W=10**9) for argv in argvs]
    limit_weight_pieces(100)
    for argv, want in zip(argvs, wants):
        assert run_json(argv + ["-W", str(10**9)]) == (0, want)


@pytest.mark.parametrize("q,dims,certified,flags", [
    (1, [1, 1, 0, 0, 0, 0], 0, [True] + [False] * 5),
    (2, [1, 2, 1, 0, 0, 0], 0, [True] + [False] * 5),
])
def test_pi_sphere_n1_huge_weight_bound_is_settled_by_counting(
        monkeypatch, q, dims, certified, flags):
    # the first tail weight of one generator at -n 1 -T 5 is 20,002; every
    # lower weight is Lambda^d(F) in degree d, certified by counting alone,
    # so building any covering complex fails at once instead of running
    # for hours.  Two generators outgrow the budget at level 1 from weight
    # 20,000 on, but no weight d >= 1 has chains at level 0, so degree 0
    # stays certified and stable
    def build(*args, **kwargs):
        raise AssertionError("built a covering complex at n = 1")

    for name in ("sym_power_covering_complex", "divided_power_covering_complex"):
        monkeypatch.setattr(scalg.symalg, name, build)
    argv = ["pi-sphere", "--char", "2", "-q", str(q), "-n", "1"]
    code, data = run_json(argv + ["-W", "100000"])
    assert code == 0
    assert (data["dims"], data["certified_degree"], data["stable_flags"]) == (
        dims, certified, flags)
    assert data["certified_degree"] >= 0 and data["stable_flags"][0]
    assert run_json(argv + ["-W", str(10**9)]) == (0, dict(data, W=10**9))


@pytest.mark.parametrize("argv", [
    ["pi-sphere", "--char", "2", "-q", "1", "-n", "2", "-T", "6", "-W", "6"],
    ["pi-sphere", "--char", "3", "-q", "2", "-n", "3", "-T", "7", "-W", "3"],
    ["series", "--char", "2", "-q", "1", "-n", "3", "-M", "6"],
    ["audit", "--char", "3", "--profile", "1:3,2:3,3:1", "--pi-bound", "5",
     "--mode", "empirical", "-M", "4"],
], ids=lambda argv: argv[0] + "-char" + argv[2])
def test_production_never_builds_the_sym_power_brute_force(monkeypatch, argv):
    want = run_cli(argv)
    calls = []

    def brute_force(*args, **kwargs):
        calls.append(args)
        raise AssertionError("built the Sym^d covering complex")

    monkeypatch.setattr(scalg.symalg, "sym_power_covering_complex", brute_force)
    assert run_cli(argv) == want
    assert calls == []


def test_hq_sphere_concentrated():
    code, data = run_json(["hq-sphere", "--char", "2", "-q", "2", "-n", "2",
                           "-T", "5"])
    assert code == 0
    assert data["dims"] == [0, 0, 2, 0, 0, 0]
    jsonschema.validate(data, SCHEMAS["hq-sphere"])


def test_em_output_roundtrips():
    code, data = run_json(["em", "--char", "0", "-q", "1", "-n", "2", "-T", "4"])
    assert code == 0
    jsonschema.validate(data, SCHEMAS["em"])
    v = SimplicialVectorSpace.from_json_dict(data)
    assert v.level_dims == [0, 0, 1, 3, 6]


def test_series_char0():
    code, data = run_json(["series", "--char", "0", "-q", "1", "-n", "2",
                           "-M", "6"])
    assert code == 0
    assert data["coeffs"] == [1, 0, 1, 0, 1, 0, 1]
    assert data["closed_form"] == {"constant": 1, "factors": [[2, -1]]}
    jsonschema.validate(data, SCHEMAS["series"])


def test_series_charp_short_truncation_is_exit_2():
    code, data = run_json(["series", "--char", "2", "-q", "1", "-n", "2",
                           "-M", "12"])
    assert code == 2
    assert data["truncation"] < 12
    assert data["requested_truncation"] == 12


def test_audit_contradiction():
    code, data = run_json(
        ["audit", "--char", "2", "--profile", "2:1", "--pi-bound", "3",
         "--mode", "asymptotic"]
    )
    assert code == 0
    assert data["outcome"] == "contradiction"
    assert data["witness"] is not None
    jsonschema.validate(data, SCHEMAS["audit"])


def test_audit_consistent_top_degree_one():
    code, data = run_json(
        ["audit", "--char", "2", "--profile", "1:4", "--pi-bound", "100"]
    )
    assert code == 0
    assert data["outcome"] == "consistent"


def test_audit_empirical_inconclusive_exit_2():
    code, data = run_json(
        ["audit", "--char", "2", "--profile", "2:1", "--pi-bound", "1024",
         "--mode", "empirical", "--t-samples", "1,2", "-M", "4"]
    )
    assert code == 2
    assert data["outcome"] == "inconclusive"


def test_audit_char0_directs_to_rational_check():
    code, _ = run_cli(["audit", "--char", "0", "--profile", "2:1",
                       "--pi-bound", "5"])
    assert code == 1


def test_rational_check_outputs():
    code, data = run_json(["rational-check", "--profile", "2:1,5:1",
                           "--pi-finite"])
    assert code == 0
    assert data["outcome"] == "not_applicable"
    jsonschema.validate(data, SCHEMAS["rational-check"])
    code, data = run_json(["rational-check", "--profile", "2:1", "--pi-finite"])
    assert data["outcome"] == "forced_empty"


def test_rational_example_tables():
    code, data = run_json(["rational-example", "-r", "1", "-s", "2", "-T", "6"])
    assert code == 0
    assert data["pi"] == [1, 0, 1, 0, 0, 0, 0]
    assert data["hq"] == {"2": 1, "5": 1}
    jsonschema.validate(data, SCHEMAS["rational-example"])


def test_asymptotic_csv():
    code, text = run_cli(["asymptotic", "-q", "1", "-n", "1", "-p", "2",
                          "--t-samples", "0.5,1", "-M", "4",
                          "--output", "csv"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "t,phi,reference,ratio,stabilized"
    assert len(lines) == 3


def test_series_char0_without_generators_is_the_unit():
    code, data = run_json(["series", "--char", "0", "-q", "0", "-n", "2",
                           "-M", "4"])
    assert code == 0
    assert data["coeffs"] == [1, 0, 0, 0, 0]
    assert data["closed_form"] == {"constant": 1, "factors": []}
    jsonschema.validate(data, SCHEMAS["series"])


def test_asymptotic_json_schema():
    code, data = run_json(["asymptotic", "-q", "2", "-n", "2", "-p", "3",
                           "--t-samples", "0.5,1", "-M", "3"])
    assert code == 0
    jsonschema.validate(data, SCHEMAS["asymptotic"])
    assert (data["q"], data["n"], data["p"]) == (2, 2, 3)
    assert [row["t"] for row in data["rows"]] == [0.5, 1.0]
    assert [row["reference"] for row in data["rows"]] == [1.0, 2.0]


def test_every_subcommand_has_a_schema():
    assert sorted(SCHEMAS) == sorted(COMMANDS)


def test_property_test_schema_and_pass():
    code, data = run_json(["property-test", "--seed", "3", "--cases", "5"])
    assert code == 0
    assert data["failures"] == []
    jsonschema.validate(data, SCHEMAS["property-test"])


def test_property_test_case_stream_is_pinned(monkeypatch):
    # the field, dims and differential columns of every complex the first
    # 300 cases of seed 1 hand to gamma, hashed as the code drew them
    # before _random_complex stopped computing the unused top kernel
    seen = []
    real = scalg.cli.gamma

    def record(field, dims, diffs, T):
        seen.append((field.characteristic, tuple(dims),
                     tuple(tuple(sorted(col.items()))
                           for d in diffs[1:] for col in d.cols)))
        return real(field, dims, diffs, T)

    monkeypatch.setattr(scalg.cli, "gamma", record)
    assert scalg.cli.run_property_checks(1, 300)[1] == []
    assert len(seen) == 360
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
        "fcbc0a9db972484fb412ea84a87ca4abb70994ea1793557e5f01f195de0e3205")


# ------------------------------------------------------------- determinism

@pytest.mark.parametrize(
    "argv",
    [
        ["pi-sphere", "--char", "0", "-q", "1", "-n", "2", "-T", "5", "-W", "2"],
        ["audit", "--char", "3", "--profile", "1:1,3:2", "--pi-bound", "4"],
        ["property-test", "--seed", "11", "--cases", "8"],
        ["series", "--char", "2", "-q", "1", "-n", "1", "-M", "4"],
        ["rational-example", "-r", "2", "-s", "2"],
        ["asymptotic", "-q", "1", "-n", "2", "-p", "2", "-M", "4",
         "--output", "csv"],
    ],
)
def test_repeated_runs_are_byte_identical(argv):
    code1, text1 = run_cli(argv)
    code2, text2 = run_cli(argv)
    assert code1 == code2
    assert text1 == text2


# ------------------------------------------------------------- exit codes

def test_invalid_characteristic_is_exit_1():
    code, _ = run_cli(["pi-sphere", "--char", "4", "-n", "2"])
    assert code == 1


def test_missing_subcommand_is_exit_1():
    code, _ = run_cli([])
    assert code == 1


def test_bad_bounds_are_exit_1():
    code, _ = run_cli(["pi-sphere", "--char", "0", "-n", "3", "-T", "1"])
    assert code == 1
    code, _ = run_cli(["em", "--char", "0", "-q", "1", "-n", "3", "-T", "2"])
    assert code == 1


@pytest.mark.parametrize(
    "extra",
    [
        ["-p", "4"],  # p is not a prime
        ["-p", "3", "--t-samples", "-1"],  # t <= 0 is invalid, not inconclusive
        ["-p", "3", "--t-samples", "nan"],  # would print NaN, which is not JSON
    ],
)
def test_asymptotic_bad_input_is_exit_1(extra, capsys):
    code, out = run_cli(["asymptotic", "-n", "1"] + extra)
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_profile_is_exit_1():
    code, _ = run_cli(["audit", "--char", "2", "--profile", "nope",
                       "--pi-bound", "3"])
    assert code == 1
    code, _ = run_cli(["audit", "--char", "2", "--profile", "2:1",
                       "--pi-bound", "2"])
    assert code == 1  # D must exceed p


@pytest.mark.parametrize("argv", [
    ["audit", "--char", "2", "--pi-bound", "3", "--mode", "empirical", "-M", "3"],
    ["rational-check"],
], ids=["audit", "rational-check"])
@pytest.mark.parametrize("profile", ["1:1,1:3", "1:3,1:1", "2:1, 02:1"])
def test_a_repeated_profile_degree_is_exit_1(argv, profile, capsys):
    # neither value wins silently
    code, out = run_cli(argv + ["--profile", profile])
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "given twice" in err


# ------------------------------------------------------------- config file

def test_config_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "scalg.cfg"
    cfg.write_text("# defaults\nT = 6\nW = 3\noutput = json\n")
    code, data = run_json(
        ["pi-sphere", "--config", str(cfg), "--char", "0", "-q", "1", "-n", "2"]
    )
    assert code == 0
    assert data["T"] == 6 and data["W"] == 3
    code, data = run_json(
        ["pi-sphere", "--config", str(cfg), "--char", "0", "-q", "1", "-n", "2",
         "-T", "4", "-W", "2"]
    )
    assert code == 0
    assert data["T"] == 4 and data["W"] == 2


def test_config_keys_with_subcommand_defaults(tmp_path):
    # M and output have non-None defaults in their subcommand; the file
    # still sets them, and an explicit flag still beats the file
    cfg = tmp_path / "series.cfg"
    cfg.write_text("M = 3\noutput = csv\n")
    code, text = run_cli(["series", "--config", str(cfg), "--char", "0", "-n", "2"])
    assert code == 0
    assert text.splitlines()[0] == "key,value"
    assert 'truncation,"3"' in text.splitlines()
    code, data = run_json(["series", "--config", str(cfg), "--char", "0", "-n", "2",
                           "--output", "json"])
    assert code == 0 and data["truncation"] == 3
    code, data = run_json(["series", "--config", str(cfg), "--char", "0", "-n", "2",
                           "-M", "5", "--output", "json"])
    assert code == 0 and data["truncation"] == 5


def test_config_supplies_a_required_option(tmp_path, capsys):
    cfg = tmp_path / "n.cfg"
    cfg.write_text("n = 2\n")
    assert run_cli(["pi-sphere", "--config", str(cfg)]) == run_cli(
        ["pi-sphere", "-n", "2"])
    cfg.write_text("T = 4\n")
    capsys.readouterr()
    code, out = run_cli(["pi-sphere", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "-n" in err


def test_config_accepts_the_equals_form(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("T = 4\nn = 2\n")
    spaced = run_cli(["pi-sphere", "--config", str(cfg)])
    assert spaced[0] == 0 and json.loads(spaced[1])["T"] == 4
    assert run_cli(["pi-sphere", "--config=%s" % cfg]) == spaced
    assert run_cli(["pi-sphere", "--config=%s" % cfg, "-n", "2"]) == spaced
    code, data = run_json(["pi-sphere", "--config=%s" % cfg, "-T", "5"])
    assert code == 0 and data["T"] == 5


def test_config_flag_cannot_be_abbreviated(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("T = 4\n")
    for flag in (["--conf", str(cfg)], ["--conf=%s" % cfg]):
        capsys.readouterr()
        code, out = run_cli(["pi-sphere"] + flag + ["-n", "1", "-W", "1"])
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--conf" in err
    code, data = run_json(["pi-sphere", "--config", str(cfg), "-n", "1",
                           "-W", "1"])
    assert code == 0 and data["T"] == 4


def test_config_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("what is this line\n")
    code, _ = run_cli(["pi-sphere", "--config", str(cfg), "--char", "0",
                       "-n", "1"])
    assert code == 1


@pytest.mark.parametrize("text,line,key", [
    ("w = 1\n", 1, "w"), ("# T, W\nT = 4\nbogus = 3\n", 3, "bogus")])
def test_config_rejects_a_key_that_names_no_option(tmp_path, capsys, text,
                                                   line, key):
    # -W's dest is W: a file's "w = 1" used to be ignored, running at W = T
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text)
    code, out = run_cli(["pi-sphere", "-n", "2", "-T", "4", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err == "error: config line %d: %r names no option\n" % (line, key)


@pytest.mark.parametrize("text,first,second,key", [
    ("T = x\nT = 4\n", 1, 2, "T"),
    ("pi-bound = 3\n# again\npi_bound = 4\n", 1, 3, "pi_bound"),
    ("T = 4\nT = 4\n", 1, 2, "T")])
def test_config_rejects_a_repeated_key(tmp_path, capsys, text, first, second,
                                       key):
    # the last value used to win unchecked: "T = x" then "T = 4" ran at T = 4
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(text)
    code, out = run_cli(["pi-sphere", "-n", "2", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err == "error: config lines %d and %d both give %r\n" % (
        first, second, key)


def test_config_accepts_the_keys_of_other_subcommands(tmp_path):
    # profile is audit's option: a file shared by several subcommands works
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("profile = 2:1\nW = 2\n")
    assert run_cli(["pi-sphere", "-n", "2", "-T", "4", "--config", str(cfg)]) \
        == run_cli(["pi-sphere", "-n", "2", "-T", "4", "-W", "2"])


# ------------------------------------------------------------- formats

def test_table_and_csv_formats():
    code, text = run_cli(["pi-sphere", "--char", "0", "-n", "1", "-T", "3",
                          "-W", "1", "--output", "table"])
    assert code == 0
    assert "dims" in text
    code, text = run_cli(["pi-sphere", "--char", "0", "-n", "1", "-T", "3",
                          "-W", "1", "--output", "csv"])
    assert code == 0
    assert text.splitlines()[0] == "key,value"


# ------------------------------------------------------------- streaming

EM_ARGV = ["em", "--char", "0", "-q", "2", "-n", "3", "-T"]
BATCH = 4096  # encoder chunks per write of render


class _Writes:
    """A stream that records each write, or drops it with keep=False."""

    def __init__(self, keep=True):
        self.keep, self.writes = keep, []

    def write(self, text):
        if self.keep:
            self.writes.append(text)


def _chunk_count(payload):
    return sum(1 for _ in json.JSONEncoder(sort_keys=True, indent=2)
               .iterencode(payload))


# list(range(k)) encodes to k + 2 chunks: "[\n  0", one per further item,
# "\n" and "]"
@pytest.mark.parametrize("payload,chunks", [
    (5, 1), ("text", 1), (None, 1), ({}, 1), ([], 1),
    ({"a": {}, "b": [], "c": [[], {}]}, None),
    (list(range(98)), 100),
    (list(range(BATCH - 2)), BATCH),
    (list(range(2 * BATCH - 2)), 2 * BATCH),
    (list(range(BATCH - 1)), BATCH + 1),
])
def test_streamed_json_is_dumps_in_batches(payload, chunks):
    if chunks is not None:
        assert _chunk_count(payload) == chunks
    out = _Writes()
    scalg.cli.render(payload, "json", out)
    assert "".join(out.writes) == json.dumps(payload, sort_keys=True,
                                             indent=2) + "\n"
    # one write per batch of chunks, then the newline
    assert len(out.writes) == -(-_chunk_count(payload) // BATCH) + 1


def _render_in_one_string(payload, fmt):
    """The text of render built as one string, which its writes must
    reproduce."""
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    rows = scalg.cli._flatten(payload)
    if fmt == "csv":
        lines = ["key,value"]
        for k, v in rows:
            v = str(v).replace('"', '""')
            lines.append('%s,"%s"' % (k, v))
        return "\n".join(lines) + "\n"
    width = max((len(k) for k, _ in rows), default=0)
    return "".join("%-*s  %s\n" % (width, k, v) for k, v in rows)


def _payload(argv):
    args = build_parser(argv[0]).parse_args(argv[1:])
    return COMMANDS[argv[0]][1](args)[0]


@pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
@pytest.mark.parametrize("argv", [
    EM_ARGV + ["5"],
    ["pi-sphere", "--char", "0", "-q", "2", "-n", "2", "-T", "6", "-W", "3"],
    ["pi-sphere", "--char", "2", "-q", "1", "-n", "2", "-T", "6", "-W", "6"],
])
def test_every_format_writes_the_text_it_wrote_in_one_string(argv, fmt):
    want = _render_in_one_string(_payload(argv), fmt)
    assert run_cli(argv + ["--output", fmt]) == (0, want)


def test_rendering_em_json_does_not_hold_the_output():
    # json.dumps of this 2.5 MB output peaks at 15.9 MB
    payload = _payload(EM_ARGV + ["8"])
    tracemalloc.start()
    try:
        scalg.cli.render(payload, "json", _Writes(keep=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ------------------------------------------------------------- characteristic

EMPIRICAL_AUDIT = ["audit", "--char", "2", "--profile", "2:1", "--pi-bound", "3",
                   "--mode", "empirical"]


@pytest.mark.parametrize("argv", [
    ["pi-sphere", "--char", str(2**64 + 13), "-n", "2"],
    ["pi-sphere", "--char", "3215031751", "-n", "2"],
    ["audit", "--char", "4", "--profile", "1:1"],
    # option ranges, checked by the parser
    ["series", "--char", "2", "-n", "1", "-W", "-1"],
    EMPIRICAL_AUDIT + ["-M", "-1"],
    ["asymptotic", "-n", "1", "-p", "2", "-q", "-1"],
    ["asymptotic", "-n", "2", "-p", "2", "-M", "-1"],
    EMPIRICAL_AUDIT + ["--t-samples", "nan"],  # would print NaN
    ["asymptotic", "-n", "2", "-p", "2", "--t-samples", "inf"],  # Infinity
    # there is no zeroth power map, and no negative truncation
    ["cofiber", "-r", "1", "-s", "0"],
    ["cofiber", "-r", "1", "-s", "2", "-N", "-1"],
    # a config-file value passes through the same range check as a flag
    ["pi-sphere", "--config", {"W": "-1"}, "-n", "2"],
    # the growth reference is 0 at q = 0, so the ratio column would be NaN
    ["asymptotic", "-n", "1", "-p", "2", "-q", "0"],
    # the bar diagonal would hold 4,229,686 tuples at level 18, though
    # Sym^2 of level 18 (11,781 monomials) is in budget; N above W // s
    # adds no tuple
    ["cofiber", "-r", "8", "-s", "1"],
    ["cofiber", "-r", "8", "-s", "1", "-N", "8"],
    ["cofiber", "-r", "1", "-s", "1", "-T", "2", "-W", "3000"],
    # the power cofiber is rational only, like rational-example
    ["cofiber", "--char", "0", "-r", "1", "-s", "2"],
    # numbers the audit trace cannot print: float() of the left side at
    # twice the witness overflows; 1/19999! has more digits than Python
    # prints (its witness search took about a minute before a traceback)
    ["audit", "--char", "2", "--profile", "1021:1", "--pi-bound", "3"],
    ["audit", "--char", "2", "--profile", "20000:1", "--pi-bound", "3"],
    # 171! does not fit a float
    ["asymptotic", "-q", "1", "-n", "172", "-p", "2"],
])
def test_bad_characteristic_is_exit_1_with_one_line(argv, capsys, tmp_path):
    for k, arg in enumerate(argv):
        if isinstance(arg, dict):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text("".join("%s = %s\n" % kv for kv in arg.items()))
            argv = argv[:k] + [str(cfg)] + argv[k + 1:]
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,pi,certified", [
    (["cofiber", "-r", "1", "-s", "2", "-W", "0"], [1, 0], 1),
    (["cofiber", "-r", "1", "-s", "3", "-W", "1"], [1, 0, 1, 0], 3),
])
def test_cofiber_below_the_power_weight_exits_0(argv, pi, certified):
    # W < s - 1: power_map builds its target at weight max(W, s), and
    # power_cofiber_tables checks every flagged degree against the closed
    # form, so the table is honest through the certified degree
    code, data = run_json(argv)
    assert code == 0
    assert data["certified_degree"] == certified
    assert data["pi"][:certified + 1] == pi


@pytest.mark.parametrize("value", ["", ",", "  ", " , ,"])
def test_t_samples_without_a_number_mean_none_given(value, capsys):
    # audit takes its default grid, as without the option; asymptotic has
    # no default to fall back on
    assert run_cli(EMPIRICAL_AUDIT + ["--t-samples", value]) == run_cli(EMPIRICAL_AUDIT)
    code, out = run_cli(["asymptotic", "-n", "1", "-p", "2", "--t-samples", value])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err == "error: need at least one t sample\n"


def test_asymptotic_reference_underflow_prints_no_nan(capsys):
    # t^(n-1) underflows to 0 at t = 1e-200, n = 3: no ratio exists there,
    # at any truncation, so the sample is invalid input, not inconclusive
    code, out = run_cli(["asymptotic", "-n", "3", "-p", "2", "-M", "3",
                         "--t-samples", "1e-200"])
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err == "error: the growth reference underflows to 0 at t = 1e-200\n"


def test_config_characteristic_fails_with_the_fields_message(tmp_path, capsys):
    cfg = tmp_path / "char.cfg"
    cfg.write_text("char = 4\n")
    for argv in (["pi-sphere", "-n", "2"], ["audit", "--profile", "1:1"]):
        assert run_cli(argv + ["--config", str(cfg)]) == (1, "")
        assert capsys.readouterr().err == (
            "error: characteristic must be 0 or a prime, got 4\n")


def test_a_series_error_of_the_audit_is_inconclusive(monkeypatch, capsys):
    # _run maps every SeriesError that is not an input error to exit 2
    def fail(*args, **kwargs):
        raise SeriesError("no certified coefficients at these budgets")

    monkeypatch.setattr(scalg.cli, "serre_audit", fail)
    code, out = run_cli(EMPIRICAL_AUDIT)
    assert (code, out) == (
        2, "inconclusive: no certified coefficients at these budgets\n")
    assert capsys.readouterr().err == ""


def test_cofiber_internal_fault_is_exit_3(monkeypatch, capsys):
    # only the argument checks of the power tables are bad input; a failed
    # invariant past them is an internal fault
    def fail(self):
        raise SimplicialError(
            "generator images do not commute with d_0 at level 3")

    monkeypatch.setattr(AlgebraMap, "check_simplicial", fail)
    code, out = run_cli(["cofiber", "-r", "1", "-s", "2", "-W", "2"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == ("internal invariant violation: generator "
                                       "images do not commute with d_0 at level 3\n")


# ------------------------------------------------------------- argv fuzzing

FUZZ_VALUES = [str(v) for v in range(-1, 4)] + [
    "", ",", "x", "nan", "inf", "1e308", "0.5"]
FUZZ_CHOICES = {
    "--profile": FUZZ_VALUES + ["1:1", "2:1,3:1", "1:3,2:3,3:1", "0:1", "1:x"],
    "--output": ["json", "csv", "table", "xml"],
    "--mode": ["asymptotic", "empirical", "exact"],
    "--pi-finite": [None],  # a switch, no value
}
FUZZ_FLAGS = {
    "pi-sphere": ["--char", "-q", "-n", "-T", "-W"],
    "hq-sphere": ["--char", "-q", "-n", "-T"],
    "em": ["--char", "-q", "-n", "-T"],
    "cofiber": ["-r", "-s", "-W", "-N"],
    "series": ["--char", "-q", "-n", "-M", "-W"],
    "audit": ["--char", "--profile", "--pi-bound", "--mode", "--t-samples", "-M"],
    "rational-check": ["--profile", "--pi-finite"],
    "rational-example": ["-r", "-s", "-T"],
    "asymptotic": ["-q", "-n", "-p", "--t-samples", "-M"],
    "property-test": ["--seed", "--cases"],
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [command]
    if command == "cofiber":
        # the bar grows fast with the level bound: keep every run cheap
        argv += ["-T", str(draw(st.integers(-1, 4)))]
    for flag in FUZZ_FLAGS[command] + ["--output"]:
        # most flags present, and half the values valid bounds, so that
        # argvs also get past the parser
        if draw(st.integers(0, 3)):
            choices = FUZZ_CHOICES.get(flag)
            value = draw(st.sampled_from(choices) if choices else st.one_of(
                st.sampled_from(["1", "2", "3"]), st.sampled_from(FUZZ_VALUES)))
            argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(fuzz_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err
    assert "NaN" not in out and "Infinity" not in out
    if code == 1:
        assert out == "" and err.count("\n") == 1, (argv, err)


# ------------------------------------------------------------- parser

ROOT = Path(__file__).resolve().parent.parent
BAD_VALUES = {_positive: "0", _nonnegative: "-1", _t_samples: "nan", int: "x",
              _field: "4", _parse_profile: "1"}


def run_captured(argv):
    """(exit code, stdout, stderr) of one main() call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as console, \
            contextlib.redirect_stderr(err):
        code = main(argv, stdout=out)
    assert console.getvalue() == ""  # nothing past main's own stdout
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [["-h"], ["--help"]] + [
    [name, "-h"] for name in COMMANDS])
def test_help_goes_to_the_callers_stdout(argv):
    code, out, err = run_captured(argv)
    assert (code, err) == (0, "")
    assert out == build_parser(argv[0] if len(argv) > 1 else None).format_help()
    assert out.startswith("usage: scalg " + " ".join(argv[:-1]))


def parity_corpus(cfg):
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    corpus = [key.split(" ") for key in golden]
    corpus += [["-h"]] + [[name, "-h"] for name in COMMANDS]
    corpus += [[], ["bogus"], ["-1", "em"],
               ["--output", "csv", "pi-sphere", "-n", "2"]]
    corpus += [["--config", cfg, "pi-sphere", "-W", "1"],
               ["pi-sphere", "--config", cfg, "-W", "1"],
               ["--config=" + cfg, "em"], ["em", "--config=" + cfg, "-q", "2"],
               ["--config", cfg, "-h"], ["--config", cfg, "bogus"],
               ["--config", cfg], ["pi-sphere", "--config"]]
    corpus += _repeated_config(cfg)
    for name, (_, _, options) in COMMANDS.items():
        corpus += [[name, flag, BAD_VALUES[kwargs["type"]]]
                   for flag, kwargs in options.items() if "type" in kwargs]
    return corpus


CFG = "{cfg}"  # the config path in the record
PARITY = ROOT / "tests" / "data" / "cli_parity.json"


def parity_record(cfg):
    """Each corpus argv with its exit code, the SHA-256 of its stdout and
    its stderr, the config path written as CFG."""
    record = []
    for argv in parity_corpus(cfg):
        code, out, err = run_captured(argv)
        record.append({
            "argv": [a.replace(cfg, CFG) for a in argv], "exit": code,
            "stdout_sha256": hashlib.sha256(
                out.replace(cfg, CFG).encode()).hexdigest(),
            "stderr": err.replace(cfg, CFG)})
    return record


def _computed(row):
    """A row without argparse's wording: its help text and messages."""
    help_out = "-h" in row["argv"]
    return dict(row, stderr=None,
                stdout_sha256=None if help_out else row["stdout_sha256"])


def test_the_corpus_answers_as_recorded(tmp_path):
    # PARITY holds parity_record as the parser printed it when the file's
    # values were argparse defaults and the scalg parser held every
    # subcommand's options, under Python 3.11; argparse words its help
    # and errors differently in other versions, which are held to the
    # rest of each row
    cfg = tmp_path / "parity.cfg"
    cfg.write_text("n = 2\nT = 3\n")
    want = json.loads(PARITY.read_text())
    got, rows = parity_record(str(cfg)), want["rows"]
    # each kind of outcome is in the corpus
    assert {row["exit"] for row in got} == {0, 1, 2}
    assert [row["argv"] for row in got] == [row["argv"] for row in rows]
    if "%d.%d" % sys.version_info[:2] != want["python"]:
        got, rows = map(_computed, got), map(_computed, rows)
    for a, b in zip(got, rows):
        assert a == b, a["argv"]


@pytest.mark.parametrize("text,argv,err", [
    # a file's value meets the option's choices, as a flag's does; it
    # used to run an audit whose trace said "mode": "bogus"
    ("mode = bogus\n", ["audit", "--char", "2", "--profile", "1:1",
                        "--pi-bound", "3"],
     "error: argument --mode: invalid choice: 'bogus'"),
    ("output = xml\n", ["pi-sphere", "-n", "2"],
     "error: argument --output: invalid choice: 'xml'"),
    # every value of the file is checked, even one a flag overrides
    ("T = x\n", ["pi-sphere", "-n", "2", "-T", "4"],
     "error: argument -T: invalid nonnegative integer value: 'x'\n"),
    # a switch takes 1, true or yes, or 0, false or no; "maybe" read as no
    ("pi_finite = maybe\n", ["rational-check", "--profile", "2:1"],
     "error: argument --pi-finite: ignored explicit argument 'maybe'\n"),
    # the scalg parser has no -n to require: -x is the error
    ("", ["-x", "pi-sphere"], "error: unrecognized arguments: -x\n"),
], ids=["mode", "output", "T-overridden", "switch", "leading-option"])
def test_a_changed_outcome_is_exit_1_with_one_line(tmp_path, text, argv, err):
    # err is how the one stderr line starts: how argparse lists the
    # choices after it varies with the Python version
    cfg = tmp_path / "changed.cfg"
    cfg.write_text(text)
    code, out, got = run_captured(argv + ["--config", str(cfg)])
    assert (code, out, got.count("\n")) == (1, "", 1)
    assert got.startswith(err), got


@pytest.mark.parametrize("value,want", [
    ("yes", "forced_empty"), ("1", "forced_empty"), ("TRUE", "forced_empty"),
    ("no", "not_applicable"), ("0", "not_applicable"),
    ("False", "not_applicable")])
def test_config_switch_values(tmp_path, value, want):
    cfg = tmp_path / "switch.cfg"
    cfg.write_text("pi_finite = %s\n" % value)
    argv = ["rational-check", "--profile", "2:1", "--config", str(cfg)]
    code, data = run_json(argv)
    assert (code, data["outcome"]) == (0, want)
    # a flag after the file still sets the switch
    assert run_json(argv + ["--pi-finite"])[1]["outcome"] == "forced_empty"


def test_cofiber_bounds_run_once_per_cofiber(monkeypatch, capsys):
    calls = []
    real = scalg.barcof.cofiber_bounds

    def count(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scalg.barcof, "cofiber_bounds", count)
    assert run_json(["cofiber", "-r", "1", "-s", "2", "-W", "2"])[0] == 0
    assert calls == [(1, 2, None, 2, None)]
    calls.clear()
    assert run_cli(["cofiber", "-r", "8", "-s", "1"]) == (1, "")
    assert len(calls) == 1
    assert "budget of" in capsys.readouterr().err


def test_main_builds_only_the_named_subparser(monkeypatch):
    # a named subcommand gets its own parser and nothing else; the other
    # calls build the scalg parser with every subparser, which holds no
    # option of its subcommand
    progs, actions = [], []
    init_parser = scalg.cli._Parser.__init__
    init_action = argparse._SubParsersAction.__init__

    def parser(self, *args, **kwargs):
        progs.append(kwargs["prog"])
        init_parser(self, *args, **kwargs)

    def action(self, *args, **kwargs):
        actions.append(self)
        init_action(self, *args, **kwargs)

    monkeypatch.setattr(scalg.cli._Parser, "__init__", parser)
    monkeypatch.setattr(argparse._SubParsersAction, "__init__", action)
    assert run_cli(["pi-sphere", "-n", "2"])[0] == 0
    assert (progs, actions) == (["scalg pi-sphere"], [])
    every = ["scalg"] + ["scalg " + name for name in COMMANDS]
    for argv in (["-h"], ["--help"], [], ["bogus"],
                 ["--output", "csv", "pi-sphere", "-n", "2"]):
        progs.clear()
        actions.clear()
        with contextlib.redirect_stderr(io.StringIO()):
            run_cli(argv)
        assert (progs, len(actions)) == (every, 1), argv
    # the scalg parser's subparsers carry no options: only -h
    for name in COMMANDS:
        with pytest.raises(scalg.cli._Help) as help_text:
            build_parser().parse_args([name, "-h"])
        assert str(help_text.value).startswith("usage: scalg %s [-h]\n" % name)


def _repeated_config(cfg):
    """argvs that give --config twice, in each form and place; in some the
    second file is missing."""
    missing = cfg + ".missing"
    return [["pi-sphere", "-n", "2", "--config", cfg, "--config", missing,
             "-W", "1"],
            ["--config", cfg, "--config", cfg, "pi-sphere", "-W", "1"],
            ["--config=" + cfg, "em", "--config=" + missing],
            ["--config", missing, "pi-sphere", "-n", "2", "--config=" + cfg]]


def test_a_repeated_config_is_exit_1_with_one_line(tmp_path):
    # the second --config used to be read as an option and ignored, its
    # file unread, even a missing one: the first three argvs exited 0
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("n = 2\nT = 3\n")
    for argv in _repeated_config(str(cfg)):
        assert run_captured(argv) == (1, "", "error: --config is given twice\n"), argv


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_cofiber_over_the_enumeration_budget_exits_1_at_once():
    # Sym^4 of level 10 of K(Q, 4) has 83,369,265 monomials: refused before
    # anything is built, instead of running out of memory
    proc = subprocess.run(
        [sys.executable, "-m", "scalg.cli", "cofiber", "-r", "2", "-s", "2",
         "-W", "4"],
        env=_src_env(), cwd=ROOT, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "83369265 monomials" in proc.stderr


@pytest.mark.parametrize("r,s", [
    (1, 10_000), (1, 300_000), (1, 99_999_999), (99_999_999_999, 2),
    (1, 10 ** 400),
], ids=["s1e4", "s3e5", "s1e8", "r1e11", "s1e400"])
def test_cofiber_far_over_the_enumeration_budget_exits_1_at_once(r, s):
    # the monomial count stops once it passes the budget: counted exactly,
    # these took from seconds to minutes, or printed a Python error for a
    # count of more than 4300 digits; the default W is an integer ceiling,
    # where a float quotient overflowed for s = 10^400
    proc = subprocess.run(
        [sys.executable, "-m", "scalg.cli", "cofiber", "-r", str(r), "-s", str(s)],
        env=_src_env(), cwd=ROOT, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert ("more monomials than the budget of %d" % scalg.symalg.ENUM_BUDGET
            in proc.stderr)


@pytest.mark.parametrize("argv,code", [
    (["pi-sphere", "-n", "2", "-T", "3000", "-W", "1"], 0),
    (["series", "--char", "2", "-q", "1", "-n", "2", "-M", "3000"], 2),
])
def test_a_huge_level_bound_certifies_at_once(argv, code):
    # certification counts the covering levels through d*n only; counted
    # through T = 3000, these ran for minutes
    proc = subprocess.run(
        [sys.executable, "-m", "scalg.cli"] + argv,
        env=_src_env(), cwd=ROOT, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (code, "")


def _em_entries(payload):
    """The JSON values of em's faces and degeneracies: each matrix, and
    each entry of its dense rows."""
    return sum(1 + sum(map(len, mat)) for key in ("faces", "degeneracies")
               for level in payload[key] for mat in level)


def test_em_budget_counts_the_dense_matrices(monkeypatch, capsys):
    argv = EM_ARGV + ["7"]
    code, data = run_json(argv)
    assert (code, _em_entries(data)) == (0, 54_367)
    monkeypatch.setattr(scalg.symalg, "ENUM_BUDGET", 54_367)
    assert run_json(argv) == (0, data)
    monkeypatch.setattr(scalg.symalg, "ENUM_BUDGET", 54_366)
    assert run_cli(argv) == (1, "")
    assert capsys.readouterr().err == (
        "error: K(V, n) through level 7 has more face and degeneracy entries "
        "than the budget of 54366; lower T or q\n")


def _address_space_limit():
    """Caps a child's memory at 2 GiB, so a regression fails instead of
    filling the machine."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


@pytest.mark.parametrize("argv", [["-n", "3", "-T", "30"],
                                  ["-n", "0", "-T", "10000000000"]])
def test_em_over_the_enumeration_budget_exits_1_at_once(argv):
    # -n 3 -T 30 grew to 7.7 GB before a 120 s timeout; the count stops
    # once it passes the budget, so a huge T is refused as fast
    proc = subprocess.run(
        [sys.executable, "-m", "scalg.cli", "em"] + argv, env=_src_env(),
        cwd=ROOT, capture_output=True, text=True, timeout=10,
        preexec_fn=_address_space_limit)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "budget of %d" % scalg.symalg.ENUM_BUDGET in proc.stderr


def test_an_eilenberg_maclane_object_of_high_degree_prints_at_once():
    # gamma lists no surjection onto a degree of dimension 0: listing
    # C(25, k) of them for each k < 25 did not end in 100 s
    proc = subprocess.run(
        [sys.executable, "-m", "scalg.cli", "em", "-n", "25", "-T", "25"],
        env=_src_env(), cwd=ROOT, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["level_dims"] == [0] * 25 + [1]


@pytest.mark.parametrize("argv", [
    ["-r", "100000", "-s", "100000"], ["-r", "1", "-s", "2", "-T", "100000000"],
], ids=["rs", "T"])
def test_rational_example_over_the_enumeration_budget_exits_1_at_once(argv):
    # tables of 2 * 10^10 + 3 and 10^8 + 1 entries: built, they ran past
    # 5 s and grew memory without bound
    proc = subprocess.run(
        [sys.executable, "-m", "scalg.cli", "rational-example"] + argv,
        env=_src_env(), cwd=ROOT, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "over the budget of %d" % scalg.symalg.ENUM_BUDGET in proc.stderr


def test_rational_example_table_may_fill_the_budget(monkeypatch, capsys):
    monkeypatch.setattr(scalg.symalg, "ENUM_BUDGET", 10)
    code, out = run_cli(["rational-example", "-r", "1", "-s", "2", "-T", "9"])
    assert code == 0 and len(json.loads(out)["pi"]) == 10
    assert run_cli(["rational-example", "-r", "1", "-s", "2", "-T", "10"]) == (1, "")
    assert capsys.readouterr().err == (
        "error: a table through degree 10 has 11 entries, over the budget of "
        "10; lower T, r or s\n")
    # the default table, through degree 2rs + 2, is refused the same way
    assert run_cli(["rational-example", "-r", "2", "-s", "2"]) == (1, "")
    assert "through degree 10 has 11 entries" in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv,head", [
    # 735 KB overfill the pipe, so a write meets its closed end
    (EM_ARGV + ["7"], b'{\n  "degen'),
    # the pipe is closed before the first write, which a buffered stdout
    # makes only when it is flushed
    (["rational-example", "-r", "1", "-s", "2"], b""),
])
def test_a_closed_output_pipe_exits_141_in_silence(argv, head, unbuffered):
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "scalg.cli"] + argv, env=env, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(len(head)) == head
    proc.stdout.close()
    _, err = proc.communicate(timeout=30)
    assert (proc.returncode, err) == (141, b"")

import io
import json

import jsonschema
import pytest

from scalg.cli import main
from scalg.schemas import SCHEMAS
from scalg.simplicial import SimplicialVectorSpace


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


def test_property_test_schema_and_pass():
    code, data = run_json(["property-test", "--seed", "3", "--cases", "5"])
    assert code == 0
    assert data["failures"] == []
    jsonschema.validate(data, SCHEMAS["property-test"])


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
    # the s-th power needs target weight s <= W + 1
    ["cofiber", "-r", "1", "-s", "2", "-W", "0"],
    ["cofiber", "-r", "1", "-s", "3", "-W", "1"],
    # a config-file value passes through the same range check as a flag
    ["pi-sphere", "--config", {"W": "-1"}, "-n", "2"],
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

"""Command-line entry point: every computation as a subcommand with
reproducible, machine-readable output.

Exit codes: 0 success, 1 invalid input, 2 honest inconclusiveness at the
configured truncation (retry with larger bounds), 3 internal invariant
violation, 141 (128 + SIGPIPE) the reader closed the output pipe, as
``scalg em ... | head`` does; nothing is written to stderr then.
Identical invocations, including the seed of property-test, produce
byte-identical output.  Every subcommand computes its whole result before
anything is written, so exit codes 1, 2 and 3 write no partial output.

An argv whose first word (after ``--config`` and its path) names a
subcommand is parsed by that subcommand's parser alone; the scalg parser,
which knows only the subcommands' names, prints the help or the error of
any other.  A config file of ``key = value`` lines (# comments allowed)
names options as ``T`` or ``pi_bound``, and a key that names no option of
any subcommand, or one given twice, exits 1; the named subcommand's values
go in as ``flag=value`` right after its name (a switch as its bare flag),
so later flags win.  ``--config`` is accepted once, before or after the
subcommand.  ``-h`` writes its help to main()'s ``stdout`` and returns 0.
``em``, ``cofiber`` and ``rational-example`` refuse, with exit 1, output
or bounds over the enumeration budget of ``symalg``.

Each option is checked once, by its argparse type and choices, and
``_run`` alone maps exceptions to exit codes: a library's input errors
(ProfileError, SeriesInputError, BoundsError) exit 1, any other
SeriesError exits 2, and the internal faults exit 3.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from itertools import islice

from .exactfield import FieldError, FieldSpec, Mat, QQ, kernel_basis, rank
from .simplicial import SimplicialError, SimplicialVectorSpace, eilenberg_maclane, gamma
from . import symalg
from .symalg import indecomposables, sphere_algebra, sphere_homotopy
from .barcof import (
    BoundsError,
    CycleError,
    TableMismatch,
    power_cofiber_closed_form,
    power_cofiber_tables,
)
from .series import (
    SeriesError,
    SeriesInputError,
    asymptotic_check,
    sphere_series_char0,
    sphere_series_charp,
)
from .audit import EnvelopeProfile, ProfileError, rational_check, serre_audit


class CliError(Exception):
    """Invalid input: one error line, exit 1."""


class _Help(Exception):
    """-h was given: main() writes this help text to its stdout, exit 0."""


OUTPUT_FORMATS = ("json", "csv", "table")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix of a long option stands for it: main() finds --config
        # by its full name before argparse runs, so "--conf PATH" would
        # parse yet skip the file
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


# ------------------------------------------------------------- rendering


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for k in sorted(payload, key=str):
            rows.extend(_flatten(payload[k], prefix + str(k) + "."))
    elif isinstance(payload, (list, tuple)):
        rows.append((prefix[:-1], " ".join(str(x) for x in payload)))
    else:
        rows.append((prefix[:-1], str(payload)))
    return rows


def render(payload, fmt, out):
    """Write ``payload`` to the stream ``out`` in the format ``fmt``.

    JSON is written as it is encoded, a batch of encoder chunks at a
    time, so memory does not grow with the size of the output; its text
    is ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``.  CSV and
    table output, one row per flattened key, is written in one piece.
    """
    if fmt == "json":
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
        for chunk in chunks:  # a batch is a chunk and the 4095 after it
            out.write(chunk + "".join(islice(chunks, 4095)))
        out.write("\n")
        return
    rows = _flatten(payload)
    if fmt == "csv":
        lines = ["key,value"]
        for k, v in rows:
            v = str(v).replace('"', '""')
            lines.append('%s,"%s"' % (k, v))
        out.write("\n".join(lines) + "\n")
        return
    width = max((len(k) for k, _ in rows), default=0)
    out.write("".join("%-*s  %s\n" % (width, k, v) for k, v in rows))


# ------------------------------------------------------------- config file


def _dest(flag):
    return flag.lstrip("-").replace("-", "_")


def load_config(path):
    # the option dests of every subcommand: one file may serve several
    dests = {_dest(flag) for _, _, options in COMMANDS.values()
             for flag in [*options, "--output"]}
    values, seen = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(
                        "config line %d is not 'key = value'" % lineno
                    )
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in dests:
                    raise CliError("config line %d: %r names no option"
                                   % (lineno, key))
                if key in seen:
                    raise CliError("config lines %d and %d both give %r"
                                   % (seen[key], lineno, key))
                seen[key] = lineno
                values[key] = value.strip()
    except OSError as exc:
        raise CliError("cannot read config file: %s" % exc)
    return values


# ------------------------------------------------------------- arguments


# Each option's check is its argparse type, so it is checked once, for
# flags and config-file values alike (the file's values are parsed as
# flags); a ValueError from a type reads "invalid <name> value", and a
# CliError passes through argparse with its own message.


def _parse_profile(text):
    """{degree: dim} of a comma-separated 'degree:dim' list."""
    dims = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise CliError("profile entries look like 'degree:dim'")
        s, _, q = chunk.partition(":")
        try:
            degree, dim = int(s), int(q)
        except ValueError:
            raise CliError("profile entry %r is not integer:integer" % chunk)
        if degree in dims:
            raise CliError("profile degree %d is given twice" % degree)
        dims[degree] = dim
    return dims


def _int_at_least(low, name):
    def convert(text):
        value = int(text)
        if value < low:
            raise ValueError(text)
        return value

    convert.__name__ = name
    return convert


_nonnegative = _int_at_least(0, "nonnegative integer")
_positive = _int_at_least(1, "positive integer")


def _t_samples(text):
    """Comma-separated t samples, each finite and > 0; None for a value
    that holds no number (empty, commas, spaces), which means "no samples
    given"."""
    out = [float(chunk) for chunk in text.split(",") if chunk.strip()]
    if not all(0 < t < math.inf for t in out):  # also rejects nan
        raise ValueError(text)
    return out or None


_t_samples.__name__ = "t-sample list"


def _field(text):
    # a FieldError is a ValueError, which argparse would report as an
    # invalid int: the field's message goes out as a CliError
    try:
        return FieldSpec(int(text))
    except FieldError as exc:
        raise CliError(str(exc))


_field.__name__ = "int"


# ------------------------------------------------------------- subcommands


def cmd_pi_sphere(args):
    n = args.n
    T = args.T if args.T is not None else n + 4
    W = args.W if args.W is not None else T
    if T < n:
        raise CliError("T must be at least n")
    report = sphere_homotopy(args.char, args.q, n, T, W)
    return report.to_json_dict(), 0


def cmd_hq_sphere(args):
    n = args.n
    T = args.T if args.T is not None else n + 4
    if T < n:
        raise CliError("T must be at least n")
    A = sphere_algebra(args.char, args.q, n, T, 1)
    h = indecomposables(A).homotopy_dims()
    payload = {
        "field": args.char.characteristic,
        "q": args.q,
        "n": n,
        "T": T,
        "dims": h.to_list(T),
        "certified_degree": h.certified_degree,
    }
    return payload, 0


def cmd_em(args):
    q, n, T = args.q, args.n, args.T
    if T < n:
        raise CliError("T must be at least n")
    # level m of K(V, n) has q*C(m, n) basis vectors; the count stops past the budget
    level_dims = (q * math.comb(m, n) for m in range(T + 1))
    for m, size in SimplicialVectorSpace.json_entry_counts(level_dims):
        if size > symalg.ENUM_BUDGET:
            raise CliError("K(V, n) through level %d has more face and "
                           "degeneracy entries than the budget of %d; lower "
                           "T or q" % (m, symalg.ENUM_BUDGET))
    v = eilenberg_maclane(args.char, q, n, T)
    return v.to_json_dict(), 0


def cmd_cofiber(args):
    tables = power_cofiber_tables(args.r, args.s, args.T, args.W, args.N)
    return tables.to_json_dict(), 0


def cmd_series(args):
    n, p = args.n, args.char.characteristic
    if p == 0:
        return sphere_series_char0(args.q, n, args.M).to_json_dict(), 0
    series = sphere_series_charp(args.q, n, p, args.M, W=args.W)
    payload = series.to_json_dict()
    code = 0
    if series.truncation < args.M:
        payload["requested_truncation"] = args.M
        code = 2
    return payload, code


def cmd_audit(args):
    if args.char.characteristic == 0:
        raise CliError(
            "the audit needs characteristic p != 0; use rational-check"
        )
    profile = EnvelopeProfile(args.char, args.profile, pi_bound=args.pi_bound)
    verdict = serre_audit(profile, mode=args.mode,
                          t_samples=args.t_samples, M=args.M)
    payload = verdict.to_json_dict()
    return payload, 2 if verdict.outcome == "inconclusive" else 0


def cmd_rational_check(args):
    verdict = rational_check(EnvelopeProfile(0, args.profile), args.pi_finite)
    return verdict.to_json_dict(), 0


def cmd_rational_example(args):
    r, s = args.r, args.s
    upto = args.T if args.T is not None else 2 * r * s + 2
    pi, hq = power_cofiber_closed_form(r, s, upto)
    hq = {str(m): v for m, v in hq.data.items()}
    notes = []
    if s == 1:
        notes.append(
            "s=1: the table readings disagree; homotopy is that of the "
            "ground field while the generic homology table is printed "
            "verbatim"
        )
    payload = {"r": r, "s": s, "upto": upto, "pi": pi, "hq": hq,
               "notes": notes}
    return payload, 0


def cmd_asymptotic(args):
    n, p = args.n, args.p.characteristic
    if not args.t_samples:
        raise CliError("need at least one t sample")
    rep = asymptotic_check(args.q, n, p, args.t_samples, M=args.M)
    if args.output == "csv":
        return rep.to_csv(), 0
    payload = {
        "q": args.q,
        "n": n,
        "p": p,
        "truncation": rep.truncation,
        "rows": [
            {"t": r.t, "phi": r.phi, "reference": r.reference,
             "ratio": r.ratio, "stabilized": r.stabilized}
            for r in rep.rows
        ],
        "monotone_toward_one": rep.monotone_toward_one(),
        "inconclusive_from": rep.inconclusive_from(),
    }
    return payload, 0


def _random_matrix(rng, field, nrows, ncols):
    if field.characteristic == 0:
        pick = lambda: rng.randint(-3, 3)
    else:
        pick = lambda: rng.randrange(field.characteristic)
    return Mat.from_rows(field, [[pick() for _ in range(ncols)]
                                 for _ in range(nrows)], ncols=ncols)


def _random_complex(rng, field, T):
    dims = [rng.randint(0, 2) for _ in range(T + 1)]
    diffs = [None]
    prev_kernel = None
    for m in range(1, T + 1):
        if m == 1:
            d = _random_matrix(rng, field, dims[0], dims[1])
        else:
            mix = _random_matrix(rng, field, prev_kernel.ncols, dims[m])
            d = prev_kernel @ mix
        diffs.append(d)
        if m < T:
            prev_kernel = kernel_basis(d)
    return dims, diffs


def run_property_checks(seed, cases):
    from .exactfield import GF2, GF3

    rng = random.Random(seed)
    fields = [QQ, GF2, GF3]
    checks = {"rank_nullity": 0, "dual_oracle": 0, "kunneth": 0}
    failures = []
    for i in range(cases):
        field = fields[rng.randrange(3)]
        m = _random_matrix(rng, field, rng.randint(0, 5), rng.randint(0, 5))
        if rank(m) + kernel_basis(m).ncols != m.ncols:
            failures.append(["rank_nullity", i])
        checks["rank_nullity"] += 1
        T = rng.randint(1, 3)
        dims, diffs = _random_complex(rng, field, T)
        v = gamma(field, dims, diffs, T)
        hn = v.normalized_chains().homology_dims()
        hu = v.unnormalized_chains().homology_dims()
        if any(hn[d] != hu[d] for d in range(T)):
            failures.append(["dual_oracle", i])
        checks["dual_oracle"] += 1
        if i % 5 == 0:
            dims2, diffs2 = _random_complex(rng, field, T)
            w = gamma(field, dims2, diffs2, T)
            tensor_h = v.tensor(w).homotopy_dims()
            hw = w.homotopy_dims()
            conv = hn.convolve(hw, upto=T - 1)
            if any(tensor_h[d] != conv[d] for d in range(T)):
                failures.append(["kunneth", i])
            checks["kunneth"] += 1
    return checks, failures


def cmd_property_test(args):
    checks, failures = run_property_checks(args.seed, args.cases)
    payload = {
        "seed": args.seed,
        "cases": args.cases,
        "checks": checks,
        "failures": failures,
    }
    return payload, 0 if not failures else 3


# ------------------------------------------------------------- parser

# Every subcommand once: its help line, its handler, and its options as
# add_argument keywords by flag, in help order; each also takes --output.
COMMANDS = {
    "pi-sphere": ("homotopy of a sphere algebra", cmd_pi_sphere, {
        "--char": dict(type=_field, default="0"),
        "-q": dict(type=_nonnegative, default=1),
        "-n": dict(type=_positive, required=True),
        "-T": dict(type=_nonnegative),
        "-W": dict(type=_nonnegative),
    }),
    "hq-sphere": ("homology of a sphere algebra (homotopy of its "
                  "indecomposables)", cmd_hq_sphere, {
        "--char": dict(type=_field, default="0"),
        "-q": dict(type=_nonnegative, default=1),
        "-n": dict(type=_positive, required=True),
        "-T": dict(type=_nonnegative),
    }),
    "em": ("Eilenberg-MacLane object as JSON data", cmd_em, {
        "--char": dict(type=_field, default="0"),
        "-q": dict(type=_nonnegative, default=1),
        "-n": dict(type=_nonnegative, required=True),
        "-T": dict(type=_nonnegative, required=True),
    }),
    "cofiber": ("bar-cofiber tables of the power map", cmd_cofiber, {
        "-r": dict(type=_positive, required=True),
        "-s": dict(type=_positive, required=True),
        "-T": dict(type=_nonnegative),
        "-W": dict(type=_nonnegative),
        "-N": dict(type=_nonnegative),
    }),
    "series": ("sphere Poincare series", cmd_series, {
        "--char": dict(type=_field, default="0"),
        "-q": dict(type=_nonnegative, default=1),
        "-n": dict(type=_positive, required=True),
        "-M": dict(type=_nonnegative, default=8),
        "-W": dict(type=_nonnegative),
    }),
    "audit": ("boundedness audit of a homology profile", cmd_audit, {
        "--char": dict(type=_field, required=True),
        "--profile": dict(type=_parse_profile, required=True),
        "--pi-bound": dict(type=_positive),
        "--mode": dict(choices=("asymptotic", "empirical"), default="asymptotic"),
        "--t-samples": dict(type=_t_samples),
        "-M": dict(type=_nonnegative, default=6),
    }),
    "rational-check": ("characteristic-zero vanishing check", cmd_rational_check, {
        "--profile": dict(type=_parse_profile, required=True),
        "--pi-finite": dict(action="store_true"),
    }),
    "rational-example": ("closed-form tables of the rational power cofiber",
                         cmd_rational_example, {
        "-r": dict(type=_positive, required=True),
        "-s": dict(type=_positive, required=True),
        "-T": dict(type=_nonnegative),
    }),
    "asymptotic": ("growth-law comparison table", cmd_asymptotic, {
        # q >= 1: the growth reference is proportional to q
        "-q": dict(type=_positive, default=1),
        "-n": dict(type=_positive, required=True),
        "-p": dict(type=_field, required=True),
        "--t-samples": dict(type=_t_samples, default="0.25,0.5,1,2,4,8"),
        "-M": dict(type=_nonnegative, default=6),
    }),
    "property-test": ("seeded randomized invariant checks", cmd_property_test, {
        "--seed": dict(type=int, default=0),
        "--cases": dict(type=_nonnegative, default=25),
    }),
}


def build_parser(command=None):
    """The parser of ``command`` when it names a subcommand, which reads
    the tokens after that name.  Otherwise the scalg parser, which knows
    only the subcommands' names and help lines: it prints the help of
    ``scalg -h`` and the error of an argv that names no subcommand
    first."""
    if command in COMMANDS:
        parser = _Parser(prog="scalg " + command)
        for flag, kwargs in COMMANDS[command][2].items():
            parser.add_argument(flag, **kwargs)
        parser.add_argument("--output", choices=OUTPUT_FORMATS, default="json")
        return parser
    parser = _Parser(prog="scalg", description=__doc__.splitlines()[0])
    # for the help text only: main() takes --config out before parsing
    parser.add_argument("--config", help="key = value defaults file")
    sub = parser.add_subparsers(dest="command")
    for name, (summary, _, _) in COMMANDS.items():
        sub.add_parser(name, help=summary)
    return parser


def main(argv=None, stdout=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    stdout = stdout or sys.stdout
    try:
        code = _run(argv, stdout)
        if stdout is sys.stdout:
            stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        if stdout is sys.stdout:
            # the interpreter flushes sys.stdout again at exit, which into
            # the closed pipe would print "Exception ignored ..." to stderr
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout.fileno())
            os.close(devnull)
        return 141


def _split_config(argv):
    """(values of the --config file, argv without that flag): argparse
    never sees --config, which may stand before or after the subcommand,
    in the form "--config PATH" or "--config=PATH", once."""
    at = [k for k, a in enumerate(argv)
          if a == "--config" or a.startswith("--config=")]
    if not at:
        return {}, argv
    if len(at) > 1:
        raise CliError("--config is given twice")
    k = at[0]
    if argv[k] != "--config":
        return load_config(argv[k][len("--config="):]), argv[:k] + argv[k + 1:]
    if k + 1 >= len(argv):
        raise CliError("--config needs a path")
    return load_config(argv[k + 1]), argv[:k] + argv[k + 2:]


def _config_flags(config, command):
    """``command``'s config values as ``flag=value`` tokens; a switch is
    its bare flag for 1, true or yes, and absent for 0, false or no."""
    tokens = []
    for flag, kwargs in [*COMMANDS[command][2].items(), ("--output", {})]:
        value = config.get(_dest(flag))
        switch = kwargs.get("action") == "store_true"
        if value is None or switch and value.lower() in ("0", "false", "no"):
            continue
        if switch and value.lower() in ("1", "true", "yes"):
            tokens.append(flag)
        else:  # argparse refuses any other value of a switch
            tokens.append(flag + "=" + value)
    return tokens


def _run(argv, stdout):
    """main() without its handling of a closed output pipe."""
    try:
        config, rest = _split_config(argv)
        if not rest or rest[0] not in COMMANDS:
            build_parser().parse_args(rest)  # help, or an error
            raise CliError("a subcommand is required (see --help)")
        name = rest[0]
        # the file's values come first, so the flags given after them win
        tokens = _config_flags(config, name) + rest[1:]
        args = build_parser(name).parse_args(tokens)
        payload, code = COMMANDS[name][1](args)
        if isinstance(payload, str):
            stdout.write(payload)
        else:
            render(payload, args.output, stdout)
        return code
    except _Help as exc:
        stdout.write(str(exc))
        return 0
    except (CliError, ProfileError, SeriesInputError, BoundsError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except SeriesError as exc:
        stdout.write("inconclusive: %s\n" % exc)
        return 2
    except (TableMismatch, SimplicialError, CycleError, FieldError,
            AssertionError) as exc:
        sys.stderr.write("internal invariant violation: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())

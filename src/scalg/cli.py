"""Command-line entry point: every computation as a subcommand with
reproducible, machine-readable output.

Exit codes: 0 success, 1 invalid input, 2 honest inconclusiveness at the
configured truncation (retry with larger bounds), 3 internal invariant
violation, 141 (128 + SIGPIPE) the reader closed the output pipe, as
``scalg em ... | head`` does; nothing is written to stderr then.
Identical invocations, including the seed of property-test, produce
byte-identical output.  Every subcommand computes its whole result before
anything is written, so exit codes 1, 2 and 3 write no partial output.

A config file of ``key = value`` lines (# comments allowed) supplies
defaults which explicit flags override; keys use the long flag names.
``-h`` writes its help to main()'s ``stdout`` and returns 0.  ``cofiber``
refuses, with exit 1, bounds whose largest symmetric power exceeds the
enumeration budget of ``symalg``.
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
from .simplicial import SimplicialError, eilenberg_maclane, gamma
from .symalg import indecomposables, sphere_algebra, sphere_homotopy
from .barcof import (
    CycleError,
    TableMismatch,
    cofiber_bounds,
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
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


class Inconclusive(CliError):
    def __init__(self, message):
        super().__init__(message, code=2)


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
        raise CliError(message, code=1)

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


def load_config(path):
    values = {}
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
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise CliError("cannot read config file: %s" % exc)
    return values


# ------------------------------------------------------------- arguments


def _parse_profile(text):
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


# Each numeric option's range is its argparse type, so it is checked once,
# for flags and config-file values alike (argparse converts string
# defaults); a ValueError from a type reads "invalid <name> value".


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


def _field(char):
    try:
        return FieldSpec(char)
    except FieldError as exc:
        raise CliError(str(exc))


# ------------------------------------------------------------- subcommands


def cmd_pi_sphere(args):
    field = _field(args.char)
    n = args.n
    T = args.T if args.T is not None else n + 4
    W = args.W if args.W is not None else T
    if T < n:
        raise CliError("T must be at least n")
    report = sphere_homotopy(field, args.q, n, T, W)
    return report.to_json_dict(), 0


def cmd_hq_sphere(args):
    field = _field(args.char)
    n = args.n
    T = args.T if args.T is not None else n + 4
    if T < n:
        raise CliError("T must be at least n")
    A = sphere_algebra(field, args.q, n, T, 1)
    h = indecomposables(A).homotopy_dims()
    payload = {
        "field": field.characteristic,
        "q": args.q,
        "n": n,
        "T": T,
        "dims": h.to_list(T),
        "certified_degree": h.certified_degree,
    }
    return payload, 0


def cmd_em(args):
    field = _field(args.char)
    if args.T < args.n:
        raise CliError("T must be at least n")
    v = eilenberg_maclane(field, args.q, args.n, args.T)
    return v.to_json_dict(), 0


def cmd_cofiber(args):
    if args.char != 0:
        raise CliError("cofiber tables are a characteristic-zero computation")
    try:
        bounds = cofiber_bounds(args.r, args.s, args.T, args.W, args.N)
    except ValueError as exc:
        raise CliError(str(exc))
    # past the argument checks every ValueError (SimplicialError, CycleError,
    # FieldError) is an internal fault
    return power_cofiber_tables(args.r, args.s, *bounds).to_json_dict(), 0


def cmd_series(args):
    n = args.n
    if args.char == 0:
        return sphere_series_char0(args.q, n, args.M).to_json_dict(), 0
    _field(args.char)
    try:
        series = sphere_series_charp(args.q, n, args.char, args.M, W=args.W)
    except SeriesError as exc:
        raise Inconclusive(str(exc))
    payload = series.to_json_dict()
    code = 0
    if series.truncation < args.M:
        payload["requested_truncation"] = args.M
        code = 2
    return payload, code


def cmd_audit(args):
    if args.char == 0:
        raise CliError(
            "the audit needs characteristic p != 0; use rational-check"
        )
    _field(args.char)
    dims = _parse_profile(args.profile)
    try:
        profile = EnvelopeProfile(args.char, dims, pi_bound=args.pi_bound)
        verdict = serre_audit(profile, mode=args.mode,
                              t_samples=args.t_samples, M=args.M)
    except (ProfileError, SeriesError) as exc:
        raise CliError(str(exc))
    payload = verdict.to_json_dict()
    return payload, 2 if verdict.outcome == "inconclusive" else 0


def cmd_rational_check(args):
    dims = _parse_profile(args.profile)
    try:
        profile = EnvelopeProfile(0, dims)
        verdict = rational_check(profile, args.pi_finite)
    except ProfileError as exc:
        raise CliError(str(exc))
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
    n, p = args.n, args.p
    _field(p)
    if not args.t_samples:
        raise CliError("need at least one t sample")
    try:
        rep = asymptotic_check(args.q, n, p, args.t_samples, M=args.M)
    except SeriesInputError as exc:
        raise CliError(str(exc))
    except SeriesError as exc:
        raise Inconclusive(str(exc))
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
# add_argument keywords by flag, in help order; each also takes --output
# and a hidden --config.
COMMANDS = {
    "pi-sphere": ("homotopy of a sphere algebra", cmd_pi_sphere, {
        "--char": dict(type=int, default=0),
        "-q": dict(type=_nonnegative, default=1),
        "-n": dict(type=_positive, required=True),
        "-T": dict(type=_nonnegative),
        "-W": dict(type=_nonnegative),
    }),
    "hq-sphere": ("homology of a sphere algebra (homotopy of its "
                  "indecomposables)", cmd_hq_sphere, {
        "--char": dict(type=int, default=0),
        "-q": dict(type=_nonnegative, default=1),
        "-n": dict(type=_positive, required=True),
        "-T": dict(type=_nonnegative),
    }),
    "em": ("Eilenberg-MacLane object as JSON data", cmd_em, {
        "--char": dict(type=int, default=0),
        "-q": dict(type=_nonnegative, default=1),
        "-n": dict(type=_nonnegative, required=True),
        "-T": dict(type=_nonnegative, required=True),
    }),
    "cofiber": ("bar-cofiber tables of the power map", cmd_cofiber, {
        "--char": dict(type=int, default=0),
        "-r": dict(type=_positive, required=True),
        "-s": dict(type=_positive, required=True),
        "-T": dict(type=_nonnegative),
        "-W": dict(type=_nonnegative),
        "-N": dict(type=_nonnegative),
    }),
    "series": ("sphere Poincare series", cmd_series, {
        "--char": dict(type=int, default=0),
        "-q": dict(type=_nonnegative, default=1),
        "-n": dict(type=_positive, required=True),
        "-M": dict(type=_nonnegative, default=8),
        "-W": dict(type=_nonnegative),
    }),
    "audit": ("boundedness audit of a homology profile", cmd_audit, {
        "--char": dict(type=int, required=True),
        "--profile": dict(required=True),
        "--pi-bound": dict(type=_positive),
        "--mode": dict(choices=("asymptotic", "empirical"), default="asymptotic"),
        "--t-samples": dict(type=_t_samples),
        "-M": dict(type=_nonnegative, default=6),
    }),
    "rational-check": ("characteristic-zero vanishing check", cmd_rational_check, {
        "--profile": dict(required=True),
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
        "-p": dict(type=_positive, required=True),
        "--t-samples": dict(type=_t_samples, default="0.25,0.5,1,2,4,8"),
        "-M": dict(type=_nonnegative, default=6),
    }),
    "property-test": ("seeded randomized invariant checks", cmd_property_test, {
        "--seed": dict(type=int, default=0),
        "--cases": dict(type=_nonnegative, default=25),
    }),
}


def build_parser(command=None):
    """The scalg parser with the subparser of ``command`` only (building
    the other nine costs more than a small computation), or with all of
    them when ``command`` names no subcommand."""
    parser = _Parser(prog="scalg", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="key = value defaults file")
    sub = parser.add_subparsers(dest="command")
    parser.subcommands = sub.choices
    for name in [command] if command in COMMANDS else COMMANDS:
        summary, _, options = COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--output", choices=OUTPUT_FORMATS, default="json")
        p.add_argument("--config", help=argparse.SUPPRESS)
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


def _run(argv, stdout):
    """main() without its handling of a closed output pipe."""
    try:
        config, rest = {}, argv
        idx = next((k for k, a in enumerate(argv)
                    if a == "--config" or a.startswith("--config=")), None)
        if idx is not None:
            # argparse takes both "--config PATH" and "--config=PATH"
            if argv[idx] == "--config":
                if idx + 1 >= len(argv):
                    raise CliError("--config needs a path")
                path, rest = argv[idx + 1], argv[:idx] + argv[idx + 2:]
            else:
                path, rest = argv[idx][len("--config="):], argv[:idx] + argv[idx + 1:]
            config = load_config(path)
        parser = build_parser(rest[0] if rest else None)
        command = next((a for a in rest if a in parser.subcommands), None)
        if command is not None:
            # the file's values become the chosen subcommand's defaults,
            # which argparse converts with each option's type; explicit
            # flags win, and an option the file supplies is not required
            for action in parser.subcommands[command]._actions:
                if action.dest in config:
                    value = config[action.dest]
                    if isinstance(action.default, bool):
                        value = value.lower() in ("1", "true", "yes")
                    action.default, action.required = value, False
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError("a subcommand is required (see --help)")
        if args.output not in OUTPUT_FORMATS:
            raise CliError("output must be one of %s" % (OUTPUT_FORMATS,))
        payload, code = COMMANDS[args.command][1](args)
        if isinstance(payload, str):
            stdout.write(payload)
        else:
            render(payload, args.output, stdout)
        return code
    except _Help as exc:
        stdout.write(str(exc))
        return 0
    except Inconclusive as exc:
        stdout.write("inconclusive: %s\n" % exc)
        return 2
    except CliError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.code
    except (TableMismatch, SimplicialError, CycleError, FieldError,
            AssertionError) as exc:
        sys.stderr.write("internal invariant violation: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())

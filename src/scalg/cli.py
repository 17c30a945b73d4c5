"""Command-line entry point: every computation as a subcommand with
reproducible, machine-readable output.

Exit codes: 0 success, 1 invalid input, 2 honest inconclusiveness at the
configured truncation (retry with larger bounds), 3 internal invariant
violation.  Identical invocations, including the seed of property-test,
produce byte-identical output.

A config file of ``key = value`` lines (# comments allowed) supplies
defaults which explicit flags override; keys use the long flag names.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from .exactfield import FieldError, FieldSpec, Mat, QQ, kernel_basis, rank
from .simplicial import SimplicialError, eilenberg_maclane, gamma
from .symalg import indecomposables, sphere_algebra, sphere_homotopy
from .barcof import (
    TableMismatch,
    power_cofiber_closed_form,
    power_cofiber_tables,
)
from .series import (
    SeriesError,
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


OUTPUT_FORMATS = ("json", "csv", "table")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix of a long option stands for it: main() finds --config
        # by its full name before argparse runs, so "--conf PATH" would
        # parse yet skip the file
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError(message, code=1)


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


def render(payload, fmt):
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    rows = _flatten(payload)
    if fmt == "csv":
        lines = ["key,value"]
        for k, v in rows:
            v = str(v).replace('"', '""')
            lines.append('%s,"%s"' % (k, v))
        return "\n".join(lines) + "\n"
    width = max((len(k) for k, _ in rows), default=0)
    return "".join("%-*s  %s\n" % (width, k, v) for k, v in rows)


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
            dims[int(s)] = int(q)
        except ValueError:
            raise CliError("profile entry %r is not integer:integer" % chunk)
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
    """Comma-separated t samples, each finite and > 0; None for the empty
    option, which means "no samples given"."""
    if not text:
        return None
    out = [float(chunk) for chunk in text.split(",") if chunk.strip()]
    if not all(0 < t < math.inf for t in out):  # also rejects nan
        raise ValueError(text)
    return out


_t_samples.__name__ = "t-sample list"


def _field(char):
    try:
        return FieldSpec(char)
    except FieldError as exc:
        raise CliError(str(exc))


def build_parser():
    parser = _Parser(prog="scalg", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="key = value defaults file")
    sub = parser.add_subparsers(dest="command")
    parser.subcommands = sub.choices

    def add_common(p):
        p.add_argument("--output", choices=OUTPUT_FORMATS, default="json")
        p.add_argument("--config", help=argparse.SUPPRESS)

    p = sub.add_parser("pi-sphere", help="homotopy of a sphere algebra")
    p.add_argument("--char", type=int, default=0)
    p.add_argument("-q", type=_nonnegative, default=1)
    p.add_argument("-n", type=_positive, required=True)
    p.add_argument("-T", type=_nonnegative, default=None)
    p.add_argument("-W", type=_nonnegative, default=None)
    add_common(p)

    p = sub.add_parser("hq-sphere", help="homology of a sphere algebra "
                                         "(homotopy of its indecomposables)")
    p.add_argument("--char", type=int, default=0)
    p.add_argument("-q", type=_nonnegative, default=1)
    p.add_argument("-n", type=_positive, required=True)
    p.add_argument("-T", type=_nonnegative, default=None)
    add_common(p)

    p = sub.add_parser("em", help="Eilenberg-MacLane object as JSON data")
    p.add_argument("--char", type=int, default=0)
    p.add_argument("-q", type=_nonnegative, default=1)
    p.add_argument("-n", type=_nonnegative, required=True)
    p.add_argument("-T", type=_nonnegative, required=True)
    add_common(p)

    p = sub.add_parser("cofiber", help="bar-cofiber tables of the power map")
    p.add_argument("--char", type=int, default=0)
    p.add_argument("-r", type=_positive, required=True)
    p.add_argument("-s", type=_positive, required=True)
    p.add_argument("-T", type=_nonnegative, default=None)
    p.add_argument("-W", type=_nonnegative, default=None)
    p.add_argument("-N", type=_nonnegative, default=None)
    add_common(p)

    p = sub.add_parser("series", help="sphere Poincare series")
    p.add_argument("--char", type=int, default=0)
    p.add_argument("-q", type=_nonnegative, default=1)
    p.add_argument("-n", type=_positive, required=True)
    p.add_argument("-M", type=_nonnegative, default=8)
    p.add_argument("-W", type=_nonnegative, default=None)
    add_common(p)

    p = sub.add_parser("audit", help="boundedness audit of a homology profile")
    p.add_argument("--char", type=int, required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--pi-bound", type=_positive, default=None)
    p.add_argument("--mode", choices=("asymptotic", "empirical"),
                   default="asymptotic")
    p.add_argument("--t-samples", type=_t_samples, default=None)
    p.add_argument("-M", type=_nonnegative, default=6)
    add_common(p)

    p = sub.add_parser("rational-check",
                       help="characteristic-zero vanishing check")
    p.add_argument("--profile", required=True)
    p.add_argument("--pi-finite", action="store_true")
    add_common(p)

    p = sub.add_parser("rational-example",
                       help="closed-form tables of the rational power cofiber")
    p.add_argument("-r", type=_positive, required=True)
    p.add_argument("-s", type=_positive, required=True)
    p.add_argument("-T", type=_nonnegative, default=None)
    add_common(p)

    p = sub.add_parser("asymptotic", help="growth-law comparison table")
    p.add_argument("-q", type=_nonnegative, default=1)
    p.add_argument("-n", type=_positive, required=True)
    p.add_argument("-p", type=_positive, required=True)
    p.add_argument("--t-samples", type=_t_samples, default="0.25,0.5,1,2,4,8")
    p.add_argument("-M", type=_nonnegative, default=6)
    add_common(p)

    p = sub.add_parser("property-test",
                       help="seeded randomized invariant checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_nonnegative, default=25)
    add_common(p)

    return parser


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
        rep = power_cofiber_tables(args.r, args.s, T=args.T, W=args.W, N=args.N)
    except ValueError as exc:
        raise CliError(str(exc))
    return rep.to_json_dict(), 0


def cmd_series(args):
    n = args.n
    if args.char == 0:
        if args.q == 0:
            from .series import unit_series

            payload = unit_series(args.M).to_json_dict()
            return payload, 0
        series = sphere_series_char0(args.q, n, args.M)
        return series.to_json_dict(), 0
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


def _random_complex(rng, field, T, max_dim=3):
    dims = [rng.randint(0, max_dim) for _ in range(T + 1)]
    diffs = [None]
    prev_kernel = None
    for m in range(1, T + 1):
        if m == 1:
            d = _random_matrix(rng, field, dims[0], dims[1])
        else:
            mix = _random_matrix(rng, field, prev_kernel.ncols, dims[m])
            d = prev_kernel @ mix
        diffs.append(d)
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
        dims, diffs = _random_complex(rng, field, T, max_dim=2)
        v = gamma(field, dims, diffs, T)
        hn = v.normalized_chains().homology_dims()
        hu = v.unnormalized_chains().homology_dims()
        if any(hn[d] != hu[d] for d in range(T)):
            failures.append(["dual_oracle", i])
        checks["dual_oracle"] += 1
        if i % 5 == 0:
            dims2, diffs2 = _random_complex(rng, field, T, max_dim=2)
            w = gamma(field, dims2, diffs2, T)
            tensor_h = v.tensor(w).homotopy_dims()
            hw = w.homotopy_dims()
            conv = {}
            for a in range(T):
                for b in range(T - a):
                    conv[a + b] = conv.get(a + b, 0) + hn[a] * hw[b]
            if any(tensor_h[d] != conv.get(d, 0) for d in range(T)):
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


HANDLERS = {
    "pi-sphere": cmd_pi_sphere,
    "hq-sphere": cmd_hq_sphere,
    "em": cmd_em,
    "cofiber": cmd_cofiber,
    "series": cmd_series,
    "audit": cmd_audit,
    "rational-check": cmd_rational_check,
    "rational-example": cmd_rational_example,
    "asymptotic": cmd_asymptotic,
    "property-test": cmd_property_test,
}


def main(argv=None, stdout=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    stdout = stdout or sys.stdout
    parser = build_parser()
    try:
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
            command = next((a for a in rest if a in parser.subcommands), None)
            if command is not None:
                # the file's values become the chosen subcommand's defaults,
                # which argparse converts with each option's type; explicit
                # flags win, and an option the file supplies is not required
                subparser = parser.subcommands[command]
                defaults = {}
                for action in subparser._actions:
                    if action.dest in config:
                        value = config[action.dest]
                        if isinstance(action.default, bool):
                            value = value.lower() in ("1", "true", "yes")
                        defaults[action.dest] = value
                        action.required = False
                subparser.set_defaults(**defaults)
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError("a subcommand is required (see --help)")
        if args.output not in OUTPUT_FORMATS:
            raise CliError("output must be one of %s" % (OUTPUT_FORMATS,))
        payload, code = HANDLERS[args.command](args)
        if isinstance(payload, str):
            stdout.write(payload)
        else:
            stdout.write(render(payload, args.output))
        return code
    except Inconclusive as exc:
        stdout.write("inconclusive: %s\n" % exc)
        return 2
    except CliError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.code
    except (TableMismatch, SimplicialError, AssertionError) as exc:
        sys.stderr.write("internal invariant violation: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())

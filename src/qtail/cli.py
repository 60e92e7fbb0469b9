"""Command-line interface.

Subcommands:

* ``eval basic|elliptic|fourier|trig|sine`` -- a kernel value at given
  points, or the Fourier matrix at eta.
* ``verify`` -- run randomized identity suites and report residuals.
* ``scan tail|trig|sine`` -- convergence scans (tail depth, trig q-sweep,
  sine q-sweep).
* ``sample`` -- draw from the determinantal process on a lattice window.

Each command takes only the flags it reads; any other flag exits 2.

Complex values are accepted as ``re+imi`` / ``re-imi`` / ``[re,im]`` /
plain reals, and always emitted as ``[re, im]`` pairs.  With ``--out`` the
results are written to the file and a ``<file>.manifest.json`` sidecar
records the fully resolved parameters.  Exit codes: 0 success, 1
verification failure, 2 invalid parameters, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections import Counter

import numpy as np

from . import __version__
from .dpp import SampleConfig, Window, correlation, sample_window
from .fourier import fourier_closed
from .kernels import (
    LatticePoint,
    QContext,
    basic_kernel,
    elliptic_kernel,
    validate_pair,
    validate_quadruple,
)
from .limits import (
    RegimeI,
    RegimeII,
    TrigParams,
    sine_kernel,
    sine_limit_scan,
    tail_limit_scan,
    trig_kernel,
    trig_limit_scan,
)
from .qspecial import DomainError, QParam
from .verify import SUITES, apply_thresholds

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def finite_float(s) -> float:
    """A float flag or part of a complex one; nan and inf are rejected."""
    x = float(s)
    if not math.isfinite(x):
        raise DomainError(f"{s!r} is not a finite number")
    return x


def parse_complex(s: str) -> complex:
    """Accept 're+imi', 're-imi', '[re,im]', or a plain real, with finite parts."""
    s = s.strip()
    if s.startswith("[") and s.endswith("]"):
        parts = s[1:-1].split(",")
        if len(parts) != 2:
            raise DomainError(f"bad complex literal {s!r}")
        return complex(finite_float(parts[0]), finite_float(parts[1]))
    if s.endswith("i"):
        z = complex(s[:-1].replace("i", "j") + "j")
        return complex(finite_float(z.real), finite_float(z.imag))
    return complex(finite_float(s), 0.0)


def emit_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def parse_point(s: str) -> LatticePoint:
    """Lattice point literal 'SIGN:K', e.g. '+:3' or '-:0'."""
    s = s.strip()
    try:
        sign_s, k_s = s.split(":")
        sign = {"+": 1, "-": -1, "+1": 1, "-1": -1}[sign_s.strip()]
        return LatticePoint(sign, int(k_s))
    except (ValueError, KeyError) as exc:
        raise DomainError(f"bad lattice point {s!r}; expected '+:k' or '-:k'") from exc


def _context(args) -> QContext:
    return QContext(QParam(args.q), args.zeta_plus, args.zeta_minus)


def _rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    w.writeheader()
    for r in rows:
        w.writerow({k: json.dumps(v) if isinstance(v, list) else v for k, v in r.items()})
    return buf.getvalue()


def _output(args, payload: dict, rows: list[dict]) -> None:
    if args.format == "csv":
        text = _rows_to_csv(rows)
    else:
        text = json.dumps(payload, indent=2, default=str) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "tool": "qtail",
            "version": __version__,
            "command": sys.argv[1:],
            "params": {k: (emit_complex(v) if isinstance(v, complex) else v)
                       for k, v in vars(args).items() if k != "func"},
        }
        with open(args.out + ".manifest.json", "w") as f:
            json.dump(manifest, f, indent=2, default=str)
            f.write("\n")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _emit_value(args, value) -> int:
    row = {"kind": args.kind, "value": emit_complex(complex(value))}
    _output(args, row, [row])
    return EXIT_OK


def eval_basic(args) -> int:
    ctx = _context(args)
    quad = validate_quadruple(args.alpha, args.beta, args.gamma, args.delta, ctx)
    return _emit_value(args, basic_kernel(parse_point(args.x), parse_point(args.y),
                                          quad, ctx).value)


def eval_elliptic(args) -> int:
    ctx = _context(args)
    pair = validate_pair(args.gamma, args.delta, ctx)
    return _emit_value(args, elliptic_kernel(parse_point(args.x), parse_point(args.y),
                                             pair, ctx).value)


def eval_fourier(args) -> int:
    ctx = _context(args)
    M = fourier_closed(args.eta, validate_pair(args.gamma, args.delta, ctx), ctx)
    payload = {"kind": "fourier", "eta": args.eta,
               "matrix": [[emit_complex(v) for v in row] for row in M]}
    rows = [{"entry": e, "value": emit_complex(v)}
            for e, v in zip(("pp", "pm", "mp", "mm"), M.ravel())]
    _output(args, payload, rows)
    return EXIT_OK


def eval_trig(args) -> int:
    return _emit_value(args, trig_kernel((args.i, args.u), (args.j, args.v),
                                         TrigParams(args.c, args.d)))


def eval_sine(args) -> int:
    return _emit_value(args, sine_kernel(args.m, args.n, args.phi))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.seed < 0:
        raise DomainError("seed must be a non-negative integer")
    if args.draws < 1:
        raise DomainError("draws must be a positive integer")
    rng = np.random.default_rng(args.seed)
    rows = []
    for name in names:
        for check, worst, thresh, passed in apply_thresholds(SUITES[name](rng, args.draws)):
            rows.append({"suite": name, "check": check, "max_residual": worst,
                         "threshold": thresh, "passed": passed})
            print(f"{'PASS' if passed else 'FAIL'} {name}/{check}: "
                  f"max residual {worst:.3e} (threshold {thresh:.1e})")
    payload = {"schema_version": SCHEMA_VERSION, "seed": args.seed,
               "draws": args.draws, "results": rows}
    if args.out:
        _output(args, payload, rows)
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _emit_scan(args, rows: list[dict], **extra) -> int:
    payload = {"schema_version": SCHEMA_VERSION, "scan": args.which, **extra, "points": rows}
    _output(args, payload, rows)
    return EXIT_OK


def scan_tail(args) -> int:
    ctx = _context(args)
    quad = validate_quadruple(args.alpha, args.beta, args.gamma, args.delta, ctx)
    scan = tail_limit_scan(parse_point(args.x), parse_point(args.y), quad, ctx, args.m_max)
    return _emit_scan(args, [{"M": M, "error": e} for M, e in scan])


def scan_trig(args) -> int:
    reg = RegimeII(c=args.c, d=args.d, mirrored=args.mirrored, q_sweep=tuple(args.q_sweep))
    scan = trig_limit_scan(args.u, args.v, args.i, args.j, reg)
    return _emit_scan(args, [{"q": q, "error": e} for q, e in scan], mirrored=args.mirrored)


def scan_sine(args) -> int:
    reg = RegimeI(phi=args.phi, s=args.s, q_sweep=tuple(args.q_sweep))
    scan = sine_limit_scan(args.m, args.n, args.sign, reg)
    return _emit_scan(args, [{"q": q, "error": e} for q, e in scan])


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def cmd_sample(args) -> int:
    ctx = _context(args)
    pair = validate_pair(args.gamma, args.delta, ctx)
    points = tuple(parse_point(s) for s in args.points.split(","))
    window = Window(points)

    def kern(x, y):
        return elliptic_kernel(x, y, pair, ctx).value

    cfg = SampleConfig(n_samples=args.draws, seed=args.seed)
    samples = sample_window(window, kern, cfg)
    counts = Counter(samples)
    rows = [{"outcome": json.dumps(list(k)), "count": v, "frequency": v / args.draws}
            for k, v in sorted(counts.items())]
    rho1 = [correlation([p], kern) for p in points]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "draws": args.draws,
        "rho1": rho1,
        "outcomes": rows,
    }
    _output(args, payload, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _leaf(sub, name, func, help, allow_abbrev=False):
    """A parser that runs ``func`` and takes --format and --out.

    An eval or scan kind passes no ``allow_abbrev``, so a prefix of one of its
    flags is not read as the flag (``scan trig --q`` is not ``--q-sweep``).
    """
    p = sub.add_parser(name, help=help, allow_abbrev=allow_abbrev)
    p.set_defaults(func=func)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None, help="output file (manifest sidecar added)")
    return p


def _flags(p, type, help=None, **defaults) -> None:
    """One --NAME flag per keyword; a default of None makes the flag required."""
    for name, default in defaults.items():
        p.add_argument("--" + name.replace("_", "-"), type=type, default=default,
                       required=default is None, help=help)


def _add_lattice(p, q=None) -> None:
    """--q, the anchors zeta_+ and zeta_-, and the pair --gamma, --delta."""
    _flags(p, finite_float, q=q, zeta_plus=1.0, zeta_minus=-1.0)
    _flags(p, parse_complex, gamma=None, delta=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qtail",
                                 description="lattice kernel evaluation and verification")
    ap.add_argument("--version", action="version", version=f"qtail {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    point = "lattice point '+:k' or '-:k'"

    kinds = sub.add_parser("eval", help="evaluate a kernel").add_subparsers(
        dest="kind", required=True)
    p = _leaf(kinds, "basic", eval_basic, "the q-zw (four-parameter) kernel")
    _add_lattice(p)
    _flags(p, parse_complex, alpha=None, beta=None)
    _flags(p, str, help=point, x=None, y=None)
    p = _leaf(kinds, "elliptic", eval_elliptic, "the theta kernel")
    _add_lattice(p)
    _flags(p, str, help=point, x=None, y=None)
    p = _leaf(kinds, "fourier", eval_fourier, "the Fourier projection matrix at eta")
    _add_lattice(p)
    _flags(p, finite_float, eta=0.0)
    p = _leaf(kinds, "trig", eval_trig, "the trig limit kernel")
    _flags(p, finite_float, c=None, d=None, u=0.0, v=0.0)
    _flags(p, int, i=1, j=1)
    p = _leaf(kinds, "sine", eval_sine, "the sine limit kernel")
    _flags(p, finite_float, phi=None)
    _flags(p, int, m=0, n=0)

    p = _leaf(sub, "verify", cmd_verify, "randomized identity suites", allow_abbrev=True)
    p.add_argument("suite", choices=(*SUITES, "all"))
    _flags(p, int, seed=0, draws=100)

    scans = sub.add_parser("scan", help="convergence scans").add_subparsers(
        dest="which", required=True)
    p = _leaf(scans, "tail", scan_tail, "theta kernel error against the tail depth M")
    _add_lattice(p, q=0.5)
    _flags(p, parse_complex, alpha=None, beta=None)
    _flags(p, str, help=point, x="+:0", y="+:1")
    _flags(p, int, m_max=40)
    p = _leaf(scans, "trig", scan_trig, "trig limit error over a q sweep")
    _flags(p, finite_float, c=0.3, d=0.7, u=0.4, v=0.1)
    _flags(p, int, i=1, j=1)
    p.add_argument("--mirrored", action="store_true")
    p.add_argument("--q-sweep", type=finite_float, nargs="+", default=list(RegimeII.q_sweep))
    p = _leaf(scans, "sine", scan_sine, "sine limit error over a q sweep")
    _flags(p, finite_float, phi=1.2, s=1.0)
    _flags(p, int, m=1, n=0)
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--q-sweep", type=finite_float, nargs="+", default=list(RegimeI.q_sweep))

    p = _leaf(sub, "sample", cmd_sample, "sample the point process on a window",
              allow_abbrev=True)
    _add_lattice(p)
    p.add_argument("--points", required=True,
                   help="comma-separated lattice points, e.g. '+:0,+:1,-:0'")
    _flags(p, int, seed=0, draws=1000)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

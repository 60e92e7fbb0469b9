"""Command-line interface.

Subcommands:

* ``eval``   -- evaluate a kernel (basic / elliptic / trig / sine) or the
               Fourier matrix at given points.
* ``verify`` -- run randomized identity suites and report residuals.
* ``scan``   -- convergence scans (tail depth, trig q-sweep, sine q-sweep).
* ``sample`` -- draw from the determinantal process on a lattice window.

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


def _require(args, flags) -> None:
    missing = [f"--{f.replace('_', '-')}" for f in flags if getattr(args, f) is None]
    if missing:
        raise DomainError(f"missing {', '.join(missing)}")


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


# the flags each kind needs; argparse cannot make a flag required per kind
_EVAL_NEEDS = {
    "basic": ("q", "alpha", "beta", "gamma", "delta", "x", "y"),
    "elliptic": ("q", "gamma", "delta", "x", "y"),
    "fourier": ("q", "gamma", "delta"),
    "trig": ("c", "d"),
    "sine": ("phi",),
}


def cmd_eval(args) -> int:
    kind = args.kind
    _require(args, _EVAL_NEEDS[kind])
    if kind in ("basic", "elliptic", "fourier"):
        ctx = _context(args)
    if kind == "basic":
        quad = validate_quadruple(args.alpha, args.beta, args.gamma, args.delta, ctx)
        x, y = parse_point(args.x), parse_point(args.y)
        r = basic_kernel(x, y, quad, ctx)
        value = r.value
    elif kind == "elliptic":
        pair = validate_pair(args.gamma, args.delta, ctx)
        x, y = parse_point(args.x), parse_point(args.y)
        r = elliptic_kernel(x, y, pair, ctx)
        value = r.value
    elif kind == "fourier":
        pair = validate_pair(args.gamma, args.delta, ctx)
        M = fourier_closed(args.eta, pair, ctx)
        payload = {
            "kind": "fourier",
            "eta": args.eta,
            "matrix": [[emit_complex(v) for v in row] for row in M],
        }
        rows = [{"entry": e, "value": emit_complex(v)}
                for e, v in zip(("pp", "pm", "mp", "mm"), M.ravel())]
        _output(args, payload, rows)
        return EXIT_OK
    elif kind == "trig":
        tp = TrigParams(args.c, args.d)
        value = complex(trig_kernel((args.i, args.u), (args.j, args.v), tp))
    elif kind == "sine":
        value = complex(sine_kernel(args.m, args.n, args.phi))
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown kind {kind}")
    payload = {"kind": kind, "value": emit_complex(value)}
    _output(args, payload, [{"kind": kind, "value": emit_complex(value)}])
    return EXIT_OK


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


def cmd_scan(args) -> int:
    if args.which == "tail":
        _require(args, ("alpha", "beta", "gamma", "delta"))
        ctx = _context(args)
        quad = validate_quadruple(args.alpha, args.beta, args.gamma, args.delta, ctx)
        x, y = parse_point(args.x), parse_point(args.y)
        scan = tail_limit_scan(x, y, quad, ctx, args.m_max)
        rows = [{"M": M, "error": e} for M, e in scan]
        payload = {"schema_version": SCHEMA_VERSION, "scan": "tail", "points": rows}
    elif args.which == "trig":
        if args.q_sweep is None:
            args.q_sweep = list(RegimeII.q_sweep)
        reg = RegimeII(c=args.c, d=args.d, mirrored=args.mirrored,
                       q_sweep=tuple(args.q_sweep))
        scan = trig_limit_scan(args.u, args.v, args.i, args.j, reg)
        rows = [{"q": q, "error": e} for q, e in scan]
        payload = {"schema_version": SCHEMA_VERSION, "scan": "trig",
                   "mirrored": args.mirrored, "points": rows}
    else:
        if args.q_sweep is None:
            args.q_sweep = list(RegimeI.q_sweep)
        reg = RegimeI(phi=args.phi, s=args.s, q_sweep=tuple(args.q_sweep))
        scan = sine_limit_scan(args.m, args.n, args.sign, reg)
        rows = [{"q": q, "error": e} for q, e in scan]
        payload = {"schema_version": SCHEMA_VERSION, "scan": "sine", "points": rows}
    _output(args, payload, rows)
    return EXIT_OK


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


def _add_common(p):
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None, help="output file (manifest sidecar added)")


def _add_lattice(p, q=None, required=False, params=("gamma", "delta", "alpha", "beta")):
    """--q (default ``q``), the anchors and the pair or quadruple ``params``;
    with ``required``, --q and every one of ``params`` must be given."""
    p.add_argument("--q", type=finite_float, default=q, required=required)
    p.add_argument("--zeta-plus", dest="zeta_plus", type=finite_float, default=1.0)
    p.add_argument("--zeta-minus", dest="zeta_minus", type=finite_float, default=-1.0)
    for name in params:
        p.add_argument(f"--{name}", type=parse_complex, default=None, required=required)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qtail",
                                 description="lattice kernel evaluation and verification")
    ap.add_argument("--version", action="version", version=f"qtail {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a kernel")
    pe.add_argument("kind", choices=("basic", "elliptic", "trig", "sine", "fourier"))
    _add_lattice(pe)
    pe.add_argument("--x", default=None, help="lattice point '+:k' or '-:k'")
    pe.add_argument("--y", default=None)
    pe.add_argument("--eta", type=finite_float, default=0.0)
    pe.add_argument("--phi", type=finite_float, default=None)
    pe.add_argument("--m", type=int, default=0)
    pe.add_argument("--n", type=int, default=0)
    pe.add_argument("--u", type=finite_float, default=0.0)
    pe.add_argument("--v", type=finite_float, default=0.0)
    pe.add_argument("--i", type=int, default=1)
    pe.add_argument("--j", type=int, default=1)
    pe.add_argument("--c", type=finite_float, default=None)
    pe.add_argument("--d", type=finite_float, default=None)
    _add_common(pe)
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="randomized identity suites")
    pv.add_argument("suite", choices=(*SUITES, "all"))
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--draws", type=int, default=100)
    _add_common(pv)
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("scan", help="convergence scans")
    ps.add_argument("which", choices=("tail", "trig", "sine"))
    _add_lattice(ps, q=0.5)
    ps.add_argument("--x", default="+:0")
    ps.add_argument("--y", default="+:1")
    ps.add_argument("--m-max", dest="m_max", type=int, default=40)
    ps.add_argument("--c", type=finite_float, default=0.3)
    ps.add_argument("--d", type=finite_float, default=0.7)
    ps.add_argument("--u", type=finite_float, default=0.4)
    ps.add_argument("--v", type=finite_float, default=0.1)
    ps.add_argument("--i", type=int, default=1)
    ps.add_argument("--j", type=int, default=1)
    ps.add_argument("--mirrored", action="store_true")
    ps.add_argument("--phi", type=finite_float, default=1.2)
    ps.add_argument("--s", type=finite_float, default=1.0)
    ps.add_argument("--m", type=int, default=1)
    ps.add_argument("--n", type=int, default=0)
    ps.add_argument("--sign", type=int, choices=(1, -1), default=1)
    ps.add_argument("--q-sweep", dest="q_sweep", type=finite_float, nargs="+",
                    default=None)
    _add_common(ps)
    ps.set_defaults(func=cmd_scan)

    pp = sub.add_parser("sample", help="sample the point process on a window")
    _add_lattice(pp, required=True, params=("gamma", "delta"))
    pp.add_argument("--points", required=True,
                    help="comma-separated lattice points, e.g. '+:0,+:1,-:0'")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--draws", type=int, default=1000)
    _add_common(pp)
    pp.set_defaults(func=cmd_sample)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ArithmeticError, OverflowError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

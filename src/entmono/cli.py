"""Command-line surface: analyze, sweep, certify, figures.

Exit codes: 0 success, 1 usage or data error, 2 a non-monogamy witness was
found (so scripts can branch on it).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import measures, monogamy, states
from .measures import MeasureId, MeasureTriple

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WITNESS = 2
_CELL = "%.12g"  # CSV cells and summary numbers: 12 significant digits


def _fmt(v) -> str:
    """12-significant-digit numeric formatting for CSV cells."""
    return _CELL % float(v)


def _write_csv(path, header, rows):
    """A header line, then rows through one template: integers in full, the rest as _fmt."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        if rows:
            line = ",".join("%d" if isinstance(v, int) else _CELL for v in rows[0]) + "\n"
            fh.write("".join([line % row for row in rows]))


def _parse_reals(spec, n, what):
    parts = spec.split(",")
    if len(parts) != n:
        raise states.StateError(f"{what} needs {n} comma-separated reals, got {spec!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise states.StateError(f"bad number in {what}: {exc}") from exc


def _unit(reals, dtype, what, spec):
    """reals / ||reals|| as dtype, divided by max |reals| first if the norm over- or underflows."""
    r = np.array(reals, dtype=float)
    if not (np.isfinite(r).all() and r.any()):
        raise states.StateError(f"{what} coefficients must be finite, not all zero: {spec}")
    v = r.astype(dtype)
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(v)
    if not 0 < nrm < math.inf:
        v = (r / np.abs(r).max()).astype(dtype)
        nrm = np.linalg.norm(v)
    return v / nrm


def resolve_example(name: str) -> tuple[str, states.PureTripartiteState]:
    """Named-example registry: ghz, w, wclass:..., schmidt:..., e223, afs.

    Inline wclass/schmidt parameters give a direction, not exact amplitudes;
    they are normalized before construction so that truncated decimals like
    0.577 are usable.  Returns (descriptor, state); afs pairs with the
    entanglement-cost lookup and is the only state that may exceed qubit
    dims on A.
    """
    make = {"ghz": states.ghz, "w": states.w_state, "e223": states.example_223,
            "afs": states.antisymmetric_qutrit}.get(name)
    if make is not None:
        return name, make()
    if name.startswith("wclass:"):
        b = _unit(_parse_reals(name[7:], 4, "wclass"), complex, "wclass", name[7:])
        return name, states.w_class(*b)
    if name.startswith("schmidt:"):
        vals = _parse_reals(name[8:], 6, "schmidt")
        lam = _unit(np.abs(vals[:5]), float, "schmidt", name[8:])
        return name, states.from_schmidt(
            states.SchmidtParams(tuple(lam), vals[5] % (2.0 * math.pi))
        )
    raise states.StateError(
        f"unknown example {name!r}; known: ghz, w, wclass:b0,b1,b2,b3, "
        "schmidt:l0,l1,l2,l3,l4,phi, e223, afs"
    )


def _source_triple(args) -> tuple[str, MeasureTriple]:
    """(descriptor, triple) of --example or --state under --measure."""
    if args.example and args.state:
        raise states.StateError("give either --example or --state, not both")
    if args.example:
        descriptor, state = resolve_example(args.example)
    elif args.state:
        descriptor, state = args.state, states.load_state(args.state)
    else:
        raise states.StateError("a state source is required (--example or --state)")
    mid = MeasureId(args.measure)
    if mid is not MeasureId.ENTANGLEMENT_COST_LOOKUP:
        return descriptor, measures.measure_triple(state, mid)
    if descriptor != "afs":
        raise measures.MeasureError("ec-lookup only has a tabulated entry for the 'afs' example")
    return descriptor, measures.entanglement_cost_lookup("antisymmetric_qutrit")


def cmd_analyze(args) -> int:
    descriptor, t = _source_triple(args)
    sol = monogamy.solve_x(t, args.y, args.eps)
    witness = sol.kind is monogamy.XKind.UNBOUNDED
    try:
        thm3 = {"alpha": monogamy.certify(t).alpha}
    except monogamy.DomainError as exc:
        thm3 = {"error": str(exc)}
    alpha = monogamy.min_alpha(t, eps=args.eps)
    print(json.dumps({
        "state": descriptor,
        "measure": t.measure_id.value,
        "triple": list(t.as_tuple()),
        "x": {
            "kind": sol.kind.value,
            "y": sol.y,
            "value": sol.x if math.isfinite(sol.x) else None,
        },
        "min_alpha": alpha if math.isfinite(alpha) else None,
        "per_state_exponent": thm3,
        "non_monogamy_witness": witness,
        "residual_at_alpha": None if args.alpha is None else monogamy.residual(t, args.alpha),
    }, indent=2))
    return EXIT_WITNESS if witness else EXIT_OK


def cmd_sweep(args) -> int:
    mid = MeasureId(args.measure)
    family = {"w": "w_class", "haar": "haar", "schmidt": "schmidt"}.get(args.family, args.family)
    try:  # --dims is the one place dims arrive as text
        dims = [int(d) for d in args.dims.split(",")]
    except ValueError:
        raise states.StateError(
            f"dims must be three positive integers, got {args.dims.split(',')!r}") from None
    out = os.path.realpath(args.out)  # one physical path to make and, if rejected, to remove
    made, level = [], out
    while not os.path.exists(level):  # the levels makedirs creates, leaf first
        made.append(level)
        level = os.path.dirname(level)
    os.makedirs(out, exist_ok=True)  # before sampling: a bad --out fails fast
    try:
        report = monogamy.sweep(dims, mid, args.y, args.samples, args.seed, family=family, eps=args.eps)
    except BaseException:
        for level in made:  # leave no directory behind a rejected sweep
            os.rmdir(level)
        raise
    report_path = os.path.join(args.out, "sweep_report.json")
    with open(report_path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    hist_path = os.path.join(args.out, "sweep_histogram.csv")
    _write_csv(hist_path, "bucket_lo,bucket_hi,count", report.histogram)
    print(f"report: {report_path}")
    print(f"histogram: {hist_path}")
    print(
        f"samples={report.samples} zero={report.zero_count} "
        f"finite={report.finite_count} unbounded={report.unbounded_count} "
        f"max_finite_x={_fmt(report.max_finite_x)}"
    )
    if report.certified_alpha is not None:
        print(f"certified alpha (empirical): {_fmt(report.certified_alpha)}")
    else:
        print("no certificate: unbounded solutions found")
    return EXIT_WITNESS if report.unbounded_count > 0 else EXIT_OK


def cmd_certify(args) -> int:
    descriptor, t = _source_triple(args)
    if args.mode == "thm3" and args.c is not None:
        raise monogamy.DomainError("--c applies to relaxed mode only")
    if args.mode == "relaxed" and args.c is None:
        raise monogamy.DomainError("relaxed mode needs --c")
    cert = monogamy.certify(t, args.c)
    print(json.dumps({
        "state": descriptor,
        "measure": t.measure_id.value,
        "kind": cert.kind.value,
        "alpha": cert.alpha,
        "residual_at_alpha": cert.residual_at_alpha,
        "inputs": {k: (list(v) if isinstance(v, tuple) else v) for k, v in cert.inputs.items()},
    }, indent=2))
    return EXIT_OK


def cmd_figures(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    t = measures.entanglement_cost_lookup("antisymmetric_qutrit")

    # the residual crosses zero at log2 / log(log2 3) = 1.50500706...; the
    # grid starts at the next 0.005 step above it so every row is >= 0
    fig1 = os.path.join(args.out, "fig1.csv")
    alphas = [1.51 + 0.005 * k for k in range(299)]
    _write_csv(fig1, "alpha,f_alpha", [(a, monogamy.residual(t, a)) for a in alphas])

    fig2 = os.path.join(args.out, "fig2.csv")
    y_grid = [0.1 + 0.01 * k for k in range(391)]
    _write_csv(fig2, "y,z1,z2", monogamy.beta_curves(t, y_grid))

    print(f"wrote {fig1}")
    print(f"wrote {fig2}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def exit(self, status=0, message=None):  # a usage error exits 1: 2 means a witness
        super().exit(status and EXIT_ERROR, message)


def _add_source_args(p):
    p.add_argument("--example", help="named example (ghz, w, wclass:..., schmidt:..., e223, afs)")
    p.add_argument("--state", help="path to a state JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entmono",
        description="Decide and certify alpha-monogamy of entanglement measures "
        "on tripartite pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full monogamy analysis of one state")
    _add_source_args(p)
    p.add_argument("--measure", required=True, help="c, ca, eof or ec-lookup")
    p.add_argument("--y", type=float, default=2.0, help="exponent for the x-equation")
    p.add_argument("--alpha", type=float, help="also report the residual at this exponent")
    p.add_argument("--eps", type=float, default=monogamy.DEFAULT_EPS)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="Monte-Carlo probe of x-boundedness")
    p.add_argument("--dims", required=True, help="dA,dB,dC")
    p.add_argument("--measure", required=True)
    p.add_argument("--y", type=float, default=2.0)
    p.add_argument("--samples", "-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--family", default="haar", help="haar, w (W-class) or schmidt")
    p.add_argument("--eps", type=float, default=monogamy.DEFAULT_EPS)
    p.add_argument("--out", default=".", help="output directory for report and histogram")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("certify", help="per-state exponent certificates")
    _add_source_args(p)
    p.add_argument("--measure", required=True)
    p.add_argument("--mode", choices=("thm3", "relaxed"), default="thm3")
    p.add_argument("--c", type=float, help="relaxed base in (1, b]")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("figures", help="emit the residual and crossing-curve CSVs")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (states.StateError, measures.MeasureError, monogamy.DomainError,
            monogamy.MonotonicityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()

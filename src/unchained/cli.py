"""Command-line surface for spectra, groups, bounds, families, torsion.

One binary with subcommands; numeric output is printed in full double
precision (17 significant digits) so every table is machine-parseable
and bit-stable across runs at fixed tolerances.  Series go to CSV,
structured results to JSON.  Exit codes: 0 success, 1 numerical
failure, 2 usage error.
"""

import argparse
import concurrent.futures
import dataclasses
import functools
import json
import sys

import numpy as np

from .errors import (
    CollisionError,
    DegenerateSystem,
    IntegrationFailure,
    NoConvergence,
    SingularReduction,
    UnsupportedCase,
)
from .minimize import absolute_interval, lambda_G_bruteforce
from .spectrum import horizontal_spectrum, vertical_spectrum
from .symmetry import (
    GroupSpec,
    find_isomorphism,
    is_simple_choreography,
    structure_report,
)
from .torsion import torsion_gamma

__all__ = ["main"]

# displacement of the brute-force probes from the interval endpoints
PROBE_OFFSET = 1e-3
# slack for "lambda >= 1" on the inside probes (p = 0 mode is exactly 1)
PROBE_SLACK = 1e-12
# family end reasons that are not numerical failures (exit 0); every other
# end reason exits 1
_CLEAN_ENDS = ("max-steps", "varpi-range")

TWO_PI = 2.0 * np.pi


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmtc(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _group_label(spec: GroupSpec) -> str:
    return (f"G_{{{spec.r}/{spec.s}}}"
            f"({spec.n_bodies},{spec.k},{spec.eta:+d})")


def _emit(text: str, path) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _spec_from(args) -> GroupSpec:
    return GroupSpec(args.n, args.k, args.eta, args.r, args.s)


def _add_spec_positionals(sub) -> None:
    sub.add_argument("n", type=int, help="number of bodies N")
    sub.add_argument("k", type=int, help="vertical mode index, 1..N/2")
    sub.add_argument("eta", type=int, choices=(-1, 1),
                     help="mode orientation sign")
    sub.add_argument("r", type=int, help="frame winding numerator")
    sub.add_argument("s", type=int, help="frame winding denominator")


def cmd_spectrum(args) -> int:
    vert = vertical_spectrum(args.n)
    horiz = horizontal_spectrum(args.n)
    scaled = args.units == "omega1"
    omegas = vert.ratios if scaled else vert.omegas
    eigs = np.sort_complex(
        horiz.eigenvalues if scaled else horiz.raw_eigenvalues)
    lines = [
        f"N = {args.n}",
        f"omega_1 = {_fmt(vert.omega1)}",
        f"vertical spectrum (units: {args.units}):",
    ]
    lines += [f"  k={k}  {_fmt(w)}" for k, w in enumerate(omegas, start=1)]
    lines.append(f"horizontal spectrum (units: {args.units}): "
                 f"{eigs.size} eigenvalues")
    lines += [f"  {_fmtc(z)}" for z in eigs]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_group(args) -> int:
    spec = _spec_from(args)
    rep = structure_report(spec)
    lines = [
        f"group {_group_label(spec)}",
        f"order = {rep.order}",
        f"orientation-preserving elements = {rep.h_order}",
        f"dihedral x Z/2 presentation = "
        f"{'yes' if rep.is_dihedral_times_z2 else 'no'}",
        f"kernel cyclic order = "
        f"{rep.k_cyclic_order if rep.k_cyclic_order else 'not cyclic'}",
    ]
    if args.check_choreo:
        flag = "yes" if is_simple_choreography(spec) else "no"
        lines.append(f"simple choreography: {flag}")
    if args.find_iso is not None:
        params = [int(tok) for tok in args.find_iso.split(",")]
        if len(params) == 4:
            params.append(1)
        if len(params) != 5:
            raise ValueError(
                f"--find-iso wants N,k,eta,r[,s], got {args.find_iso!r}")
        other = GroupSpec(*params)
        perm = find_isomorphism(spec, other)
        if perm is None:
            lines.append(f"isomorphism with {_group_label(other)}: none")
        else:
            n = spec.n_bodies
            mult = int(perm[1]) % n
            if mult > n // 2:
                mult -= n
            lines.append(f"isomorphism with {_group_label(other)}: "
                         f"S(j) = {mult} j (mod {n})")
            lines.append("permutation = " + " ".join(str(p) for p in perm))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_bounds(args) -> int:
    spec = _spec_from(args)
    rep = absolute_interval(spec)
    lo, hi = rep.interval
    shift = TWO_PI * spec.r / spec.s

    def lam_at(x):
        return lambda_G_bruteforce(spec, x - shift)

    consistent = (lam_at(hi + PROBE_OFFSET) < 1.0
                  and lam_at(lo - PROBE_OFFSET) < 1.0)
    if hi - lo > 2.0 * PROBE_OFFSET:
        consistent = (consistent
                      and lam_at(hi - PROBE_OFFSET) >= 1.0 - PROBE_SLACK
                      and lam_at(lo + PROBE_OFFSET) >= 1.0 - PROBE_SLACK)
    lines = [
        f"bounds for {_group_label(spec)}",
        f"V = {_fmt(rep.V)}",
        f"H+ = {_fmt(rep.H_plus)}",
        f"H- = {_fmt(rep.H_minus)}",
        f"interval = [{_fmt(lo)}, {_fmt(hi)}]  (on varpi + 2 pi r/s)",
        f"bruteforce: {'consistent' if consistent else 'inconsistent'}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if consistent else 1


def _family_payload(result) -> dict:
    from .continuation import ActionDiagram

    spec = result.spec
    return {
        "spec": [spec.n_bodies, spec.k, spec.eta, spec.r, spec.s],
        "varpi_onset": result.varpi_onset,
        "end_reason": result.end_reason,
        "records": [{c: getattr(rec, c) for c in ActionDiagram.columns}
                    for rec in result.records],
    }


def cmd_continue(args) -> int:
    # imported here so that the exact subcommands never load scipy
    from .continuation import (INTEGRATOR_TOL, _check_steps, _checked_tol,
                               continue_family, write_family_csv)

    if len(args.spec) % 5:
        raise ValueError(
            f"continue wants N k eta r s per family, got {len(args.spec)} "
            "values (not a multiple of 5)")
    specs = [GroupSpec(*args.spec[i:i + 5])
             for i in range(0, len(args.spec), 5)]
    outs = args.out or []
    if outs and len(outs) != len(specs):
        raise ValueError(
            f"got {len(outs)} --out paths for {len(specs)} families")
    integ_tol = INTEGRATOR_TOL if args.tol is None else args.tol
    _checked_tol(100.0 * integ_tol, "Newton tolerance 100 * --tol")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    varpi_range = tuple(args.varpi_range) if args.varpi_range else None
    _check_steps(args.steps, args.step, args.max_step, varpi_range)
    task = functools.partial(
        continue_family,
        direction=args.direction,
        n_steps=args.steps,
        step=args.step,
        max_step=args.max_step,
        integrator_tol=integ_tol,
        varpi_range=varpi_range,
    )
    if args.jobs > 1 and len(specs) > 1:
        workers = min(args.jobs, len(specs))
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            results = list(pool.map(task, specs))
    else:
        results = [task(spec) for spec in specs]

    status = 0
    for i, result in enumerate(results):
        path = outs[i] if outs else None
        if args.format == "json":
            _emit(json.dumps(_family_payload(result), indent=2) + "\n", path)
        elif path is None:
            write_family_csv(result, sys.stdout)
        else:
            write_family_csv(result, path)
        if result.end_reason not in _CLEAN_ENDS:
            where = ("at onset " if result.end_reason.startswith(
                "onset-failure") else "")
            print(f"numerical failure: {_group_label(result.spec)} stopped "
                  f"{where}after {len(result.records)} record(s) "
                  f"({result.end_reason})", file=sys.stderr)
            status = 1
        elif path is not None:
            print(f"{_group_label(result.spec)}: {len(result.records)} "
                  f"records, end={result.end_reason} -> {path}")
    return status


def cmd_torsion(args) -> int:
    res = torsion_gamma(_spec_from(args))
    _emit(json.dumps(dataclasses.asdict(res), indent=2) + "\n", args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unchained",
        description="Vertical Lyapunov families of the regular n-gon: "
                    "spectra, symmetry groups, minimizer bounds, torsion "
                    "coefficients, and numerical continuation.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("spectrum",
                        help="vertical and horizontal spectra of the n-gon")
    p.add_argument("n", type=int, help="number of bodies, >= 3")
    p.add_argument("--units", choices=("raw", "omega1"), default="omega1",
                   help="frequency units (default: omega1)")
    p.add_argument("--out", help="write the table to a file instead")
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("group", help="structure report for G_{r/s}(N,k,eta)")
    _add_spec_positionals(p)
    p.add_argument("--check-choreo", action="store_true",
                   help="report whether the family is a simple choreography")
    p.add_argument("--find-iso", metavar="N,K,ETA,R[,S]",
                   help="search for a body relabelling onto this group")
    p.add_argument("--out", help="write the report to a file instead")
    p.set_defaults(func=cmd_group)

    p = subs.add_parser("bounds",
                        help="absolute-minimizer interval with brute-force "
                             "verification")
    _add_spec_positionals(p)
    p.add_argument("--out", help="write the report to a file instead")
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("continue",
                        help="continue one or more Lyapunov families "
                             "(5 integers per family)")
    p.add_argument("spec", type=int, nargs="+", metavar="INT",
                   help="N k eta r s, repeated once per family")
    p.add_argument("--direction", type=int, choices=(1, -1), default=1,
                   help="sign of the onset amplitude (default: +1)")
    p.add_argument("--steps", type=int, default=40,
                   help="arclength steps per family (default: 40)")
    p.add_argument("--step", type=float, default=0.04,
                   help="initial arclength step (default: 0.04)")
    p.add_argument("--max-step", type=float, default=0.15,
                   help="arclength step cap (default: 0.15)")
    p.add_argument("--tol", type=float, default=None,
                   help="integrator tolerance, below 0.01 since the "
                        "Newton tolerance is 100 times it (default: 1e-12)")
    p.add_argument("--varpi-range", type=float, nargs=2,
                   metavar=("LO", "HI"), default=None,
                   help="stop when varpi leaves this window")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default: csv)")
    p.add_argument("--out", action="append", metavar="FILE",
                   help="output file, once per family (default: stdout)")
    p.add_argument("--jobs", type=int, default=1,
                   help="run families in this many parallel processes")
    p.set_defaults(func=cmd_continue)

    p = subs.add_parser("torsion",
                        help="third-order expansion coefficients as JSON")
    _add_spec_positionals(p)
    p.add_argument("--out", help="write the JSON to a file instead")
    p.set_defaults(func=cmd_torsion)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CollisionError, IntegrationFailure, NoConvergence,
            SingularReduction, DegenerateSystem) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (UnsupportedCase, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

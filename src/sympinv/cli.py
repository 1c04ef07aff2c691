"""Command-line front end.

Subcommands:
  invariants   evaluate the generating invariants along a user-defined object
  check        run the invariance / syzygy / counting batteries
  signature    build a signature cloud and emit it as JSON
  equivalence  compare two objects through their signature clouds

Exit codes: 0 success/equivalent, 1 check failure, 2 parse or validation
error, 3 all samples degenerate, 4 distinct, 5 inconclusive.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import signature as sig_mod
from .errors import AllSamplesDegenerate, IncomparableClouds, JobError, NonGenericSample
from .geometry import CHARTS, default_order
from .jobs import HEADER_KEYS, JobSpec
from .prolong import orbit_table


def _fmt(x):
    return f"{x:.17g}"


def _load_job(path, args=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as err:  # ValueError: a NUL in the path, or not UTF-8
        raise JobError(f"cannot read job file: {err}", field="job") from None
    job = JobSpec.from_text(text)
    if args is not None:
        job = _apply_overrides(job, args)
    return job


def _apply_overrides(job, args):
    """The job with the --samples/--window/--depth/--seed overrides merged in,
    validated exactly as a job file is."""
    updates = {key: getattr(args, key) for key in ("samples", "window", "depth", "seed")
               if getattr(args, key, None) is not None}
    if not updates:
        return job
    keys = {key: getattr(job, key) for key in HEADER_KEYS}
    return JobSpec._validate({**keys, **updates}, job.exprs)


def _sampling(job):
    """The arguments of signature.sample_psi and signature_of for a job."""
    defs = ([job.exprs[name] for name in CHARTS[job.geometry](job.n).space.names]
            if job.parametric else job.exprs)
    return dict(defs=defs, geometry=job.geometry, flavor=job.flavor, n=job.n,
                samples=job.samples, depth=job.depth, window=job.window, seed=job.seed,
                parametric=job.parametric)


def cmd_invariants(args):
    job = _load_job(args.job, args)
    labels = sig_mod.component_labels(job.geometry, job.flavor, job.n, job.depth)
    rows = sig_mod.sample_psi(**_sampling(job))
    param_names = job.parameter_names()
    if all(vals is None for _, vals, _ in rows):
        print("error: all samples degenerate", file=sys.stderr)
        return 3

    fmt = args.format or job.format
    if fmt == "csv":
        header = ["sample", *param_names, *labels, "degenerate"]
        print(",".join(header))
        for idx, (at, vals, flag) in enumerate(rows):
            cells = [str(idx), *(_fmt(a) for a in at)]
            if vals is None:
                cells += ["" for _ in labels] + [flag]
            else:
                cells += [_fmt(v) for v in vals] + [""]
            print(",".join(cells))
    else:
        import json

        payload = []
        for idx, (at, vals, flag) in enumerate(rows):
            payload.append({
                "sample": idx,
                "params": [float(_fmt(a)) for a in at],
                "values": None if vals is None else [float(_fmt(v)) for v in vals],
                "degenerate": flag or None,
            })
        print(json.dumps({"labels": list(labels), "rows": payload},
                         separators=(",", ":"), sort_keys=False))
    return 0


# --- check suites ---------------------------------------------------------------

def _counting_rows(args):
    for label, expected, got in orbit_table(args.seed):
        yield expected == got, f"{label}: expected {expected}, observed {got}"


def _invariance_rows(args, targets):
    seeds = range(args.seed + 1000, args.seed + 1000 + args.trials)
    for geometry, flavor, n in targets:
        worst, tested = 0.0, 0
        try:
            for pair in sig_mod.invariance_sweep(geometry, flavor, n, args.jets,
                                                 np.random.default_rng(args.seed), seeds,
                                                 default_order(geometry, n), (0.6, 1.5)):
                if pair is not None:
                    worst = float(np.max([worst, *pair[2].values()]))  # keeps a NaN, unlike max()
                    tested += 1
        except NonGenericSample as err:
            yield False, f"invariance {err}"
            continue
        yield (tested > 0 and worst <= 1e-8,
               f"invariance {geometry}/{flavor} n={n}: "
               f"max rel err {worst:.2e} over {tested} pushforwards")


def _syzygy_rows(args):
    rng = np.random.default_rng(args.seed)
    for (geometry, flavor), recipe in sig_mod.RECIPES.items():
        if recipe.syzygies is None:
            continue
        results, _ = sig_mod.syzygy_sweep(geometry, flavor, args.jets, rng, spread=(0.6, 1.5))
        names = list(results[0])
        worst = float(np.max([0.0, *(r for res in results for r in res.values())]))  # keeps a NaN
        yield (worst <= 1e-7, f"{geometry}/{flavor} n=1 {names[0]}-{names[-1]}: "
                              f"max residual {worst:.2e} (tol 1e-07)")


def cmd_check(args):
    """Print one PASS/FAIL row per case of the suite; exit 1 on any FAIL."""
    if args.seed < 0:
        raise JobError("must be >= 0", field="--seed")
    for field, value in (("--trials", args.trials), ("--jets", args.jets), ("--n", args.n)):
        if value is not None and value < 1:
            raise JobError("must be >= 1", field=field)
    if args.suite == "invariance":
        targets = [t for t in sig_mod.invariance_targets()
                   if (not args.geometry or t[0] == args.geometry)
                   and (not args.flavor or t[1] == args.flavor)
                   and (args.n is None or t[2] == args.n)]
        if not targets:
            print("error: no invariance targets match the filters", file=sys.stderr)
            return 1
        rows = _invariance_rows(args, targets)
    else:
        rows = {"counting": _counting_rows, "syzygy": _syzygy_rows}[args.suite](args)
    failures = 0
    for ok, text in rows:
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {text}")
    return 1 if failures else 0


def _cloud_from_job(job):
    return sig_mod.signature_of(**_sampling(job))


def cmd_signature(args):
    job = _load_job(args.job, args)
    cloud = _cloud_from_job(job)
    text = sig_mod.cloud_to_json(cloud)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except (OSError, ValueError) as err:  # ValueError: a NUL in the path
            print(f"error: cannot write {args.out}: {getattr(err, 'strerror', None) or err}",
                  file=sys.stderr)
            return 2
    else:
        print(text)
    return 0


def cmd_equivalence(args):
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise JobError("must be a finite number > 0", field="--tol")
    job1 = _load_job(args.job, args)
    job2 = _load_job(args.job2, args)
    if (job1.geometry, job1.flavor, job1.depth) != (job2.geometry, job2.flavor, job2.depth):
        print("error: jobs are incompatible (geometry/flavor/depth differ)", file=sys.stderr)
        return 2
    cloud1 = _cloud_from_job(job1)
    cloud2 = _cloud_from_job(job2)
    verdict, dist = sig_mod.equivalent(cloud1, cloud2, tol=args.tol)
    print(f"verdict: {verdict}")
    print(f"hausdorff distance (normalized): {_fmt(dist)}")
    print(f"generators: {', '.join(cloud1.generators)}")
    return {"equivalent": 0, "distinct": 4, "inconclusive": 5}[verdict]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sympinv",
        description="Differential invariants of linear symplectic group actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p):
        p.add_argument("--samples", type=int, default=None, help="override job samples")
        p.add_argument("--window", default=None, help="override job window (A:B)")
        p.add_argument("--depth", type=int, default=None, help="override job depth")
        p.add_argument("--seed", type=int, default=None, help="override job seed")

    p_inv = sub.add_parser("invariants", help="evaluate invariants along an object")
    p_inv.add_argument("--job", required=True, help="job file")
    p_inv.add_argument("--format", choices=("csv", "json"), default=None)
    add_overrides(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_chk = sub.add_parser("check", help="run a verification battery")
    p_chk.add_argument("suite", choices=("invariance", "syzygy", "counting"))
    p_chk.add_argument("--geometry", default=None)
    p_chk.add_argument("--flavor", default=None)
    p_chk.add_argument("--n", type=int, default=None)
    p_chk.add_argument("--trials", type=int, default=50)
    p_chk.add_argument("--jets", type=int, default=20)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.set_defaults(func=cmd_check)

    p_sig = sub.add_parser("signature", help="emit a signature cloud as JSON")
    p_sig.add_argument("--job", required=True)
    p_sig.add_argument("--out", default=None)
    add_overrides(p_sig)
    p_sig.set_defaults(func=cmd_signature)

    p_eq = sub.add_parser("equivalence", help="compare two objects")
    p_eq.add_argument("--job", required=True)
    p_eq.add_argument("--job2", required=True)
    p_eq.add_argument("--tol", type=float, default=1e-6)
    add_overrides(p_eq)
    p_eq.set_defaults(func=cmd_equivalence)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except JobError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AllSamplesDegenerate as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except IncomparableClouds as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

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
from .errors import (AllSamplesDegenerate, GeometryError, IncomparableClouds,
                     JetError, JobError)
from .geometry import CHARTS, JetPoint, default_order
from .jobs import HEADER_KEYS, JobSpec
from .prolong import orbit_dimension


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

_COUNTING_CASES = [
    # (label, geometry, flavor, n, k, expected rank)
    ("curves R4 k=0", "curve", "sp", 2, 0, 4),
    ("curves R4 k=1", "curve", "sp", 2, 1, 7),
    ("curves R4 k=2", "curve", "sp", 2, 2, 9),
    ("curves R4 k=3", "curve", "sp", 2, 3, 10),
    ("functions n=1 k=1", "function", "sp", 1, 1, 3),
    ("hypersurfaces R4 k=1 (open)", "hypersurface", "sp", 2, 1, 7),
    ("hypersurfaces R4 k=2 (h2=3)", "hypersurface", "sp", 2, 2, 10),
    ("hypersurfaces R4 k=3 (h3=10)", "hypersurface", "sp", 2, 3, 10),
    ("surfaces R4 k=1 (open)", "surface", "sp", 2, 1, 8),
    ("surfaces R4 k=2 (h2=4)", "surface", "sp", 2, 2, 10),
    ("surfaces R4 k=3 (h3=8)", "surface", "sp", 2, 3, 10),
    ("contact functions k=0 (h0=1)", "contact-function", "contact-csp", 1, 0, 3),
    ("contact functions k=1 (h1=2)", "contact-function", "contact-csp", 1, 1, 4),
]


def _counting_rows(seed):
    rows = []
    for label, geometry, flavor, n, k, expected in _COUNTING_CASES:
        got = orbit_dimension(geometry, flavor, n, k, seed=seed + k)
        rows.append((label, expected, got))
    for n in (2, 3):
        for k in range(0, 2 * n + 1):
            expected = min(2 * (k + 1) * n - math.comb(k + 1, 2), n * (2 * n + 1))
            got = orbit_dimension("curve", "sp", n, k, seed=seed + 31 * n + k)
            rows.append((f"curves 2n={2*n} k={k}", expected, got))
    return rows


def _check_counting(args):
    rows = _counting_rows(args.seed)
    failures = 0
    for label, expected, got in rows:
        ok = expected == got
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {label}: expected {expected}, observed {got}")
    return failures


def _run_invariance(geometry, flavor, n, trials, jets, seed):
    from .geometry import pushforward
    from .symplectic import random_contact_lift, random_group_element

    contact = geometry.startswith("contact")
    chart = CHARTS[geometry](n)
    ev = sig_mod.generator_map(geometry, flavor, n)

    def values(point):
        gens, _ = ev(point)
        return {k: sig_mod._as_float(v) for k, v in gens.items()}

    order = default_order(geometry, n)
    rng = np.random.default_rng(seed)
    worst = 0.0
    tested = 0
    for _ in range(jets):
        try:
            point = JetPoint.random(chart, order, rng, spread=(0.6, 1.5))
            base = values(point)
        except (GeometryError, JetError, ZeroDivisionError):
            continue
        for s in range(trials):
            if contact:
                g = random_contact_lift(chart.space, flavor, seed + 1000 + s)
            else:
                g = random_group_element(chart.space, flavor, seed + 1000 + s)
            try:
                moved = pushforward(point, g)
                vals = values(moved)
            except (GeometryError, JetError, ZeroDivisionError):
                continue
            errs = [abs(vals[key] - v) / max(abs(v), abs(vals[key]), 1.0)
                    for key, v in base.items()]
            worst = float(np.max([worst, *errs]))  # keeps a NaN, unlike max()
            tested += 1
    return worst, tested


def _check_invariance_suite(args):
    failures = 0
    targets = sig_mod.invariance_targets()
    if args.geometry:
        targets = [t for t in targets if t[0] == args.geometry]
    if args.flavor:
        targets = [t for t in targets if t[1] == args.flavor]
    if args.n:
        targets = [t for t in targets if t[2] == args.n]
    if not targets:
        print("error: no invariance targets match the filters", file=sys.stderr)
        return 1
    for geometry, flavor, n in targets:
        worst, tested = _run_invariance(geometry, flavor, n, args.trials, args.jets, args.seed)
        ok = tested > 0 and worst <= 1e-8
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  invariance {geometry}/{flavor} n={n}: "
              f"max rel err {worst:.2e} over {tested} pushforwards")
    return failures


def _syzygy_report(seed, jets):
    """(label, worst residual, tolerance) of each recipe with relations."""
    rng = np.random.default_rng(seed)
    report = []
    for (geometry, flavor), recipe in sig_mod.RECIPES.items():
        if recipe.syzygies is None:
            continue
        results, _ = sig_mod.syzygy_sweep(geometry, flavor, jets, rng, spread=(0.6, 1.5))
        names = list(results[0]) if results else []  # none when --jets < 1
        label = f"{geometry}/{flavor} n=1" + (f" {names[0]}-{names[-1]}" if names else "")
        worst = float(np.max([0.0, *(r for res in results for r in res.values())]))  # keeps a NaN
        report.append((label, worst, 1e-7))
    return report


def _check_syzygy(args):
    failures = 0
    for name, worst, tol in _syzygy_report(args.seed, args.jets):
        ok = worst <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: max residual {worst:.2e} (tol {tol:g})")
    return failures


def cmd_check(args):
    if args.seed < 0:
        raise JobError("must be >= 0", field="--seed")
    if args.suite == "counting":
        failures = _check_counting(args)
    elif args.suite == "invariance":
        failures = _check_invariance_suite(args)
    elif args.suite == "syzygy":
        failures = _check_syzygy(args)
    else:
        print(f"error: unknown suite {args.suite!r}", file=sys.stderr)
        return 2
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

"""Stored signature reference for the clouds workload.

Each standard job of ``workloads.CLOUD_JOBS`` is run through
``sympinv signature`` with a fixed seed and a few samples; the JSON must
reload through ``cloud_from_json`` and match ``reference_clouds.json`` to the
relative tolerance ``workloads.REFERENCE_RTOL`` (on |a - b| / max(|a|, |b|, 1)).

    python3 bench/reference.py    # rewrite reference_clouds.json

Rewrite the file only when a change to the program is meant to change the
invariant values, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from sympinv import signature  # noqa: E402

PATH = Path(__file__).resolve().parent / "reference_clouds.json"
SEED = 0
SAMPLES = 4


def compute(workdir):
    """label -> signature JSON text of every standard job."""
    tmp = tempfile.mkdtemp(prefix="reference-", dir=workdir)
    try:
        out = {}
        for job in workloads.CLOUD_JOBS:
            g, flavor, n, exprs = job
            path = os.path.join(tmp, "job.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(workloads.job_text(g, flavor, n, exprs, SAMPLES,
                                            workloads.CLOUD_DEPTH, SEED))
            code, text = workloads.run_cli(["signature", "--job", path])
            if code != 0:
                raise RuntimeError(f"{workloads.job_label(job)}: sympinv signature exited {code}")
            out[workloads.job_label(job)] = text.strip()
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check(workdir):
    """Descriptions of every way the current output misses the reference."""
    stored = json.loads(PATH.read_text(encoding="utf-8"))
    errors = []
    try:
        current = compute(workdir)
    except RuntimeError as err:
        return [str(err)]
    for label, text in stored.items():
        want = signature.cloud_from_json(text)
        if label not in current:
            errors.append(f"{label}: missing")
            continue
        got = signature.cloud_from_json(current[label])
        if (got.generators, got.sample_count, got.degenerate_count, len(got.points)) != (
                want.generators, want.sample_count, want.degenerate_count, len(want.points)):
            errors.append(f"{label}: cloud shape differs from the reference")
            continue
        worst = max((abs(a - b) / max(abs(a), abs(b), 1.0)
                     for p, q in zip(got.points, want.points) for a, b in zip(p, q)),
                    default=0.0)
        if not worst <= workloads.REFERENCE_RTOL:
            errors.append(f"{label}: relative error {worst:.3e}")
    return errors


def main():
    workdir = Path(__file__).resolve().parent.parent / ".bench_work"
    workdir.mkdir(exist_ok=True)
    clouds = compute(str(workdir))
    PATH.write_text(json.dumps(clouds, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(clouds)} reference clouds to {PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

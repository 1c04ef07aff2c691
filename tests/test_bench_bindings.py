"""The benchmark's tracer still finds every sympinv name it binds.

``bench/tracer.py`` wraps sympinv functions by name and raises when a name it
binds has gone or moved, which stops every traced benchmark run.  This test
installs it as the traced run does, switches both binding sets on and off
around a small signature and equivalence request, and checks that every
original comes back and that the comparison was traced.
"""

import sys

import sympinv
from helpers import bench_module
from sympinv import cli, jets
from sympinv.geometry import JetPoint
from sympinv.jobs import JobSpec

PARABOLA = """\
geometry = curve
flavor = sp
n = 1
window = 1:2
samples = 4
depth = 1
seed = 0
exprs:
  y = x^2
"""

_CLASSES = (JetPoint, JobSpec, jets.TaylorJet, jets.MultiJet)


def bindings():
    """Every name of a sympinv module or of a class the tracer patches."""
    owners = [m for name, m in sys.modules.items()
              if (name == "sympinv" or name.startswith("sympinv.")) and m is not None]
    return {(owner, name): value for owner in [*owners, *_CLASSES]
            for name, value in vars(owner).items()}


def assert_restored(before):
    after = bindings()
    assert after.keys() == before.keys()
    assert [key[1] for key, value in before.items() if after[key] is not value] == []


def test_tracer_binds_every_name_and_restores_the_originals(tmp_path):
    tracer_mod = bench_module("tracer")
    job = tmp_path / "parabola.job"
    job.write_text(PARABOLA)
    tracer = tracer_mod.Tracer()
    before = bindings()
    spans, counters = tracer_mod.install(tracer)
    assert_restored(before)
    requests = (["signature", "--job", str(job)],
                ["equivalence", "--job", str(job), "--job2", str(job)])
    try:
        for binding in (spans, counters):
            binding.switch(True)
            for argv in requests:
                assert tracer.run_root(lambda: cli.main(argv)) == 0
            binding.switch(False)
            assert_restored(before)
    finally:
        spans.switch(False)
        counters.switch(False)
    assert_restored(before)
    # each cloud's 4 samples are one batched evaluation: one for the
    # signature and two for the equivalence
    assert tracer.layers["frame"][0] == 3
    assert tracer.layers["build"][0] > 0
    # the equivalence reaches signature.hausdorff_distance through the name
    # the tracer spans as `compare`
    assert tracer.layers["compare"][0] == 1
    assert tracer.counts["compare.dists"] == 4 * 4
    assert tracer.counts["kernels.madds"] > 0
    assert isinstance(sympinv.backend_name(), str)

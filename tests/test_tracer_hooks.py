"""The benchmark tracer hooks besselbr names from outside the package.

``perfbench/tracer.py`` finds ``SamplePath.__init__``, ``StreamKey.generator``,
``parallel_map``, the ``local_*_batch`` argument names and module-level
functions such as ``sample_br`` by name, so renaming or deleting one of them
silently empties its per-layer metric.  This test installs the tracer and
checks that each hook still counts real calls.
"""

import importlib.util
from pathlib import Path

import numpy as np

from besselbr import rescale
from besselbr.cli import run
from besselbr.numerics import StreamKey

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_count_calls(tmp_path, capsys):
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert run(["br-sample", "--grid-k", "2", "--seed", "1",
                    "--out", str(tmp_path / "br.json")]) == 0
        assert run(["fdd-check", "--process", "bessel", "--n", "100", "--replicates", "200",
                    "--threshold", "1", "--threads", "2", "--seed", "2",
                    "--out", str(tmp_path / "fdd.json")]) == 0
        # fdd-check no longer reaches the brute-force batches; call one through
        # the patched module so its computed work counts stay covered
        rescale.local_bessel_batch(np.array([0.0, 1.0]), 100, 2, StreamKey(5), 50)
        assert run(["fdd-check", "--process", "br", "--times", "0,1", "--replicates", "200",
                    "--threshold", "1", "--threads", "2", "--seed", "3",
                    "--out", str(tmp_path / "fdd-br.json")]) == 0
        assert run(["br-selftest", "--grid-k", "2", "--replicates", "20",
                    "--marginal-threshold", "1", "--two-sample-threshold", "1", "--seed", "4",
                    "--out", str(tmp_path / "selftest.json")]) == 0
    finally:
        tracer.uninstall()
    for name in ("paths.SamplePath", "numerics.generator", "numerics.parallel_map",
                 "rescale.local_bessel_batch", "rescale.pair_maxima", "brown_resnick.sample_br",
                 "brown_resnick.sample_br_batch", "brown_resnick.sample_br_exact"):
        assert tracer.calls[name] > 0, name
    assert tracer.computed["rescale.rows"] > 0
    assert tracer.computed["rescale.normals_drawn"] > 0

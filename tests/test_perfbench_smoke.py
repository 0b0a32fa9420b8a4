"""The benchmark's smoke mode (every workload and output check once, at tiny sizes) and its tracer."""

import importlib
import os
import subprocess
import sys

from cyclefield import green

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke: ok" in proc.stdout


def test_tracer_finds_every_traced_function(monkeypatch):
    # a span whose function was renamed away would silently stop being
    # timed; only the names of functions deleted earlier may be missing
    monkeypatch.syspath_prepend(ROOT)
    tracing = importlib.import_module("perfbench.tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    stale = {f"cyclefield.{m}.{f}" for m in ("green", "montecarlo") for f in ("mean_state", "covariance_ode")}
    assert tracer.missing <= stale
    assert not hasattr(green.transition_density, "__wrapped__")

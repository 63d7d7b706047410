"""The benchmark's traced harness can wrap and restore every attribute it
patches, so renaming a traced function under src/ fails here, not only in
perfbench/selfcheck.py. One traced call per workload, at the self-check size,
must also pass the benchmark's own span and count checks."""

import importlib
from pathlib import Path

import pytest

from cloudfilter import pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_install_and_uninstall_restore_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()  # an AttributeError here names the missing function
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


@pytest.mark.parametrize("name", ["sphere-35k", "grid-plane-10k", "sphere-100k-t1"])
def test_traced_call_passes_benchmark_checks(monkeypatch, tmp_path, name):
    """A moved KD-tree build or query, or a stage that no longer fires as
    often as the benchmark expects, fails here with the benchmark's message."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    inputs = workloads.prepare(name, 1, tmp_path, tiny=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pipeline.run_pipeline(inputs.config)  # the traced attribute, looked up here
    finally:
        tracer.uninstall()
    values, span_counts, problems = tracing.summarize_call(tracer.take())
    problems += tracing.check_coverage(
        span_counts, values, workloads.expected_spans(name), workloads.PINNED_COUNTS.get(name, {})
    )
    assert problems == []

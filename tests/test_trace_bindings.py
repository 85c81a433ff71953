"""The benchmark's tracer finds every layer through its module attribute.

``perfbench/tracing.py`` times a layer by replacing the function on the
module attribute its caller looks up (``ranking.gini``, ``_kernels.subset_hindex_sum``).
A refactor that calls a layer some other way (a local alias, a function
bound at import time) silently drops it from the traced run; these tests
catch that.
"""

from pathlib import Path

import pytest

from alphaindex.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = {
    "_kernels.subset_hindex_sum",
    "ranking.rank",
    "metrics.group_metrics",
    "ingest.read_dataset_file",
    "distribution.empirical_moment_ratio",
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


@pytest.fixture
def summary_file(tmp_path):
    lines = ["group_id,researcher_id,h_index,total_citations"]
    lines += [f"g{i % 2},r{i},{2 + i % 7},{30 + 11 * i}" for i in range(16)]
    path = tmp_path / "summary.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_tracer_sees_every_layer_and_restores_it(tracing, summary_file, capsys):
    originals = [(module, attr, getattr(module, attr)) for module, attr, *_ in tracing.bindings()]
    commands = [
        ["rank", summary_file, "--samples", "20"],
        ["metrics", summary_file],
        ["distfit", summary_file, "--analysis", "moments", "--k-grid", "1,2"],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not fn for module, attr, fn in originals)
        for op, argv in enumerate(commands):
            tracer.begin_op(op)
            try:
                assert main([str(a) for a in argv]) == 0
            finally:
                tracer.end_op()
    finally:
        tracer.restore()
    capsys.readouterr()

    assert EXPECTED <= {func for func, ns in tracer.func_ns.items() if ns > 0}
    assert tracer.ops == len(commands)
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)

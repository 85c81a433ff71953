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
    "distribution.fit_giddings",
    "distribution.build_histogram",
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


@pytest.fixture
def summary_file(tmp_path):
    lines = ["group_id,researcher_id,h_index,total_citations"]
    # h-indexes 2..9 with one peak, so that the Giddings fit converges
    hs = [h for h, n in zip(range(2, 10), (1, 3, 6, 8, 6, 3, 2, 1)) for _ in range(n)]
    # unequal groups: rank samples the smaller one whole, which needs no kernel call
    lines += [f"g{int(i >= 10)},r{i},{h},{30 + 11 * i}" for i, h in enumerate(hs)]
    path = tmp_path / "summary.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_tracer_sees_every_layer_and_restores_it(tracing, summary_file, capsys):
    originals = [(module, attr, getattr(module, attr)) for module, attr, *_ in tracing.bindings()]
    commands = [
        ["rank", summary_file, "--samples", "20"],
        ["metrics", summary_file],
        ["distfit", summary_file, "--analysis", "moments"],
        ["distfit", summary_file, "--analysis", "giddings"],
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
    assert tracer.layers["special"].calls > 0
    assert tracer.ops == len(commands)
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)

"""The benchmark's traced pass on the ``rvalues-synth`` workload.

``perfbench/tests`` runs the traced pass on ``published-simulate`` only,
whose CLI calls reach ``meta_p``. On ``rvalues-synth`` none does, so there
``tracing.cover`` calls ``meta_p`` itself, once per record of the dataset
it validated; this guards that loop and the names it reads.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from repval import cli  # noqa: E402


def test_rvalues_synth_traced_pass_covers_every_layer(tmp_path):
    before = cli.fdr_rvalues_all
    plan = workloads.build("rvalues-synth", run.PINNED_SEED, ROOT, tmp_path)
    tracer = tracing.Tracer("rvalues-synth", "test")
    with tracing.instrumented(tracer):
        outputs = tracing.replay(tracer, plan.calls, tmp_path)
        tracing.cover(tracer, plan.table, run.PINNED_SEED, workloads.Q,
                      workloads.L00)
    assert cli.fdr_rvalues_all is before
    assert {name: code for name, (code, _) in outputs.items()} == {
        call.name: 0 for call in plan.calls}
    given = {name: 1.0 for name in tracing.PER_LAYER
             if name.startswith(("import.", "normal.normal_"))
             or name == "dependence.c1_tilde.us"}
    _, missing = tracing.layer_metrics(tracer.spans, given, {})
    assert missing == []
    assert any(s["name"] == "baselines.meta_p" for s in tracer.spans)

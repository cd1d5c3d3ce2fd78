"""Smoke test of the benchmark at tiny sizes; it makes no timing assertions.

Run with ``PYTHONPATH=src python3 -m pytest perfbench`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harmonicdisk  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace, tmp_path):
    out = run.run(workload, 3, 0.0, bool(trace), out_dir=tmp_path, tiny=True, min_items=1)
    result = out["result"]
    assert result["correct"], out["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert (tmp_path / f"{workload}-seed3-trace{trace}.json").is_file()
    if workload == "cli":
        assert not [p for p in tmp_path.iterdir() if p.is_dir()], "the cli work directory is removed"


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_span_tree_of_one_item_nests_and_sums():
    wl = workloads.HighOrder(3, tiny=True)
    wl.build()
    label, fn = next((lab, f) for lab, f in wl.items() if lab == "o16-random-membership")
    original = harmonicdisk.series.eval_many
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        assert harmonicdisk.membership.eval_many is not original  # rebound by-name import
        run.run_pass(wl, [(label, fn)], tracer)
    assert harmonicdisk.membership.eval_many is original
    assert harmonicdisk.series.eval_many is original

    s = tracer.spans
    assert [i for i, sp in enumerate(s) if sp[3] == -1] == [0]
    assert s[0][0] == "item" and s[1][0] == "membership.membership_sampled"
    assert {sp[4] for sp in s} == {(0, label)}
    for name, start, end, parent, _ in s[1:]:
        assert s[parent][1] <= start <= end <= s[parent][2], name
    for parent in range(len(s)):
        children = [i for i, sp in enumerate(s) if sp[3] == parent]
        for a, b in zip(children, children[1:]):
            assert s[a][2] <= s[b][1], "sibling spans do not overlap"
    names = {sp[0] for sp in s}
    assert {"series.eval_many", "series.derivative", "sampling.points", "sampling.verdict_from_margins"} <= names

    dur, self_ns = spans.span_times(s)
    assert all(x >= 0 for x in self_ns)
    assert sum(self_ns) == dur[0]
    m = spans.layer_metrics(tracer)
    assert m["membership.busy_s"] == dur[1] / 1e9
    assert m["membership.self_s"] == self_ns[1] / 1e9
    assert m["series.eval_many.calls"] == 6 and m["series.derivative.calls"] == 6
    # 4x16 grid points; s' ... s''' of an order-16 series have 16, 15, 14 coefficients
    assert m["series.horner_terms"] == 2 * 64 * (16 + 15 + 14)
    assert m["sampling.outer_ring_frac"] == 1 / 4

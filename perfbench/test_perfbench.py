"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from defmap import cli, errors, train  # noqa: E402
from tracing import Span, Tracer, percentile, self_times, tail_percentile  # noqa: E402


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_children_once():
    # root [0,10] has children [1,3] and [2,6] (overlapping) and [8,9];
    # the second child has a grandchild [4,5]
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 3.0, 0, "r"),
        Span("b", 2.0, 6.0, 0, "r"),
        Span("b.inner", 4.0, 5.0, 2, "r"),
        Span("c", 8.0, 9.0, 0, "r"),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2, 3, 1, 1])


def test_tracer_nests_and_restores():
    import types

    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    orig = mod.inner
    ticks = iter(range(100))
    tr = Tracer("t", clock=lambda: float(next(ticks)))
    tr.wrap(mod, "inner")
    tr.wrap(mod, "outer")
    assert mod.outer(1) == 4
    tr.uninstall()
    assert mod.inner is orig
    names = [s.name for s in tr.spans]
    assert names == ["fake.outer", "fake.inner"]
    assert tr.spans[1].parent == 0 and tr.spans[0].parent is None
    assert self_times(tr.spans) == [2.0, 1.0]


# -- percentile rule -----------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (10, 11, 16, 20, 100, 1000, 1234):
        pct, _, count = tail_percentile(list(range(n)))
        assert count == n
        assert n - math.ceil(n * pct / 100) >= 10
        # one percent higher would leave fewer than ten beyond
        assert pct == 99 or n - math.ceil(n * (pct + 1) / 100) < 10
    assert tail_percentile(list(range(100)))[0] == 90
    assert tail_percentile(list(range(1000)))[0] == 99


def test_tail_percentile_small_sample_falls_back_to_median():
    pct, value, n = tail_percentile([3.0, 1.0, 2.0])
    assert (pct, value, n) == (50, 2.0, 3)


def test_percentile_interpolates():
    assert percentile([0.0, 10.0], 25) == 2.5
    assert percentile([5.0], 90) == 5.0


# -- failed_frac accounting ---------------------------------------------------


def _metrics_csv(path: Path, nonfinite: int) -> None:
    path.mkdir(parents=True)
    (path / "metrics.csv").write_text(f"epoch,nonfinite\n1,{nonfinite}\n")


def test_failed_fit_call_counts_every_step(tmp_path):
    t = workloads.Tally()
    good = workloads.count_fit(t, 17, tmp_path / "missing", planned=8,
                               msg="error[CheckpointError]: x")
    assert (t.attempted, t.failed, good) == (8, 8, 0)
    assert t.call_errors


def test_nonfinite_steps_count_one_each(tmp_path):
    _metrics_csv(tmp_path / "run", nonfinite=3)
    t = workloads.Tally()
    good = workloads.count_fit(t, 0, tmp_path / "run", planned=8, msg="")
    assert (t.attempted, t.failed, t.nonfinite, good) == (8, 3, 3, 5)


def test_failed_eval_call_counts_every_frame():
    t = workloads.Tally()
    assert workloads.count_eval(t, 10, 4, "error[DegenerateCloud]") == 0
    assert workloads.count_eval(t, 0, 4, "") == 4
    assert (t.attempted, t.failed) == (8, 4)


def test_raised_defmap_error_maps_to_exit_code(monkeypatch):
    def boom(argv):
        raise errors.SingularSystem("forced")

    monkeypatch.setattr(cli, "main", boom)
    rc, _ = workloads.call_cli(["fit"])
    assert rc == cli.EXIT_CODES[errors.SingularSystem]


# -- smoke runs at toy sizes ----------------------------------------------------


def _run_tiny(name: str, work: Path) -> workloads.RunResult:
    return workloads.run_workload(workloads.shrink(workloads.WORKLOADS[name]),
                                  seed=5, seconds=0, work=work)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct(name, tmp_path):
    r = _run_tiny(name, tmp_path)
    assert r.correct, (r.checks, r.errors)
    assert r.failed == 0 and r.attempted >= 2
    assert r.end_to_end["frames_per_s"] > 0
    assert r.end_to_end["setup_s"] > 0
    assert all(math.isfinite(v) for v in r.quality.values())


def test_skipped_nonfinite_step_counts_one_failure(tmp_path, monkeypatch):
    # skip the last step of every fit call, so same-seed logs still match
    real_clip = train.clip_global_norm
    calls = iter(range(10**6))

    def clip(grads, max_norm):
        if next(calls) % 4 == 3:
            raise errors.NonFiniteGradient("forced")
        return real_clip(grads, max_norm)

    monkeypatch.setattr(train, "clip_global_norm", clip)
    r = _run_tiny("fit-ortho", tmp_path)
    assert r.correct, (r.checks, r.errors)
    # a warm-up call and one timed call, one skipped step each
    assert r.nonfinite == 2 and r.failed == 2
    assert r.attempted == 8


def test_failing_workload_does_not_stop_the_next(tmp_path, monkeypatch):
    real_fit = train.fit

    def broken_fit(*a, **kw):
        raise errors.NonFiniteGradient("forced")

    monkeypatch.setattr(train, "fit", broken_fit)
    bad = _run_tiny("fit-ortho", tmp_path / "bad")
    assert not bad.correct
    assert bad.failed == bad.attempted > 0
    assert any("fit exit 16" in e for e in bad.errors)
    monkeypatch.setattr(train, "fit", real_fit)
    good = _run_tiny("eval-icp", tmp_path / "good")
    assert good.correct and good.failed == 0


def test_failed_check_fails_every_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "oracle_distance", lambda ds: 1.0)
    r = _run_tiny("fit-ortho", tmp_path)
    assert not r.checks["oracle_pcd"] and not r.correct
    assert r.failed == r.attempted > 0


def test_traced_run_reports_every_layer_metric(tmp_path):
    tr = Tracer("smoke")
    layers.install(tr)
    try:
        r = _run_tiny("fit-ortho", tmp_path)
    finally:
        tr.uninstall()
    assert not hasattr(train.fit, "__wrapped__")
    assert r.correct
    out = layers.derive(tr, r.nonfinite)
    assert set(out) == set(layers.PER_LAYER)
    assert all(math.isfinite(v) for v in out.values())
    # set-up runs no fit here; then a warm-up and one timed fit of 4 steps
    assert out["train.steps"] == 8
    assert out["tape.nodes_per_step"] > 100
    assert 0 < out["tape.backward_share"] < 1
    assert out["metrics.nn_brute_calls"] > 0
    assert out["metrics.nn_tree_calls"] == 0


def test_nearest_neighbour_route_is_observed():
    from defmap import metrics

    rng = np.random.default_rng(0)
    tr = Tracer("nn")
    layers.install(tr)
    try:
        metrics.nearest_neighbors(rng.random((metrics.TREE_MIN_POINTS, 3)),
                                  rng.random((5, 3)))
        metrics.nearest_neighbors(rng.random((50, 3)), rng.random((5, 3)))
    finally:
        tr.uninstall()
    out = layers.derive(tr, 0)
    assert out["metrics.nn_tree_calls"] == 1
    assert out["metrics.nn_brute_calls"] == 1


# -- the command ------------------------------------------------------------------


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-ortho",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import run

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    traced = {**layers.PER_LAYER, **run.RUN_LEVEL_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced

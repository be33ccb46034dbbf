"""Self-tests of the benchmark, at tiny input sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, section):
    code, result, proc = bench("--workload", name, "--trace", str(trace))
    assert code == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared(section)
    for metric, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), metric
    if trace == 0:
        assert all(result["metrics"][m]["value"] > 0 for m in declared(section))


def test_all_runs_every_workload_on_both_seeds():
    code, result, proc = bench("--workload", "all")
    assert code == 0, proc.stderr
    assert result["correct"] is True
    for name in NAMES:
        for seed in (7, 11):
            for metric in declared("end_to_end"):
                assert f"{name}.seed{seed}.{metric}" in result["metrics"]
    assert proc.stdout.count("env {") == 2 * len(NAMES)


def test_traced_layers_match_the_workload():
    _, f2d, _ = bench("--workload", "filter2d", "--trace", "1")
    _, cli, _ = bench("--workload", "cube-cli", "--trace", "1")
    f2d, cli = ({k: v["value"] for k, v in r["metrics"].items()} for r in (f2d, cli))
    assert f2d["parallel.jobs"] == 0 and f2d["subspace.identify_calls"] == 0
    assert f2d["cdbm3d.match_growth"] > 1
    for metric in ("subspace.identify_s", "subspace.identify_calls", "cube.read_s",
                   "cube.write_s", "cube.bytes_read", "cube.bytes_written", "parallel.jobs"):
        assert cli[metric] > 0, metric


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_are_byte_identical(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, "tiny", str(tmp_path))
    wl.setup()
    plain = wl.check(wl.run())
    tracer = tracing.Tracer()
    with tracing.Installed(tracer):
        traced = wl.check(wl.run())
    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest
    assert tracer.spans and not tracer.missing


def test_wrappers_are_removed_after_a_traced_pass():
    import hscube.ccf
    import hscube.cdbm3d

    before = hscube.ccf.denoise_image
    with tracing.Installed(tracing.Tracer()):
        assert hscube.ccf.denoise_image is not before
        assert hscube.cdbm3d.denoise_image is hscube.ccf.denoise_image
    assert hscube.ccf.denoise_image is before


def test_missing_function_gives_null_metrics(monkeypatch):
    import hscube.cdbm3d

    monkeypatch.delattr(hscube.cdbm3d, "_collect_groups")
    tracer = tracing.Tracer()
    with tracing.Installed(tracer):
        pass
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cdbm3d.match_candidates"] is None
    assert metrics["cdbm3d.match_ns_per_candidate"] is None
    assert metrics["cdbm3d.factor_s"] == 0.0


def test_match_candidates_are_clipped_at_the_edges():
    cfg = workloads.hscube.DenoiseConfig(patch_step=3, search_radius=2)
    # 10x10 image, 8x8 patches: 3x3 patch positions, grid [0, 2] per axis
    refs, cand = tracing.match_counts((10, 10), cfg)
    assert refs == 4
    assert cand == (3 + 3) * (3 + 3)


@pytest.mark.parametrize("name", NAMES)
def test_forced_failure_raises_the_error_rate(name):
    code, result, _ = bench("--workload", name, "--inject-failure")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "filter2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

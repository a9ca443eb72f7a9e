"""Self-checks of the ledger harness (not collected by tier-1).

    python -m pytest benchmarks/ledger -q

Runs every workload at ``--quick`` sizes once (about a minute, most of
it key generation), plus in-process checks of the tracer.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.ledger import metrics, run, trace, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One ``--quick`` ledger run of every workload, both passes."""
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    proc = subprocess.run(
        RUN + ["--quick", "--reps", "2", "--seconds", "0",
               "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return out, json.loads(out.read_text())


# -- the catalogue and BENCHMARK.json say the same thing --------------------

def test_benchmark_json_matches_catalogue():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == \
        [(name, why) for name, (_, _, why) in workloads.WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(metrics.PER_LAYER)


def test_names_units_and_bounds_fit_the_contract():
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in declared] \
        + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in declared)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128


def test_sizes_are_pinned_for_every_workload():
    ledger = workloads.LEDGER
    assert ledger["claim"] is None
    for key in ("default_seeds", "sizes", "quick_sizes"):
        assert set(ledger[key]) == set(workloads.WORKLOADS)
    assert set(ledger["digests"]) == set(workloads.WORKLOADS)


# -- one quick run of everything ---------------------------------------------

def test_every_workload_emits_exactly_the_declared_metrics(quick):
    _, document = quick
    assert set(document["workloads"]) == set(workloads.WORKLOADS)
    for result in document["workloads"].values():
        assert result["correct"], result["problems"]
        assert sorted(result["end_to_end"]) == \
            sorted(m["name"] for m in BENCHMARK["end_to_end"])
        assert sorted(result["per_layer"]) == \
            sorted(m["name"] for m in BENCHMARK["per_layer"])
        assert all(stat["value"] > 0
                   for stat in result["end_to_end"].values())


def test_result_file_records_its_environment_and_raw_values(quick):
    _, document = quick
    environment = document["environment"]
    for key in ("git_commit", "python", "platform", "nproc",
                "loadavg_1m_start", "loadavg_1m_end", "noisy"):
        assert key in environment
    assert document["claim"] is None
    for result in document["workloads"].values():
        assert result["sizes"] and "seed" in result
        assert len(result["end_to_end"]["ops_per_s"]["raw"]) == 2
        assert len(result["ledger_only"]["wall_s"]["raw"]) == 2
        assert len(result["raw"]["wall_s"]) == len(result["raw"]["spin_s"]) == 2


def test_predicted_layers_show_where_they_should(quick):
    _, document = quick
    layer = {name: {metric: stat["value"]
                    for metric, stat in result["per_layer"].items()}
             for name, result in document["workloads"].items()}
    storm = layer["attach_storm"]
    assert storm["crypto.self_s"] >= 0.5 * sum(
        value for metric, value in storm.items()
        if metric.endswith(".self_s"))
    for name in ("app_transport", "megaload_day"):
        assert layer[name]["crypto.calls"] == 0
    for name, values in layer.items():
        only_failover = [values[metric] for metric in values
                         if metric.startswith(("core.shardhost.", "obs."))]
        assert any(only_failover) == (name == "broker_failover")
        assert values["host.unattributed_frac"] <= 0.2


def test_compare_agrees_with_itself_and_sees_a_regression(quick, tmp_path):
    path, document = quick
    same = subprocess.run(RUN + ["compare", str(path), str(path)],
                          capture_output=True, text=True)
    assert same.returncode == 0
    assert "worse" not in same.stdout.replace("no metric is worse", "")
    slow = json.loads(json.dumps(document))
    stat = slow["workloads"]["megaload_day"]["end_to_end"]["ops_per_s"]
    stat["value"] /= 1.5
    stat["raw"] = [value / 1.5 for value in stat["raw"]]
    slow["workloads"]["attach_storm"]["exact"]["sim_attach_p99_ms"] += 1.0
    other = tmp_path / "slow.json"
    other.write_text(json.dumps(slow))
    worse = subprocess.run(RUN + ["compare", str(path), str(other)],
                           capture_output=True, text=True)
    assert worse.returncode == 1
    rows = [line.split()[:2] for line in worse.stdout.splitlines()
            if line.endswith("  worse")]
    assert rows == [["attach_storm", "sim_attach_p99_ms"],
                    ["megaload_day", "ops_per_s"]]


# -- the driver's contract ----------------------------------------------------

@pytest.mark.parametrize("traced", (0, 1))
def test_single_workload_prints_the_driver_line_last(traced, tmp_path):
    proc = subprocess.run(
        RUN + ["--workload", "megaload_day", "--seed", "5", "--quick",
               "--seconds", "0.5", "--trace", str(traced),
               "--out", str(tmp_path / "one.json")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    section = "per_layer" if traced else "end_to_end"
    assert list(line["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    assert all(set(value) == {"value", "unit"}
               for value in line["metrics"].values())


def test_fails_cleanly_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "megaload_day", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- the tracer, in process ----------------------------------------------------

def _holder_attribute(holder, name):
    return holder.__dict__[name]


def test_install_restores_the_identical_objects():
    before = {}
    for module_name, class_name, attr, _, _ in trace.PATCH_TABLE:
        module = sys.modules.get(module_name) \
            or __import__(module_name, fromlist=["_"])
        holder = getattr(module, class_name) if class_name else module
        before[(module_name, class_name, attr)] = \
            _holder_attribute(holder, attr)
    patches = trace.install(trace.Recorder())
    patched = patches.patched()
    assert len(patched) >= len(trace.PATCH_TABLE)
    assert all(_holder_attribute(holder, name) is not original
               for holder, name, original in patched)
    patches.restore()
    assert all(_holder_attribute(holder, name) is original
               for holder, name, original in patched)
    for (module_name, class_name, attr), original in before.items():
        module = sys.modules[module_name]
        holder = getattr(module, class_name) if class_name else module
        assert _holder_attribute(holder, attr) is original


@pytest.mark.parametrize("name", ("app_transport", "megaload_day"))
def test_traced_rep_accounts_for_its_wall_and_moves_no_sim_value(name):
    prime, entry, _ = workloads.WORKLOADS[name]
    size = workloads.sizes(name, quick=True)
    prime(size, 3)
    plain, _ = run._rep(name, entry, size, 3, traced=False)
    traced, recorder = run._rep(name, entry, size, 3, traced=True)
    again, _ = run._rep(name, entry, size, 3, traced=False)
    other, _ = run._rep(name, entry, size, 4, traced=False)
    for rep in (traced, again):
        assert rep["sim"] == plain["sim"]
        assert rep["digest"] == plain["digest"]
    assert other["digest"] != plain["digest"]
    summary = recorder.summary()
    layers = {layer: seconds for layer, seconds in summary["self_s"].items()
              if layer != trace.ROOT_LAYER}
    root_s = summary["total_s"][name]
    assert min(layers.values()) >= 0.0
    assert sum(layers.values()) <= root_s
    assert sum(summary["self_s"].values()) == pytest.approx(root_s)
    spans = list(recorder.spans())
    assert spans[0][:2] == (name, trace.ROOT_LAYER) and spans[0][4] == -1
    assert all(0 <= parent < index
               for index, (*_, parent) in enumerate(spans) if index)

"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run

DECLARED = json.loads(run.SPEC.read_text(encoding="utf-8"))

# Small stand-ins for each workload: same commands, tiny arguments.
TINY = {
    "plethysm": (run.verify_op("plethysm-su2", 1),),
    "identities": (
        run.Op("verify.kostant", ("verify", "kostant", "--m", "2", "--samples", "2"), 2),
        run.Op("verify.littlewood", ("verify", "littlewood", "--samples", "2"), 2),
    ),
    "dump": (run.dump_op("2,1,0", 8),),
}


def _bench(monkeypatch, tmp_path, capsys, workloads, workload, trace=0):
    monkeypatch.setattr(run, "WORKLOADS", workloads)
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    )
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    results = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    return json.loads(last), results


def test_workloads_match_declaration():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in DECLARED["workloads"])
    assert sorted(TINY) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_end_to_end_metric_is_emitted_with_its_unit(
    monkeypatch, tmp_path, capsys, workload
):
    line, _ = _bench(monkeypatch, tmp_path, capsys, TINY, workload)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_every_per_layer_metric_is_emitted_when_tracing(monkeypatch, tmp_path, capsys):
    line, results = _bench(monkeypatch, tmp_path, capsys, TINY, "identities", trace=1)
    expected = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert line["metrics"]["sunrep.lift.calls"]["value"] > 0
    assert results["absent"] == []
    assert results["traced_mismatches"] == 0


def test_failing_ops_count_as_failed_without_ending_the_run(monkeypatch, tmp_path, capsys):
    workloads = {
        "dump": (
            run.dump_op("16,8,0", 729),  # d = 729 is above the dimension cap: exit 3
            run.Op("verify.kostant", ("verify", "no-such-suite"), 1),  # usage error
            run.dump_op("2,1,0", 8),
        )
    }
    line, results = _bench(monkeypatch, tmp_path, capsys, workloads, "dump")
    assert line["correct"] is False
    assert line["failed"] == 2 * results["rounds"]
    assert line["attempted"] == 3 * results["rounds"]
    assert line["metrics"]["ok_frac"]["value"] == pytest.approx(1 / 3)
    assert "exit code 3" in results["errors"]


def test_tracing_leaves_output_bytes_unchanged(tmp_path):
    ops = TINY["plethysm"] + TINY["identities"] + TINY["dump"]
    plain = run.run_round(ops, 7, False, tmp_path, 120)
    traced = run.run_round(ops, 7, True, tmp_path, 120)
    assert plain["crash"] is None and traced["crash"] is None
    for a, b in zip(plain["ops"], traced["ops"]):
        assert a["error"] is None and b["error"] is None
        assert a["sha256"] == b["sha256"]
    stats = traced["result"]["trace"]["stats"]
    assert stats["cli.main"]["calls"] == len(ops)


def test_tracer_wraps_every_binding_and_skips_absent_names(tmp_path):
    """``plethysm`` calls ``lift`` through its own ``from .sunrep import``
    binding; a deleted target is reported absent, not fatal."""
    script = f"""
import json, tracer
import immdfun.cli, immdfun.plethysm, immdfun.sunrep
tracer.TARGETS += ("sunrep._deleted_helper", "nosuchmodule.f")
t = tracer.Tracer()
t.install()
assert immdfun.plethysm.lift is immdfun.sunrep.lift is immdfun.verification.lift
code = immdfun.cli.main(["verify", "plethysm-su2", "--out", {str(tmp_path / "o.jsonl")!r}])
print(json.dumps({{"code": code, **t.report()}}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=run.HERE,
        env=run.worker_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0
    assert report["absent"] == ["sunrep._deleted_helper", "nosuchmodule.f"]
    lift = report["stats"]["sunrep.lift"]
    assert lift["calls"] > 0 and lift["d_max"] == 13  # SU(2) irreps up to J = 6
    main = report["stats"]["cli.main"]
    assert 0 < main["self_s"] < main["incl_s"]
    fit = report["stats"]["plethysm.fit_decomposition"]
    assert fit["survivors"] == 3 and fit["pruned"] > 0
    declared = [{"name": "sunrep._deleted_helper.calls", "unit": "count"}]
    assert run.select(declared, {}, report["absent"]) == {
        "sunrep._deleted_helper.calls": {"value": 0.0, "unit": "count"}
    }


def test_checks_reject_wrong_output():
    passing = b'{"suite":"kostant","pass":true}'
    failing = b'{"suite":"kostant","pass":false}'
    assert run.check_verify([passing, passing], 2) is None
    assert run.check_verify([passing], 2) == "1 reports, expected 2"
    assert run.check_verify([passing, failing], 2) == "1 reports do not pass"

    def record(r, t, value):
        return json.dumps({"irrep": [1, 0], "r": r, "t": t, "value": value}).encode()

    a, b = [[1, 0], [1]], [[1, 0], [0]]
    swap = [record(a, a, [0, 0]), record(a, b, [1, 0]), record(b, a, [1, 0]), record(b, b, [0, 0])]
    assert run.check_dump(swap, 2) is None
    scaled = swap[:1] + [record(a, b, [2, 0])] + swap[2:]
    assert run.check_dump(scaled, 2).startswith("assembled matrix not unitary")
    nan = swap[:1] + [record(a, b, [float("nan"), 0])] + swap[2:]
    assert run.check_dump(nan, 2) == "non-finite values"
    assert run.check_dump(swap[:3], 2) == "3 records, expected d^2 = 4"

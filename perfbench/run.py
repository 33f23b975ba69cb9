"""immdfun benchmark: end-to-end CLI workloads plus a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload plethysm --seed 1 --seconds 30 --trace 0

One client process drives a closed loop: it starts a fresh worker process
for one round, waits for it, checks every output, and starts the next
round until ``--seconds`` have passed.  A round imports ``immdfun.cli``
(timed as ``setup_s``) and calls ``immdfun.cli.main(argv)`` once per
operation of the workload, output sent to a file.  Round ``k`` passes
``--seed SEED+k`` to every operation, so the same seed gives the same
inputs, and ``--seed 1905`` (the program's default) yields the
default-seed report streams, whose SHA-256 is recorded for information.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` rounds alternate untraced and traced
(same seed each pair) and it carries the per-layer metrics.  Full results,
the environment and per-round raw numbers go to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1905  # immdfun's documented default seed
LOOP_CAP_S = 150.0  # a run must end within 180 s whatever the program does
UNITARITY_TOL = 1e-10
BLAS_THREADS = 1
# The host's speed drifts by 20% or more over minutes and moves every timing
# of a round together.  The end-to-end times are therefore taken per round
# relative to a fixed reference computation (worker.calibrate) and given in
# seconds on a host where that computation takes REFERENCE_S.
REFERENCE_S = 0.5


@dataclass(frozen=True)
class Op:
    """One CLI operation; ``--seed`` and ``--out`` are added per round."""

    name: str  # per-command metric stem
    argv: tuple[str, ...]
    expect: int  # report count for verify, irrep dimension d for a dump

    @property
    def is_dump(self) -> bool:
        return self.argv[0] == "dump-dfunctions"


def verify_op(suite: str, reports: int) -> Op:
    return Op(f"verify.{suite}", ("verify", suite), reports)


def dump_op(row: str, d: int) -> Op:
    return Op("dump-dfunctions", ("dump-dfunctions", "--row", row, "--haar", "3"), d)


# Workloads separate the layers the planned changes move:
# - plethysm: many small lifts read a few entries at a time (sunrep.lift
#   dominates; serialisation is negligible);
# - identities: character sums, the duality route and weight-block
#   bookkeeping, with smaller lifts;
# - dump: one full lift at d = 343, then record building and JSON
#   serialisation of d^2 records.
WORKLOADS = {
    "plethysm": (verify_op("plethysm-su3", 1), verify_op("plethysm-su2", 1)),
    "identities": (
        verify_op("kostant", 10),
        verify_op("corollary4", 99),
        verify_op("littlewood", 100),
        verify_op("conjecture", 18),
    ),
    "dump": (dump_op("12,6,0", 343),),
}

# every per-command metric stem any workload can produce
COMMANDS = tuple(dict.fromkeys(op.name for ops in WORKLOADS.values() for op in ops))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_cpu() -> int:
    return max(os.sched_getaffinity(0))


def worker_env() -> dict:
    """Environment of a worker: src importable, one BLAS thread, and no
    IMMDFUN_* overrides, so the program runs with its defaults.

    The worker is single-threaded and pinned to one CPU: on a small shared
    host, BLAS threads and migration between CPUs add run-to-run spread, and
    the lifts (d <= 343) gain nothing from a second BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("IMMDFUN_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": nproc(),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "worker_cpu": worker_cpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": commit,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# output checks (run in the client, outside every timed section)
# ---------------------------------------------------------------------------


def check_verify(lines: list[bytes], expect: int) -> str | None:
    reports = [json.loads(line) for line in lines]
    if len(reports) != expect:
        return f"{len(reports)} reports, expected {expect}"
    failing = sum(1 for rep in reports if rep.get("pass") is not True)
    return f"{failing} reports do not pass" if failing else None


def check_dump(lines: list[bytes], d: int) -> str | None:
    if len(lines) != d * d:
        return f"{len(lines)} records, expected d^2 = {d * d}"
    records = json.loads(b"[" + b",".join(lines) + b"]")  # one call: 117k records parse faster
    for k, rec in enumerate(records):
        a, b = divmod(k, d)
        if rec["r"] != records[a * d]["r"] or rec["t"] != records[b]["t"]:
            return f"record {k} is out of row-major (r, t) order"
    values = np.array([rec["value"] for rec in records], dtype=np.float64)
    if not np.isfinite(values).all():
        return "non-finite values"
    mat = (values[:, 0] + 1j * values[:, 1]).reshape(d, d)
    defect = float(np.abs(mat.conj().T @ mat - np.eye(d)).max())
    if defect > UNITARITY_TOL:
        return f"assembled matrix not unitary: defect {defect:.3e}"
    return None


def check_op(op: Op, record: dict, path: Path) -> tuple[str | None, str | None]:
    """(error or None, SHA-256 of the output stream or None)."""
    if record["error"] is not None:
        return record["error"], None
    if record["exit"] != 0:
        return f"exit code {record['exit']}", None
    data = path.read_bytes()
    lines = data.splitlines()
    try:
        error = check_dump(lines, op.expect) if op.is_dump else check_verify(lines, op.expect)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        error = f"malformed output: {type(exc).__name__}: {exc}"
    return error, hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def run_round(ops, seed: int, traced: bool, work: Path, timeout: float) -> dict:
    """Run every op once in a fresh worker; return timings and check results."""
    outs = [work / f"op{i}.out" for i in range(len(ops))]
    spec = {
        "trace": traced,
        "cpu": worker_cpu(),
        "ops": [[*op.argv, "--seed", str(seed), "--out", str(p)] for op, p in zip(ops, outs)],
        "result": str(work / "result.json"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    Path(spec["result"]).unlink(missing_ok=True)
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            env=worker_env(),
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=max(timeout, 1.0),
        )
        crash = None if proc.returncode == 0 else proc.stderr.decode(errors="replace")[-2000:]
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        crash = f"worker timed out after {timeout:.0f} s"
    result = None if crash else json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    records = []
    for i, (op, path) in enumerate(zip(ops, outs)):
        if result is None:
            error, sha, seconds = f"worker failed: {crash}", None, None
        else:
            rec = result["ops"][i]
            error, sha = check_op(op, rec, path)
            seconds = rec["seconds"]
        path.unlink(missing_ok=True)
        records.append(
            {"op": op.name, "seed": seed, "seconds": seconds, "error": error, "sha256": sha}
        )
    if result is not None:
        result["ops"] = records
    return {
        "seed": seed,
        "traced": traced,
        "round_s": time.perf_counter() - started,
        "result": result,
        "ops": records,
        "crash": crash,
    }


def measure(ops, seed: int, seconds: float, trace: bool, work: Path) -> list[dict]:
    """Closed loop of rounds (pairs of untraced and traced rounds when
    tracing) until the next step would pass ``seconds``."""
    rounds = []
    start = time.perf_counter()
    steps = 0
    while True:
        for traced in (False, True) if trace else (False,):
            left = LOOP_CAP_S - (time.perf_counter() - start)
            rounds.append(run_round(ops, seed + steps, traced, work, left))
        steps += 1
        elapsed = time.perf_counter() - start
        per_step = elapsed / steps
        if elapsed + per_step > min(seconds, LOOP_CAP_S):
            return rounds


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values))


def command_seconds(result: dict) -> dict:
    totals = dict.fromkeys(COMMANDS, 0.0)
    for rec in result["ops"]:
        totals[rec["op"]] += rec["seconds"]
    return totals


def end_to_end(plain: list[dict], attempted: int, failed: int) -> dict:
    def scaled(key):
        return _median(r[key] / r["calib_s"] * REFERENCE_S for r in plain)

    return {
        "wall_s": scaled("wall_s"),
        "setup_s": scaled("setup_s"),
        "raw_wall_s": _median(r["wall_s"] for r in plain),
        "raw_setup_s": _median(r["setup_s"] for r in plain),
        "calib_s": _median(r["calib_s"] for r in plain),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain),
        "ok_frac": (attempted - failed) / attempted,
    }


def metric_name(target: str) -> str:
    """Metric stem of a traced target.  Metric names start with a letter or
    a digit, so the ``_kernels`` module reads ``kernels``."""
    return target.lstrip("_")


def layer_metrics(traced: list[dict]) -> dict:
    """Medians over traced rounds of each span counter, module self time,
    and derived ratios."""
    per_round = []
    for result in traced:
        stats = result["trace"]["stats"]
        flat = {}
        for name, stat in stats.items():
            for key, value in stat.items():
                if key not in ("survivors", "pruned"):
                    flat[f"{metric_name(name)}.{key}"] = value
            if "survivors" in stat:
                attempts = stat["survivors"] + stat["pruned"]
                useful = stat["survivors"] / attempts if attempts else 0.0
                flat[f"{metric_name(name)}.useful_frac"] = useful
        for layer in LAYERS:
            flat[f"{metric_name(layer)}.self_s"] = sum(
                stat["self_s"] for name, stat in stats.items() if name.split(".")[0] == layer
            )
        per_round.append(flat)
    return {key: _median(r[key] for r in per_round) for key in per_round[0]}


def summarise(workload: str, trace: bool, rounds: list[dict]) -> dict:
    ops = [rec for r in rounds for rec in r["ops"]]
    done = [r for r in rounds if r["result"] is not None]
    plain = [r["result"] for r in done if not r["traced"]]
    traced = [r["result"] for r in done if r["traced"]]
    # a traced round must write the same bytes as its untraced partner
    mismatched = 0
    if trace:
        by_seed = {}
        for r in done:
            by_seed.setdefault(r["seed"], {})[r["traced"]] = r
        for pair in by_seed.values():
            if len(pair) == 2:
                for a, b in zip(pair[False]["ops"], pair[True]["ops"]):
                    if a["error"] is None and b["error"] is None and a["sha256"] != b["sha256"]:
                        b["error"] = "traced output differs from untraced output"
                        mismatched += 1
    attempted = len(ops)
    failed = sum(1 for rec in ops if rec["error"] is not None)
    summary = {
        "workload": workload,
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "traced_mismatches": mismatched,
        "errors": sorted({rec["error"] for rec in ops if rec["error"]}),
        "default_seed_sha256": {
            rec["op"]: rec["sha256"]
            for r in rounds
            if not r["traced"] and r["seed"] == DEFAULT_SEED
            for rec in r["ops"]
        },
    }
    if not plain or (trace and not traced):
        return summary
    e2e = end_to_end(plain, attempted, failed)
    commands = {
        f"{name}_s": _median(command_seconds(r)[name] for r in plain) for name in COMMANDS
    }
    summary["end_to_end"] = {**e2e, **commands}
    summary["samples"] = {"untraced_rounds": len(plain), "traced_rounds": len(traced)}
    if trace:
        layers = layer_metrics(traced)
        traced_wall = _median(r["wall_s"] for r in traced)
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - e2e["raw_wall_s"]
        raw = {key: e2e[key] for key in ("raw_wall_s", "raw_setup_s", "calib_s")}
        summary["per_layer"] = {**raw, **commands, **layers}
        shares = {
            key[: -len(".self_s")]: value / traced_wall
            for key, value in sorted(layers.items(), key=lambda kv: -kv[1])
            if key.endswith(".self_s")
        }
        layer_names = {metric_name(layer) for layer in LAYERS}
        summary["self_share"] = {
            "layers": {k: v for k, v in shares.items() if k in layer_names},
            "functions": {k: v for k, v in shares.items() if k not in layer_names},
        }
        summary["absent"] = traced[0]["trace"]["absent"]
        summary["counter_errors"] = traced[0]["trace"]["counter_errors"]
    return summary


def select(declared: list[dict], computed: dict, absent: list[str]) -> dict:
    """The declared metrics, by name with unit.  A metric of a traced
    function the code no longer defines reads 0: it was called 0 times."""
    out = {}
    for metric in declared:
        name = metric["name"]
        if name in computed:
            value = computed[name]
        elif any(name.startswith(target + ".") for target in absent):
            value = 0.0
        else:
            raise KeyError(f"metric {name} was not computed")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "immdfun" / "cli.py").is_file():
        print(f"error: no immdfun sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads(SPEC.read_text(encoding="utf-8"))
    trace = bool(args.trace)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        rounds = measure(WORKLOADS[args.workload], args.seed, args.seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = summarise(args.workload, trace, rounds)
    summary["environment"] = environment(args.seed)
    summary["raw_rounds"] = rounds
    results = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(summary, indent=1), encoding="utf-8")

    key = "per_layer" if trace else "end_to_end"
    if key not in summary:
        print(f"error: no round completed; see {results}", file=sys.stderr)
        for error in summary["errors"][:5]:
            print(f"  {error}", file=sys.stderr)
        return 1
    # a dropped work counter reads 0 like an absent function
    gone = summary.get("absent", []) + list(summary.get("counter_errors", {}))
    gone = [metric_name(target) for target in gone]
    metrics = select(declared[key], summary[key], gone)

    env = summary["environment"]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"{summary['rounds']} rounds  {summary['attempted']} ops  {summary['failed']} failed"
    )
    print(
        f"  nproc {env['nproc']}  {env['blas']} x{env['blas_threads']}  python {env['python']}  "
        f"numpy {env['numpy']}  scipy {env['scipy']}  numba {env['numba_importable']}  "
        f"commit {env['commit']}"
    )
    print(f"  medians over {summary['samples']['untraced_rounds']} untraced rounds:")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    e2e_names = {m["name"] for m in declared["end_to_end"]}
    for name, value in summary["end_to_end"].items():
        if name in e2e_names or value:  # commands the workload does not run read 0
            print(f"    {name:<26} {value:12.6g} {units[name]}")
    if trace:
        for kind, shares in summary["self_share"].items():
            print(f"  self-time share of the traced wall time, by {kind[:-1]}:")
            for name, share in list(shares.items())[:10]:
                if share >= 0.005:
                    print(f"    {name:<44} {share:6.1%}")
        if summary["absent"]:
            print(f"  absent (reported as 0): {', '.join(summary['absent'])}")
    for error in summary["errors"][:5]:
        print(f"  failure: {error}")
    print(f"  results: {results}")
    failed = summary["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": summary["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

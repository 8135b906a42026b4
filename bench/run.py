"""darkfloquet benchmark.

One workload, as BENCHMARK.json runs it:

    python3 bench/run.py --workload minpop_n5 --seed 3 --seconds 10 --trace 0

Every workload, end-to-end and traced, plus the corrupted-output self-test;
prints each metric with its unit and, with --label, writes
bench/BENCH_<label>.json:

    python3 bench/run.py --all --label baseline

Each CLI invocation runs in a fresh process (bench/child.py) with at most two
BLAS threads. --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced invocations and reports the per-layer metrics. The last
line of standard output is the result object; the lines before it, starting
with '#', carry the provenance and the per-invocation record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
from tracing import LAYERS
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference_seed0.json"
DEFAULT_SEED = 0
SETUP_PROBES = 20
CHILD_TIMEOUT_S = 120
# one BLAS thread: at two, OpenBLAS keeps a second core spinning without
# speeding up these <= 11x11 problems
BLAS_THREADS = 1

MAX_READINGS = ("evolve.unitarity_defect_max", "evolve.norm_drift_max",
                "linalg.eigen_residual_max")


def provenance(label: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    rev = "unknown"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or rev
    return {"label": label, "git_rev": rev, "python": platform.python_version(),
            "numpy": np.__version__, "cpu_count": os.cpu_count(), "blas": blas,
            "blas_threads": BLAS_THREADS}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def invoke(inv_dir: Path, mode: str, argv: list[str]) -> dict:
    """Run one CLI invocation in a fresh process; its outputs land in
    inv_dir/out. Returns the child's record plus exit status and peak RSS."""
    out = inv_dir / "out"
    out.mkdir(parents=True)
    record_path = inv_dir / "record.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--mode", mode,
           "--record", str(record_path), "--", *argv]
    with open(inv_dir / "log.txt", "w") as log:
        proc = subprocess.Popen(cmd, cwd=out, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    record.update(mode=mode, returncode=proc.returncode,
                  peak_rss_mb=usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        record["log"] = (inv_dir / "log.txt").read_text()[-2000:]
    return record


def run_checked(w: Workload, inv_dir: Path, mode: str, argv: list[str],
                reference: dict | None) -> dict:
    """invoke(), then every check on the exit status, the returned objects
    and the output files; the outputs are removed afterwards."""
    rec = invoke(inv_dir, mode, argv)
    problems = []
    if rec["returncode"] != 0:
        problems.append(f"exit code {rec['returncode']}: {rec['log'][-500:]}")
    if rec.get("error"):
        problems.append(rec["error"])
    problems += rec.get("violations", [])
    if mode == "setup":
        if "setup_s" not in rec:
            problems.append("no call into harness")
    elif "work_s" not in rec:
        problems.append("no call into harness")
    else:
        problems += w.check(inv_dir / "out", argv, reference)
        rec["bytes_written"] = sum(p.stat().st_size for p in (inv_dir / "out").iterdir())
    rec["problems"] = problems
    shutil.rmtree(inv_dir)
    return rec


def measure(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    argv = w.argv(seed)
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[w.name]
    invocations = []

    def run(mode: str) -> dict:
        rec = run_checked(w, workdir / str(len(invocations)), mode, argv, reference)
        invocations.append(rec)
        return rec

    if not trace:
        run("setup")["warmup"] = True   # byte-compiles the package, fills caches
        for _ in range(SETUP_PROBES):
            run("setup")
    start = time.perf_counter()
    modes = ["plain", "trace"] if trace else ["plain"]
    k = 0
    while k < 2 * len(modes) or time.perf_counter() - start < seconds:
        run(modes[k % len(modes)])
        k += 1

    failed = sum(1 for r in invocations if r["problems"])
    result = {"correct": failed == 0, "attempted": len(invocations), "failed": failed}
    good = [r for r in invocations if not r["problems"]]
    plain = [r for r in good if r["mode"] == "plain"]
    throughput = statistics.median(w.units / r["work_s"] for r in plain) if plain else 0.0
    if trace:
        result["metrics"] = layer_metrics(w, invocations, throughput)
    else:
        setups = [r["setup_s"] for r in good if "setup_s" in r and not r.get("warmup")]
        result["metrics"] = {
            "throughput": {"value": throughput, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain)
                            if plain else 0.0, "unit": "MB"},
            "pass_rate": {"value": 1.0 - failed / len(invocations), "unit": "ratio"},
        }
    result["record"] = record = {
        "workload": w.name, "seed": seed, "argv": argv, "seconds": seconds,
        "trace": int(trace), "work_unit": w.unit, "units_per_invocation": w.units,
        "fail_rate": failed / len(invocations),
        "invocations": [{k: r.get(k) for k in ("mode", "setup_s", "work_s", "work_cpu_s", "peak_rss_mb",
                                               "bytes_written", "problems")}
                        for r in invocations],
    }
    if trace and result["metrics"]:
        record["trace_checks"] = trace_notes(w, result["metrics"], counts_repeat(invocations))
    return result


def layer_metrics(w: Workload, invocations: list[dict], plain_throughput: float) -> dict:
    traced = [r for r in invocations if r["mode"] == "trace" and "layers" in r]
    good = [r for r in traced if not r["problems"]]
    if not good:
        return {}
    summaries = [r["layers"] for r in good]
    first = summaries[0]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.self_s", statistics.median(s["self_s"][layer] for s in summaries), "s")
    steps = first["counters"].get("evolve.rk4_steps", 0)
    put("evolve.step_us", 1e6 * metrics["evolve.self_s"]["value"] / steps if steps else 0.0, "us")
    put("evolve.calls", first["layer_calls"]["evolve"], "count")
    put("evolve.rk4_steps", steps, "count")
    put("evolve.bytes_kept", first["counters"].get("evolve.bytes_kept", 0), "bytes")
    put("linalg.hermitian_eigen.calls", first["calls"].get("linalg.hermitian_eigen", 0), "count")
    put("linalg.unitary_eigen.calls", first["calls"].get("linalg.unitary_eigen", 0), "count")
    put("floquet.calls", first["layer_calls"]["floquet"], "count")
    put("effective.checks", first["counters"].get("effective.checks", 0), "count")
    put("harness.bytes_written", good[0].get("bytes_written", 0), "bytes")
    put("model.calls", first["layer_calls"]["model"], "count")
    for layer in LAYERS:
        put(f"{layer}.errors", sum(r["layers"]["errors"][layer] for r in traced), "count")
    for key in MAX_READINGS:
        put(key, max(s["readings"].get(key, 0.0) for s in summaries), "1")
    put("floquet.overlap_min",
        min(s["readings"].get("floquet.overlap_min", 0.0) for s in summaries), "1")
    traced_throughput = statistics.median(w.units / r["work_s"] for r in good)
    put("trace.overhead", plain_throughput / traced_throughput - 1.0 if plain_throughput else 0.0,
        "ratio")
    put("trace.coverage", statistics.median(
        sum(s["self_s"].values()) / r["wall_s"] for s, r in zip(summaries, good)), "ratio")
    put("trace.wall_s", statistics.median(r["wall_s"] for r in good), "s")
    return metrics


def trace_notes(w: Workload, metrics: dict, counts_repeat: bool) -> list[str]:
    """The checks a traced run makes on itself, as '#' lines."""
    notes = []
    ranked = sorted(LAYERS, key=lambda layer: -metrics[f"{layer}.self_s"]["value"])
    lead = tuple(ranked[:len(w.dominant)])
    notes.append(f"dominant layers {list(lead)}, expected {list(w.dominant)}: "
                 + ("ok" if lead == w.dominant else "MISMATCH"))
    coverage = metrics["trace.coverage"]["value"]
    notes.append(f"self times cover {coverage:.4f} of the traced wall time: "
                 + ("ok" if abs(coverage - 1.0) <= 0.05 else "OUTSIDE 5%"))
    notes.append("counts repeat across traced invocations: " + ("ok" if counts_repeat else "NO"))
    return notes


def counts_repeat(invocations: list[dict]) -> bool:
    keyed = [(r["layers"]["calls"], r["layers"]["counters"], r.get("bytes_written"))
             for r in invocations if r["mode"] == "trace" and "layers" in r]
    return all(k == keyed[0] for k in keyed)


def run_one(w: Workload, seed: int, seconds: float, trace: bool, label: str) -> dict:
    workdir = WORK / f"{w.name}-{os.getpid()}"
    try:
        result = measure(w, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["record"]["provenance"] = provenance(label)
    return result


def selftest(w: Workload, workdir: Path) -> tuple[bool, bool]:
    """(clean output passes, corrupted output is counted as a failure)."""
    argv = w.argv(DEFAULT_SEED)
    reference = json.loads(REFERENCE.read_text())[w.name]
    inv = workdir / "selftest"
    try:
        rec = invoke(inv, "plain", argv)
        clean = rec["returncode"] == 0 and not w.check(inv / "out", argv, reference)
        w.corrupt(inv / "out")
        caught = bool(w.check(inv / "out", argv, reference))
    finally:
        shutil.rmtree(inv, ignore_errors=True)
    return clean, caught


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="with --all: write bench/BENCH_<label>.json")
    opts = parser.parse_args()
    if opts.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "darkfloquet" / "__init__.py").is_file():
        print(f"error: no darkfloquet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if opts.all:
        return run_all(opts)
    if opts.workload is None:
        parser.error("give --workload or --all")
    result = run_one(WORKLOADS[opts.workload], opts.seed, opts.seconds, bool(opts.trace),
                     opts.label or "adhoc")
    record = result.pop("record")
    for note in record.get("trace_checks", []):
        print(f"# trace check: {note}")
    print("# record " + json.dumps(record))
    print(json.dumps(result))
    return 0


def run_all(opts) -> int:
    label = opts.label or "adhoc"
    bench = {"provenance": provenance(label), "seed": opts.seed, "seconds": opts.seconds,
             "workloads": {}}
    ok = True
    for name, w in WORKLOADS.items():
        timed = run_one(w, opts.seed, opts.seconds, False, label)
        traced = run_one(w, opts.seed, opts.seconds, True, label)
        clean, caught = selftest(w, WORK / f"selftest-{os.getpid()}")
        rec = timed["record"]
        print(f"{name}: darkfloquet {' '.join(rec['argv'])}")
        print(f"  one invocation = {w.units} {w.unit}")
        for metric, m in timed["metrics"].items():
            print(f"  {metric:<30} {m['value']:<14.6g} {m['unit']}")
        print(f"  {'fail_rate':<30} {rec['fail_rate']:<14.6g} ratio "
              f"({timed['failed']} of {timed['attempted']} invocations)")
        for metric, m in traced["metrics"].items():
            print(f"  {metric:<30} {m['value']:<14.6g} {m['unit']}")
        for note in traced["record"].get("trace_checks", []):
            print(f"  trace check: {note}")
        print(f"  selftest: clean output passes: {clean}; "
              f"corrupted output counted as a failure: {caught}")
        ok = ok and timed["correct"] and traced["correct"] and clean and caught
        bench["workloads"][name] = {
            "argv": rec["argv"], "work_unit": w.unit, "units_per_invocation": w.units,
            "end_to_end": timed["metrics"], "fail_rate": rec["fail_rate"],
            "per_layer": traced["metrics"],
            "trace_checks": traced["record"].get("trace_checks", []),
            "selftest": {"clean_passes": clean, "corrupted_caught": caught},
            "invocations": {"timed": rec["invocations"],
                            "traced": traced["record"]["invocations"]},
        }
    if opts.label:
        path = BENCH / f"BENCH_{opts.label}.json"
        path.write_text(json.dumps(bench, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

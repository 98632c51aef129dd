"""Benchmark of the projconst CLI, driven from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exhaustive, lp, almostmin (see NOTES.md).  The
run builds the workload's inputs from --seed, then runs passes over them
back to back, a closed loop with one client, while the next pass is
expected to end within --seconds.  Each pass is a fresh worker process
that imports projconst from ./src and calls ``projconst.cli.main(argv)``
for every instance in turn, so per-process caches are paid as a CLI user
pays them.  Outputs are checked after the timed passes.

With --trace 0 the last stdout line reports the end-to-end metrics
(medians over the passes); with --trace 1 it reports the per-layer
metrics of traced passes, interleaved with untraced ones so that the
tracing overhead can be given.  A record of each run (machine facts,
per-instance table, stdout digests) is written under .perfbench/results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 7
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "slowest_instance_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def spawn(mode: str, plan: Path, out: Path, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} pass")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, str(plan),
             str(out)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass did not end within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")},
    }


def instance_key(argv: list[str]) -> str:
    """argv with input files replaced by a hash of their content, so the
    same instance has the same key in every run directory."""
    parts = []
    for a in argv:
        p = Path(a)
        parts.append(hashlib.sha256(p.read_bytes()).hexdigest()[:16]
                     if p.is_absolute() and p.is_file() else a)
    return " ".join(parts)


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "projconst").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def compare_digests(table: list[dict]) -> list[str]:
    """Digests that differ between passes of this run, or from earlier runs
    of the same source (kept in .perfbench/digests.json)."""
    registry_path = WORK / "digests.json"
    registry = (json.loads(registry_path.read_text())
                if registry_path.is_file() else {})
    seen = registry.setdefault(source_digest(), {})
    mismatches = []
    for row in table:
        if row["digest"] is None:
            continue
        old = seen.setdefault(row["key"], row["digest"])
        if old != row["digest"]:
            mismatches.append(f"{row['id']} pass {row['pass']}: "
                              f"{row['digest']} != {old}")
    tmp = registry_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1))
    os.replace(tmp, registry_path)
    return mismatches


def run_passes(plan: Path, work: Path, seconds: float, trace: bool,
               deadline: float) -> list[dict]:
    passes = []
    start = time.monotonic()
    while True:
        kind = "traced" if trace and len(passes) % 2 == 0 else "plain"
        t = time.monotonic()
        res = spawn(kind, plan, work / f"pass{len(passes)}.json", deadline)
        res["kind"], res["duration"] = kind, time.monotonic() - t
        passes.append(res)
        typical = statistics.median(p["duration"] for p in passes)
        both_kinds = not trace or len(passes) >= 2
        if both_kinds and time.monotonic() - start + typical > seconds:
            return passes


def tabulate(instances, passes, highs) -> list[dict]:
    by_id = {i.id: i for i in instances}
    keys = {i.id: instance_key(i.argv) for i in instances}
    table = []
    for k, p in enumerate(passes):
        for rec in p["instances"]:
            inst = by_id[rec["id"]]
            if rec["error"] is not None:
                status = f"raised {rec['error']}"
            elif rec["exit"] != 0:
                status = f"exit {rec['exit']}"
            else:
                reason = checks.check(inst, rec["stdout"], highs)
                status = "ok" if reason is None else f"wrong: {reason}"
            out = json.loads(rec["stdout"]) if status == "ok" else {}
            iterations = rec.get("ascent_iterations")
            if iterations is None and inst.argv[0] == "search":
                iterations = out.get("iterations")
            table.append({
                "pass": k, "kind": p["kind"], "id": inst.id,
                "argv": [os.path.relpath(a, ROOT) if Path(a).is_absolute()
                         else a for a in inst.argv],
                "key": keys[inst.id],
                "d": out.get("d", inst.d), "n": inst.n,
                "seconds": rec["seconds"],
                "pivots": rec.get("pivots"),
                "ascent_iterations": iterations,
                "status": status,
                "digest": (hashlib.sha256(rec["stdout"].encode()).hexdigest()
                           if status == "ok" else None),
            })
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S

    if not (ROOT / "src" / "projconst" / "cli.py").is_file():
        print(f"no projconst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    instances = workloads.WORKLOADS[args.workload](args.seed, work)
    plan = work / "plan.json"
    plan.write_text(json.dumps([{"id": i.id, "argv": i.argv}
                                for i in instances]))

    try:
        # The first import compiles the package to bytecode; later imports,
        # like a CLI user's, find it cached.
        spawn("import", plan, work / "import.json", deadline)
        imports = [spawn("import", plan, work / "import.json", deadline)
                   ["import_s"] for _ in range(SETUP_PROBES)]
        passes = run_passes(plan, work, args.seconds, bool(args.trace),
                            deadline)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    highs = checks.reference_values(instances)
    table = tabulate(instances, passes, highs)
    failed = sum(row["status"] != "ok" for row in table)
    mismatches = compare_digests(table)

    plain = [p for p in passes if p["kind"] == "plain"]
    traced = [p for p in passes if p["kind"] == "traced"]
    if args.trace:
        metrics = spans.median_metrics([p["layers"] for p in traced])
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain))
        units = spans.LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "slowest_instance_s": statistics.median(
                max(r["seconds"] for r in p["instances"]) for p in plain),
            "setup_s": statistics.median(
                imports + [p["import_s"] for p in passes]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(), "source": source_digest(),
        "passes": [{k: p[k] for k in ("kind", "duration", "import_s",
                                      "wall_s", "cpu_s", "peak_rss_mb")}
                   for p in passes],
        "setup_probes_s": imports,
        "blowup_d": sorted(row["d"] for row in table if row["pass"] == 0
                           and row["argv"][0] == "almost-min"),
        "fail_ratio": failed / len(table),
        "digest_mismatches": mismatches,
        "metrics": metrics, "instances": table,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    for row in table:
        if row["pass"] == 0 or row["status"] != "ok":
            print(f"{row['id']:40s} d={row['d']:<5} n={row['n']:<3} "
                  f"{row['seconds']:8.4f} s  {row['status']}", file=sys.stderr)
    if record["blowup_d"]:
        print(f"almost-min blow-up d: {record['blowup_d']}", file=sys.stderr)
    for m in mismatches:
        print(f"stdout digest changed: {m}", file=sys.stderr)
    print(f"{len(passes)} passes, fail_ratio {record['fail_ratio']:.4g}, "
          f"record {os.path.relpath(path, ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(table),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

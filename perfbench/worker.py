"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py import|plain|traced PLAN.json OUT.json

Imports projconst and its CLI from the checkout's ``src`` (timed: this is
the set-up a CLI user pays), then calls ``projconst.cli.main(argv)`` for
every instance of the plan, one after another, capturing each call's
stdout.  ``traced`` installs the span wrappers of ``spans.py`` first.
Writes timings, resource use, outputs and per-layer numbers to OUT.json.
Mode ``import`` stops after the timed import.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    mode, plan_path, out_path = argv
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import projconst.cli
    import_s = time.perf_counter() - t0
    if not Path(projconst.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"projconst imported from {projconst.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    result = {"import_s": import_s}
    if mode != "import":
        result.update(run_pass(json.loads(Path(plan_path).read_text()),
                               traced=mode == "traced"))
    Path(out_path).write_text(json.dumps(result))
    return 0


def run_pass(plan: list[dict], traced: bool) -> dict:
    import projconst.cli
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    records, roots = [], []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for inst in plan:
        out = io.StringIO()
        roots.append(len(tracer.spans) if tracer else -1)
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code, error = projconst.cli.main(inst["argv"]), None
        except Exception as exc:  # counted as a failed instance
            code, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"id": inst["id"], "seconds": time.perf_counter() - t,
                        "exit": code, "error": error,
                        "stdout": out.getvalue()})
    wall_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": wall_s,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime
                  + usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "instances": records,
        "layers": None,
    }
    if tracer:
        from spans import instance_counters, layer_metrics
        counters = instance_counters(tracer.spans)
        for rec, root in zip(records, roots):
            rec.update(counters.get(root, {}))
        result["layers"] = layer_metrics(tracer.spans)
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One pass over a job list in a fresh interpreter.

Usage: python3 worker.py JOBS.json RESULT.jsonl [--trace SPANS.json]

Runs the jobs one after another (a closed loop with a single client, no
threads) through ``macrobox.cli.main(argv)`` with stdout and stderr
captured, from the directory that holds the input files.  A calibration
loop runs before the first job and after each one, outside the job's
timing.  RESULT.jsonl gets one line per job (exit code, output, latency)
as it ends, then a summary line (calibration times, the pass's wall time,
the process's peak RSS).  With ``--trace`` the program's public functions
are wrapped first; the per-layer statistics go into the summary line and
the spans into SPANS.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from calibrate import loop_seconds


def run_jobs(jobs: list, sink, tracer=None) -> dict:
    """Run the jobs, writing one JSON line per job to ``sink`` as it ends.

    Outputs leave the process at once, so the peak RSS is the program's,
    not that of outputs piling up in the harness.
    """
    from macrobox import cli

    if tracer is not None:
        tracer.install()
    calibration = [loop_seconds()]
    wall_start = time.perf_counter()
    for index, argv in enumerate(jobs):
        if tracer is not None:
            tracer.start_job(index)
        out, err = io.StringIO(), io.StringIO()
        failure = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            failure = traceback.format_exc()
        seconds = time.perf_counter() - start
        sink.write(json.dumps({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                               "seconds": seconds, "traceback": failure}) + "\n")
        sink.flush()
        calibration.append(loop_seconds())
    wall = time.perf_counter() - wall_start
    return {"wall_s": wall, "calibration": calibration,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv) -> int:
    jobs_path, result_path = argv[0], argv[1]
    spans_path = argv[3] if len(argv) == 4 and argv[2] == "--trace" else None
    with open(jobs_path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
    with open(result_path, "w", encoding="utf-8") as sink:
        summary = run_jobs(jobs, sink, tracer)
        if tracer is not None:
            summary["layers"] = tracer.stats()
            summary["missing_layers"] = tracer.missing
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump({"columns": ["layer", "job", "start", "end", "parent"],
                           "spans": tracer.span_rows()}, handle, separators=(",", ":"))
        sink.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

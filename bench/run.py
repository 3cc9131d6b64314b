"""macrobox benchmark: seeded CLI job streams, timed end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  Each pass runs the workload's
whole job list once, job after job, through ``macrobox.cli.main(argv)`` in
a fresh interpreter (``worker.py``); passes repeat while another one fits
in ``--seconds``.  Outputs are checked outside the timed region
(``checker.py``).  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (cold
interpreter start plus ``import macrobox.cli``, median of several),
``wall_s`` (the job latencies of one pass summed), ``job_p50_ms`` and
``job_p90_ms`` (per-job latency within a pass), ``ok_ratio`` (jobs with the
expected exit code, no traceback and a passing output check, over jobs
attempted) and ``peak_rss_mb`` (``ru_maxrss`` of the pass's process); each
is the median over passes.  Times are in reference seconds, calibrated
against the machine's speed around each timing (``calibrate.py``).  With ``--trace 1`` untraced and traced passes alternate and
the metrics are the per-layer ones of ``layers.py`` plus
``trace.overhead_s``.  Lines before the last one give the sample counts and
the sha256 of the job outputs in job order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_LAUNCH, REFERENCE_LAUNCH_S, speed
from checker import check
from layers import OVERHEAD_METRIC, per_layer_metrics
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
SETUP_SAMPLES = 10
#: Passes and set-up together stop within this many seconds of the start.
HARD_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("MACROBOX_MAX_N", None)
    return env


def measure_setup(env: dict, count: int, warm_up: bool = False) -> list:
    """(raw, calibrated) wall times of ``count`` cold ``import macrobox.cli`` runs.

    Each is scaled by the reference launches just before and after it.
    """
    command = [sys.executable, "-c", "import macrobox.cli"]
    reference = [sys.executable, "-c", REFERENCE_LAUNCH]

    def launch(argv) -> float:
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)
        return time.perf_counter() - start

    if warm_up:
        # Compiles the bytecode once, as an installed package would have it.
        launch(command)
    samples = []
    before = launch(reference)
    for _ in range(count):
        raw = launch(command)
        after = launch(reference)
        samples.append((raw, raw * 2 * REFERENCE_LAUNCH_S / (before + after)))
        before = after
    return samples


def run_pass(work: Path, index: int, traced: bool, env: dict, limit: float):
    """Run the job list once in a fresh interpreter; None if it died."""
    result_path = work / f"result-{index}.jsonl"
    command = [sys.executable, str(BENCH / "worker.py"), str(work / "jobs.json"),
               str(result_path)]
    if traced:
        command += ["--trace", str(work / f"spans-{index}.json")]
    try:
        completed = subprocess.run(command, cwd=work, env=env, timeout=max(1.0, limit),
                                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                   text=True)
    except subprocess.TimeoutExpired:
        print(f"pass {index} timed out", file=sys.stderr)
        return None
    if completed.returncode != 0 or not result_path.exists():
        print(f"pass {index} failed:\n{completed.stderr}", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    if not lines or "wall_s" not in lines[-1]:
        print(f"pass {index} wrote no summary", file=sys.stderr)
        return None
    return {**lines[-1], "jobs": lines[:-1]}


def output_digest(jobs, results) -> str:
    digest = hashlib.sha256()
    for job, result in zip(jobs, results):
        for part in ("\x1f".join(job.argv), str(result["code"]), result["stdout"],
                     result["stderr"]):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x1e")
    return digest.hexdigest()


def judge(jobs, passes) -> tuple:
    """(failed job count, first few problems) over every pass's results."""
    verdicts = {}
    failed = 0
    problems = []
    for results in passes:
        if results is None:
            failed += len(jobs)
            problems.append("a pass produced no results")
            continue
        for index, (job, result) in enumerate(zip(jobs, results["jobs"])):
            if result["traceback"]:
                found = [f"traceback:\n{result['traceback']}"]
            else:
                key = (index, result["code"], result["stdout"])
                found = verdicts.get(key)
                if found is None:
                    found = check(job, result["code"], result["stdout"])
                    verdicts[key] = found
            if found:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"job {index} ({' '.join(job.argv)}): {found[0]}")
    return failed, problems


def pass_times(result) -> dict:
    """A pass's end-to-end times, calibrated job by job, plus its raw wall time."""
    cal = result["calibration"]
    # cal[k] ran just before job k and cal[k + 1] just after it; the median of
    # the six loops around a job damps one-off hiccups in a single loop.
    latencies = [job["seconds"] / speed(statistics.median(cal[max(0, k - 2):k + 4]))
                 for k, job in enumerate(result["jobs"])]
    ms = [v * 1000 for v in latencies]
    return {"wall_s": sum(latencies),
            "raw_wall_s": sum(job["seconds"] for job in result["jobs"]),
            "job_p50_ms": statistics.median(ms),
            "job_p90_ms": statistics.quantiles(ms, n=10)[-1]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # On SIGTERM unwind normally: subprocess.run kills a running pass and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    if not (ROOT / "src" / "macrobox" / "cli.py").is_file():
        print(f"error: no macrobox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    plan = generate(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True, exist_ok=True)
        for name, text in plan.files.items():
            (work / name).write_text(text, encoding="utf-8")
        with open(work / "jobs.json", "w", encoding="utf-8") as handle:
            json.dump([list(job.argv) for job in plan.jobs], handle)
        # Half the cold starts before the passes and half after, so that the
        # median spans the run rather than one moment of it.
        setup_samples = measure_setup(env, SETUP_SAMPLES // 2, warm_up=True)

        untraced, traced = [], []
        measure_start = time.perf_counter()
        index = 0
        last_spans = None
        while True:
            use_trace = bool(args.trace) and len(traced) < len(untraced)
            pass_start = time.perf_counter()
            result = run_pass(work, index, use_trace, env,
                              HARD_LIMIT_S - (pass_start - started))
            (traced if use_trace else untraced).append(result)
            if use_trace and result is not None:
                last_spans = work / f"spans-{index}.json"
            index += 1
            if result is None:
                break
            now = time.perf_counter()
            missing_traced = args.trace and not traced
            if not missing_traced and now - measure_start + (now - pass_start) > args.seconds:
                break
        setup_samples += measure_setup(env, SETUP_SAMPLES - len(setup_samples))
        if last_spans is not None:
            shutil.move(str(last_spans), WORK / f"trace-{args.workload}-seed{args.seed}.json")

        passes = untraced + traced
        failed, problems = judge(plan.jobs, passes)
        attempted = len(plan.jobs) * len(passes)
        complete = [p for p in passes if p is not None]
        digests = {output_digest(plan.jobs, p["jobs"]) for p in complete}
        correct = failed == 0 and len(digests) == 1 and len(complete) == len(passes)
        if len(digests) > 1:
            problems.append("passes produced different output bytes")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [p for p in untraced if p is not None]
    njobs = len(plan.jobs)
    print(f"workload {args.workload} seed {args.seed}: {njobs} jobs per pass, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    print(f"latency samples per pass: {njobs} (p90 has {njobs - int(0.9 * njobs)} beyond)")
    print(f"output sha256: {' '.join(sorted(digests)) or 'none'}")
    print(f"failed_ratio: {failed / max(attempted, 1):.6f} ({failed} of {attempted})")
    for problem in problems:
        print(f"problem: {problem}")

    metrics = {}
    if good:
        times = [pass_times(p) for p in good]
        median_of = lambda key: statistics.median(t[key] for t in times)
        e2e = {
            "setup_s": statistics.median(cal for _, cal in setup_samples),
            "wall_s": median_of("wall_s"),
            "job_p50_ms": median_of("job_p50_ms"),
            "job_p90_ms": median_of("job_p90_ms"),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
        }
        print(f"raw: setup_s {statistics.median(raw for raw, _ in setup_samples):.6g} s, "
              f"wall_s {median_of('raw_wall_s'):.6g} s")
        for name, unit in END_TO_END:
            print(f"{name}: {e2e[name]:.6g} {unit}")
        if not args.trace:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    traced_ok = [p for p in traced if p is not None]
    if args.trace and traced_ok and good:
        for missing in traced_ok[0]["missing_layers"]:
            print(f"warning: layer {missing} not found; reported as 0")
        for name, unit, _ in per_layer_metrics():
            if name == OVERHEAD_METRIC:
                value = (statistics.median(pass_times(p)["wall_s"] for p in traced_ok)
                         - e2e["wall_s"])
            elif name.endswith(".self_s"):
                # Spans are not timed next to a loop; scale by the pass's median one.
                value = statistics.median(
                    p["layers"][name] / speed(statistics.median(p["calibration"]))
                    for p in traced_ok)
            else:
                value = statistics.median(p["layers"][name] for p in traced_ok)
            metrics[name] = {"value": value, "unit": unit}
    if not metrics:
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

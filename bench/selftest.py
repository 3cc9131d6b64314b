"""Self-tests of the benchmark itself (stdlib unittest, no pytest).

Run from the repository root:

    python3 bench/selftest.py

They show that the checker flags a mutated rational and a wrong exit code,
that the generator is reproducible for a seed and never repeats a job,
that traced and untraced passes give the same output digest, and that two
traced passes give identical work counts.  Passes run a cheap subset of
each workload's jobs in fresh interpreters, as the benchmark does.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from checker import check  # noqa: E402
from layers import per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SEED = 3
RATIONAL = re.compile(r"(?<![\w:/.])(-?\d+)/(\d+)(?![\w/])")


def cheap(job) -> bool:
    """Jobs that take milliseconds, so a self-test pass stays short."""
    if job.command == "jpd" and job.params["kind"] == "general":
        return False
    if job.command in ("verify", "distribution"):
        return job.n <= 2
    if job.command == "moments" and job.params["k"] is None:
        return job.n > 8
    if job.command == "gisin":
        return job.n > 24
    return True


def subset_plan():
    """Up to 25 cheap jobs of each workload plus every expected failure,
    with the files they need."""
    jobs, files = [], {}
    for workload in WORKLOADS:
        plan = generate(workload, SEED)
        picked = ([job for job in plan.jobs if job.expect_code]
                  + [job for job in plan.jobs if cheap(job) and not job.expect_code][:25])
        for job in picked:
            spec = job.argv[job.argv.index("--box") + 1]
            if spec.startswith("file:"):
                name = f"{workload}-{spec[5:]}"
                files[name] = plan.files[spec[5:]]
                job.argv = tuple(f"file:{name}" if a == spec else a for a in job.argv)
        jobs += picked
    return jobs, files


class GeneratorTest(unittest.TestCase):
    def test_reproducible_for_a_seed(self):
        for workload in WORKLOADS:
            first, second = generate(workload, 11), generate(workload, 11)
            self.assertEqual([j.argv for j in first.jobs], [j.argv for j in second.jobs])
            self.assertEqual(first.files, second.files)
            other = generate(workload, 12)
            self.assertNotEqual([j.argv for j in first.jobs], [j.argv for j in other.jobs])

    def test_jobs_are_unique_and_numerous(self):
        for workload in WORKLOADS:
            plan = generate(workload, SEED)
            self.assertGreaterEqual(len(plan.jobs), 100, workload)
            keys = set()
            for job in plan.jobs:
                model = (tuple(sorted(job.box.items())) if job.box is not None
                         else json.dumps(sorted((str(k), str(v)) for k, v in job.joint.items())))
                keys.add((job.command, job.n, model, job.fmt,
                          tuple(sorted(job.params.items()))))
            self.assertEqual(len(keys), len(plan.jobs), workload)

    def test_jpd_symmetrize_shape(self):
        jobs = generate("jpd-symmetrize", SEED).jobs
        general = [j for j in jobs if j.command == "jpd" and j.params["kind"] == "general"]
        self.assertGreaterEqual(10 * len(general), len(jobs))
        share_json = sum(j.fmt == "json" for j in jobs) / len(jobs)
        self.assertTrue(0.4 <= share_json <= 0.6, share_json)

    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         per_layer_metrics())


class PassesTest(unittest.TestCase):
    """One untraced and two traced passes over the same cheap job subset."""

    @classmethod
    def setUpClass(cls):
        cls.jobs, files = subset_plan()
        cls.work = run.WORK / f"selftest-{os.getpid()}"
        cls.work.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (cls.work / name).write_text(text, encoding="utf-8")
        (cls.work / "jobs.json").write_text(json.dumps([list(j.argv) for j in cls.jobs]))
        env = run.child_env()
        cls.plain = run.run_pass(cls.work, 0, False, env, 120)
        cls.traced = [run.run_pass(cls.work, k, True, env, 120) for k in (1, 2)]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def test_all_jobs_pass_the_checker(self):
        failed, problems = run.judge(self.jobs, [self.plain] + self.traced)
        self.assertEqual(failed, 0, problems)

    def test_traced_and_untraced_digests_match(self):
        digests = {run.output_digest(self.jobs, p["jobs"]) for p in [self.plain] + self.traced}
        self.assertEqual(len(digests), 1)

    def test_traced_counts_repeat_exactly(self):
        first, second = (p["layers"] for p in self.traced)
        counted = [name for name in first if not name.endswith(".self_s")]
        self.assertTrue(counted)
        self.assertEqual({n: first[n] for n in counted}, {n: second[n] for n in counted})
        self.assertGreater(first["ensemble.marginal.calls"], 0)
        self.assertEqual(self.traced[0]["missing_layers"], [])

    def test_checker_flags_a_mutated_rational(self):
        rng = random.Random(SEED)
        mutated = 0
        for job, result in zip(self.jobs, self.plain["jobs"]):
            matches = list(RATIONAL.finditer(result["stdout"]))
            if job.command == "verify" or not matches:
                continue
            match = rng.choice(matches)
            numerator = int(match.group(1)) + 1
            out = (result["stdout"][:match.start()] + f"{numerator}/{match.group(2)}"
                   + result["stdout"][match.end():])
            self.assertTrue(check(job, result["code"], out), (job.argv, match.group(0)))
            mutated += 1
        self.assertGreater(mutated, 30)

    def test_checker_flags_a_wrong_exit_code(self):
        expected_failures = 0
        for job, result in zip(self.jobs, self.plain["jobs"]):
            self.assertTrue(check(job, 1 - result["code"], result["stdout"]), job.argv)
            expected_failures += job.expect_code == 1
        self.assertGreater(expected_failures, 0)


class EmptyCheckoutTest(unittest.TestCase):
    def test_fails_without_program_sources(self):
        root = run.WORK / f"empty-{os.getpid()}"
        try:
            shutil.copytree(run.BENCH, root / "bench",
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", root)
            completed = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn('"correct"', completed.stdout)


if __name__ == "__main__":
    unittest.main()

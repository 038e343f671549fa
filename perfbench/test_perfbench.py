#!/usr/bin/env python3
"""Self-test of perfbench. Run from the repository root:

    python3 perfbench/test_perfbench.py

It builds the driver if needed and runs one workload of three (a subset
of the benchmark's jobs) at its minimum job count on the held-out seed,
so it takes about two minutes once built.
"""

import copy
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

DECLARED = run.load_declared()
DOCS = run.load_docs()
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
END_TO_END = [m["name"] for m in DECLARED["end_to_end"]]
PER_LAYER = [m["name"] for m in DECLARED["per_layer"]]
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# The workload with the cheapest jobs.
SUBSET_WORKLOAD = "tight-nomad"


def run_bench(trace):
    """One benchmark invocation on the held-out seed; its result line."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
         SUBSET_WORKLOAD, "--seed", str(DOCS["seeds"]["held_out"]),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Declarations(unittest.TestCase):
    def test_names_are_well_formed(self):
        for name in WORKLOADS + END_TO_END + PER_LAYER:
            self.assertRegex(name, NAME_RE)
        self.assertEqual(len(set(END_TO_END + PER_LAYER)),
                         len(END_TO_END) + len(PER_LAYER))

    def test_every_metric_is_documented(self):
        documented = set(DOCS["metrics"]) - {"failed_frac"}
        self.assertEqual(documented, set(END_TO_END + PER_LAYER))
        self.assertEqual(set(DOCS["workloads"]), set(WORKLOADS))
        for name, doc in DOCS["metrics"].items():
            self.assertTrue(doc["layer"] and doc["definition"], name)

    def test_symbols_map_by_their_own_class(self):
        cases = {
            "nomad::Core::tryIssuePending()": "cpu",
            "non-virtual thunk to nomad::Core::idle() const": "cpu",
            "void nomad::InlineFn<void (unsigned long)>::manageInline<"
            "nomad::Core::tryIssuePending()::{lambda(unsigned long)#1}>("
            "void*, void*, nomad::InlineFn<void (unsigned long)>::Op)":
                "other",
            "nomad::Simulation::addClocked<nomad::Core>(nomad::Core*, "
            "unsigned long, unsigned long)::{lambda(void const*)#3}::"
            "_FUN(void const*)": "sim",
            "std::deque<nomad::DramChannel::QEntry, std::allocator<"
            "nomad::DramChannel::QEntry> >::_M_erase(int)": "other",
            "nomad::DramChannel::enqueue(nomad::MemRequestPtr const&, "
            "nomad::DramCoord const&)": "dram",
            "nomad::TieringFrontEnd::firstPte(unsigned long)": "tiering",
            "nomad::NomadBackEnd::tick()": "dramcache_be",
            "nomad::OsFrontEnd::handleMiss(int)": "dramcache_fe",
            "nomad::Tlb::lookup(unsigned long)": "vm",
            "nomad::SyntheticGenerator::next()": "workload",
        }
        for symbol, module in cases.items():
            self.assertEqual(run.module_of(symbol), module, symbol)
        self.assertEqual(run.qualified_name(
            "nomad::SramCache::tryAccess(nomad::MemRequestPtr const&)"),
            "nomad::SramCache::tryAccess")


class SubsetRun(unittest.TestCase):
    """One workload at its minimum job count: every declared metric is
    printed, and results are keyed by job label."""

    @classmethod
    def setUpClass(cls):
        cls.untraced = run_bench(trace=0)
        cls.traced = run_bench(trace=1)

    def check_result(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, value in result["metrics"].items():
            self.assertEqual(value["unit"], units[name])
            self.assertIsInstance(value["value"], (int, float))

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_result(self.untraced, DECLARED["end_to_end"])
        for name in END_TO_END:
            self.assertGreater(self.untraced["metrics"][name]["value"], 0)

    def test_per_layer_metrics_printed_with_units(self):
        self.check_result(self.traced, DECLARED["per_layer"])
        shares = [v["value"] for k, v in self.traced["metrics"].items()
                  if k.startswith("host.")]
        self.assertAlmostEqual(sum(shares), 1.0, places=6)


class OutputChecks(unittest.TestCase):
    """A deliberately corrupted job result trips the checks."""

    @classmethod
    def setUpClass(cls):
        driver = run.build_all()["release"]
        workdir = run.fresh_dir(run.BUILD_ROOT / "selftest")
        # The minimum job count: every input once, then the first again.
        _, cls.jobs, _ = run.run_driver(
            driver, SUBSET_WORKLOAD, DOCS["seeds"]["held_out"], seconds=0,
            cwd=workdir)
        # The last job repeats an earlier input; corrupting it must fail
        # it alone.
        cls.repeat = len(cls.jobs) - 1

    def failures_after(self, corrupt, index):
        jobs = copy.deepcopy(self.jobs)
        corrupt(jobs[index])
        return run.check_jobs(jobs)

    def assert_only_corrupted_fails(self, corrupt):
        failures = self.failures_after(corrupt, self.repeat)
        for i, job in enumerate(self.jobs):
            self.assertEqual(bool(failures[job["label"]]), i == self.repeat,
                             failures)

    def test_clean_jobs_pass(self):
        labels = {j["label"] for j in self.jobs}
        self.assertEqual(len(labels), len(self.jobs))
        self.assertIn(self.jobs[self.repeat]["seed"],
                      [j["seed"] for j in self.jobs[:self.repeat]])
        self.assertFalse(any(run.check_jobs(self.jobs).values()))

    def test_cas_identity_holds_exactly(self):
        # check_job tolerates up to one full write queue per channel of
        # posted writes across the window edges; on these jobs none is
        # used, so any residual at all shows the slack being consumed.
        for job in self.jobs:
            for dev in ("hbm", "ddr"):
                self.assertEqual(
                    run.cas_residual(job["stats"]["stats"][dev]), 0,
                    f"{job['label']} {dev}")

    def test_row_counter_drift(self):
        def corrupt(job):
            job["stats"]["stats"]["hbm"]["rowHits"]["value"] += \
                job["write_queue_slots"]["hbm"] + 1
        failures = self.failures_after(corrupt, 0)
        self.assertTrue(any("write-queue slots" in p for p in
                            failures[self.jobs[0]["label"]]))

    def test_traffic_bytes_drift(self):
        def corrupt(job):
            job["stats"]["stats"]["ddr"]["bytesRead"]["value"] += 64
        self.assert_only_corrupted_fails(corrupt)

    def test_short_retirement(self):
        def corrupt(job):
            job["stats"]["stats"]["cpu2"]["instructions"]["value"] -= 1
        self.assert_only_corrupted_fails(corrupt)

    def test_stalls_exceed_cycles(self):
        def corrupt(job):
            cpu = job["stats"]["stats"]["cpu0"]
            cpu["stallMem"]["value"] = cpu["cycles"]["value"] + 1
        self.assert_only_corrupted_fails(corrupt)

    def test_repetition_differs(self):
        def corrupt(job):
            job["stats"]["results"]["ipc"] *= 1.0 + 1e-9
        self.assert_only_corrupted_fails(corrupt)

    def test_thrown_error(self):
        def corrupt(job):
            job["error"], job["stats"] = "watchdog", None
        self.assert_only_corrupted_fails(corrupt)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the NOMAD simulator.

Run from the repository root:

    python3 perfbench/run.py --workload excess-nomad --seed 1 \
        --seconds 30 --trace 0

It builds perfbench_driver from ../src twice under .bench_build/perfbench
(a release build and a gprof build), runs the workload's jobs for the
given number of seconds, checks every job's outputs, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics. perfbench/README.md describes both, and
perfbench/metrics.json documents every metric and the seeds.
"""

import argparse
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build" / "perfbench"

# The release build uses the repository's default build type; the gprof
# build passes the flags CI's profile step passes on the cmake line.
BUILDS = {
    "release": [],
    "gprof": ["-DCMAKE_CXX_FLAGS=-O2 -g -pg",
              "-DCMAKE_EXE_LINKER_FLAGS=-pg"],
}

# How far a driver process may overrun its time budget before the run
# is abandoned. The longest job, farlink-tiering under gprof, takes about
# 10 s on a 4-vCPU x86 host.
DRIVER_TIMEOUT_S = 150

# gprof symbols map to modules by the class in the function's own
# qualified name (template arguments and parameter lists removed).
CLASS_MODULES = {
    "DramChannel": "dram", "DramDevice": "dram",
    "SramCache": "cache",
    "Core": "cpu",
    "Simulation": "sim", "EventQueue": "sim",
    "Tlb": "vm", "PageTable": "vm",
    "SyntheticGenerator": "workload",
    "OsFrontEnd": "dramcache_fe", "NomadScheme": "dramcache_fe",
    "NomadBackEnd": "dramcache_be", "CopyTransaction": "dramcache_be",
    "MigrationEngine": "tiering", "FarTierLink": "tiering",
}
MODULES = ["dram", "dramcache_be", "dramcache_fe", "cpu", "cache", "sim",
           "vm", "workload", "tiering"]

# Functions whose gprof call counts are reported per 1000 simulated
# instructions. A count is comparable only while the function stays out
# of line (inlining removes it from the profile).
CALL_COUNTS = {
    "calls.dram_enqueue_per_kinstr": "nomad::DramChannel::enqueue",
    "calls.backend_tick_per_kinstr": "nomad::NomadBackEnd::tick",
    "calls.core_try_issue_per_kinstr": "nomad::Core::tryIssuePending",
    "calls.sram_try_access_per_kinstr": "nomad::SramCache::tryAccess",
    "calls.sim_fire_per_kinstr": "nomad::Simulation::firePhase",
}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_declared():
    """BENCHMARK.json (names, units, directions, bounds)."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_docs():
    """perfbench/metrics.json (layers, predictions, seeds)."""
    with open(BENCH_DIR / "metrics.json") as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Build


def build(name):
    """Configure (once) and build one driver configuration."""
    build_dir = BUILD_ROOT / name
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + BUILDS[name])
    steps.append(["cmake", "--build", str(build_dir), "--parallel", "4",
                  "--target", "perfbench_driver"])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(proc.stderr[-4000:])
            if cmd[1] == "-S":
                # A failed configure leaves a cache that would skip the
                # next attempt's configure step.
                shutil.rmtree(build_dir, ignore_errors=True)
            raise BenchError(f"{name} build failed: {' '.join(cmd)}")
    return build_dir / "perfbench_driver"


def build_all():
    """Both configurations, so that only a checkout's first run builds."""
    return {name: build(name) for name in BUILDS}


# --------------------------------------------------------------------------
# Running the driver


def run_driver(driver, workload, seed, seconds, cwd):
    """Run one driver process; returns (setup samples, jobs, end)."""
    cmd = [str(driver), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                              timeout=seconds + DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"driver timed out: {' '.join(cmd)}") from e
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError(f"driver exited {proc.returncode}")
    setup, jobs, end = None, [], None
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        if "setup" in rec:
            setup = rec["setup"]["seconds"]
        elif "job" in rec:
            jobs.append(rec)
        elif "end" in rec:
            end = rec["end"]
    if setup is None or end is None or not jobs:
        raise BenchError("driver output is incomplete")
    return setup, jobs, end


# --------------------------------------------------------------------------
# Output checks


def leaf(stats, path):
    """The value of one stats-JSON leaf, by dotted path."""
    node = stats
    for part in path.split("."):
        node = node[part]
    if node["kind"] in ("scalar", "lambda"):
        return node["value"]
    return node


def core_names(stats):
    return sorted(k for k in stats if re.fullmatch(r"cpu\d+", k))


def cas_residual(device):
    """readReqs + writeReqs minus the requests that were serviced.

    A forwarded read or a merged write is a serviced request that never
    issues a CAS; every other request issues exactly one. A read counts
    at its CAS or forward, but a posted write counts when accepted and
    issues its CAS later, so writes still queued when the stats reset
    after warm-up (negative) or when the window ends (positive) are the
    only residual.
    """
    cas = sum(leaf(device, k) for k in ("rowHits", "rowMisses",
                                        "rowConflicts"))
    uncas = leaf(device, "forwards") + leaf(device, "mergedWrites")
    return leaf(device, "readReqs") + leaf(device, "writeReqs") - cas - uncas


def check_job(job, reference):
    """All output checks of one job; returns a list of failures.

    @p reference is the run's first job on the same input seed: every
    simulated stat of every repetition must equal it.
    """
    if job.get("error"):
        return [f"error: {job['error']}"]
    record = job["stats"]
    stats, results = record["stats"], record["results"]
    problems = []
    cores = core_names(stats)
    if len(cores) != job["cores"]:
        problems.append(f"{len(cores)} cores in stats, expected "
                        f"{job['cores']}")
    for c in cores:
        retired = leaf(stats, f"{c}.instructions")
        if retired < job["instr_per_core"]:
            problems.append(f"{c} retired {retired} of "
                            f"{job['instr_per_core']}")
        stalls = sum(leaf(stats, f"{c}.{k}")
                     for k in ("stallMem", "stallHandler", "stallWalk"))
        if stalls > leaf(stats, f"{c}.cycles"):
            problems.append(f"{c} stall cycles {stalls} exceed cycles")
    for dev in ("hbm", "ddr"):
        d = stats[dev]
        moved = leaf(d, "bytesRead") + leaf(d, "bytesWritten")
        by_kind = sum(leaf(d, f"bytes.{k}") for k in
                      ("demand", "fill", "writeback", "metadata",
                       "pagewalk"))
        if moved != by_kind:
            problems.append(f"{dev} bytes read+written {moved} != "
                            f"per-category sum {by_kind}")
        residual = cas_residual(d)
        slots = job["write_queue_slots"][dev]
        if abs(residual) > slots:
            problems.append(f"{dev} requests minus CAS, forwards and "
                            f"merged writes is {residual}: more than "
                            f"the {slots} write-queue slots")
    for key, exported in (("ipc", results["ipc"]),
                          ("dc_read_latency", results["dc_read_latency"])):
        if not math.isclose(job[key], exported, rel_tol=1e-12):
            problems.append(f"collect() {key} {job[key]} != exported "
                            f"{exported}")
    if reference is not job and record != reference["stats"]:
        problems.append("simulated stats differ from "
                        f"{reference['label']}")
    return problems


def first_per_input(jobs):
    """{input seed: the first job that ran it}."""
    firsts = {}
    for job in jobs:
        firsts.setdefault(job["seed"], job)
    return firsts


def check_jobs(jobs):
    """Checks every job; returns {label: failures}."""
    firsts = first_per_input(jobs)
    return {job["label"]: check_job(job, firsts[job["seed"]])
            for job in jobs}


def input_mean(jobs, metrics_of):
    """Mean over the run's input seeds of metrics_of(stats record).
    Jobs that failed contribute nothing; their failure is counted."""
    per_input = [metrics_of(j["stats"]) for j in
                 first_per_input(jobs).values() if j["stats"]]
    if not per_input:
        raise BenchError("no job produced stats")
    return {k: statistics.fmean(m[k] for m in per_input)
            for k in per_input[0]}


# --------------------------------------------------------------------------
# Metrics


def job_seconds(job):
    """Construction to end of stats export."""
    spans = {s["name"]: s for s in job["spans"]}
    return spans["system.export"]["end"] - spans["system.construct"]["start"]


def mips(jobs):
    """Simulated instructions per host second over the jobs that ran to
    completion."""
    done = [j for j in jobs if j["stats"]]
    if not done:
        raise BenchError("no job ran to completion")
    return (sum(j["instructions"] for j in done) /
            sum(job_seconds(j) for j in done) / 1e6)


def span_medians(jobs):
    out = {}
    for name in ("system.construct", "system.warmup", "system.measured",
                 "system.export"):
        out[name + "_s"] = statistics.median(
            s["end"] - s["start"] for j in jobs for s in j["spans"]
            if s["name"] == name)
    return out


def ratio(num, den):
    return num / den if den else 0.0


def stats_metrics(record):
    """Per-layer metrics computed from one job's stats JSON."""
    stats, results = record["stats"], record["results"]
    cores = core_names(stats)

    def core_sum(path):
        return sum(leaf(stats, f"{c}.{path}") for c in cores)

    def mean_of(paths):
        total = sum(leaf(stats, p)["sum"] for p in paths)
        return ratio(total, sum(leaf(stats, p)["count"] for p in paths))

    def dev_gbs(dev):
        moved = leaf(stats, f"{dev}.bytesRead") + \
            leaf(stats, f"{dev}.bytesWritten")
        return ratio(moved, results["seconds"]) / 2**30

    kinstr = core_sum("instructions") / 1000.0
    cycles = core_sum("cycles")
    l1_accepts = sum(core_sum(f"l1.{k}")
                     for k in ("hits", "misses", "missesMerged"))
    tlb_lookups = sum(core_sum(f"tlb.{k}")
                      for k in ("l1Hits", "l2Hits", "misses"))
    nomad = stats.get("nomad", {})
    backends = [f"nomad.{b}" for b in sorted(nomad)
                if re.fullmatch(r"be\d+", b)]
    be_sum = lambda k: sum(leaf(stats, f"{b}.{k}") for b in backends)
    return {
        "dram.hbm.read_latency_ticks": mean_of(["hbm.readLatency"]),
        "dram.ddr.read_latency_ticks": mean_of(["ddr.readLatency"]),
        "dram.hbm.row_hit_rate": results["hbm_row_hit_rate"],
        "dram.hbm_gbs": dev_gbs("hbm"),
        "dram.ddr_gbs": dev_gbs("ddr"),
        "be.buffer_hit_rate": results["buffer_hit_rate"],
        "be.data_miss_rate": results["data_miss_rate"],
        "be.sub_entry_rejects_per_data_miss":
            ratio(be_sum("subEntryRejects"), be_sum("dataMisses")),
        "be.fill_latency_ticks":
            mean_of([f"{b}.fillLatency" for b in backends]),
        "be.interface_wait_ticks":
            mean_of([f"{b}.interfaceWait" for b in backends]),
        "fe.tag_misses_per_kinstr":
            ratio(leaf(stats, "nomad.fe.tagMisses") if "fe" in nomad
                  else 0, kinstr),
        "fe.tag_mgmt_latency_ticks": results["tag_mgmt_latency"],
        "cpu.stall_mem_ratio": ratio(core_sum("stallMem"), cycles),
        "cpu.stall_handler_ratio": ratio(core_sum("stallHandler"), cycles),
        "cpu.stall_walk_ratio": ratio(core_sum("stallWalk"), cycles),
        "cache.l1.rejects_per_accept":
            ratio(core_sum("l1.rejects"), l1_accepts),
        "cache.l3.mpki": ratio(leaf(stats, "l3.misses"), kinstr),
        "cache.l3.miss_latency_ticks": mean_of(["l3.missLatency"]),
        "vm.tlb_miss_rate": ratio(core_sum("tlb.misses"), tlb_lookups),
        "vm.walks_per_kinstr": ratio(core_sum("walks"), kinstr),
        "tier.promotions": results.get("promotions", 0),
        "tier.migration_aborts": results.get("migration_aborts", 0),
        "tier.near_read_p99_ticks": results.get("near_read_p99", 0),
        "tier.far_read_p99_ticks": results.get("far_read_p99", 0),
    }


# --------------------------------------------------------------------------
# gprof


def strip_nested(text, open_ch, close_ch):
    out, depth = [], 0
    for ch in text:
        if ch == open_ch:
            depth += 1
        elif ch == close_ch and depth:
            depth -= 1
        elif not depth:
            out.append(ch)
    return "".join(out)


def qualified_name(symbol):
    """A demangled symbol's own qualified name, e.g.
    'void nomad::InlineFn<void ()>::invoke<nomad::Core::f()::{lambda()#1}>
    (void*)' -> 'nomad::InlineFn::invoke'."""
    s = re.sub(r"^(non-virtual |virtual |covariant return )?thunk to ",
               "", symbol)
    s = s.replace("operator()", "operator_call")
    s = re.sub(r"operator(<<|>>|<=|>=|<|>|->)", "operator_op", s)
    s = strip_nested(s, "<", ">")
    s = strip_nested(s, "(", ")")
    s = re.sub(r"\s+(const|volatile)\b", "", s).strip()
    # Templates print their return type first; the name is the last
    # whitespace-separated token.
    return s.split()[-1] if s else s


def module_of(symbol):
    for part in qualified_name(symbol).split("::"):
        if part in CLASS_MODULES:
            return CLASS_MODULES[part]
        if part.startswith("Tiering"):
            return "tiering"
    return "other"


FLAT_RE = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+"
                     r"(?:(\d+)\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")


def parse_flat_profile(text):
    """[(self seconds, calls or None, demangled name)] of gprof -b -p."""
    rows = []
    for line in text.splitlines():
        m = FLAT_RE.match(line)
        if m:
            calls = int(m.group(2)) if m.group(2) else None
            rows.append((float(m.group(1)), calls, m.group(3).strip()))
    return rows


def profile_metrics(rows, instructions):
    """Host self-time shares per module and call counts per kinstr."""
    total = sum(r[0] for r in rows)
    if total <= 0:
        raise BenchError("gprof recorded no samples")
    shares = {m: 0.0 for m in MODULES + ["other"]}
    for self_s, _, name in rows:
        shares[module_of(name)] += self_s
    out = {f"host.{m}_share": s / total for m, s in shares.items()}
    kinstr = instructions / 1000.0
    for metric, fn in CALL_COUNTS.items():
        calls = sum(c or 0 for _, c, name in rows
                    if qualified_name(name) == fn)
        out[metric] = calls / kinstr
    return out


def run_gprof(driver, workdir):
    proc = subprocess.run(["gprof", "-b", "-p", str(driver),
                           str(workdir / "gmon.out")],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        log(proc.stderr[-2000:])
        raise BenchError("gprof failed")
    return parse_flat_profile(proc.stdout)


# --------------------------------------------------------------------------
# Runs


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def untraced_run(workload, seed, seconds):
    driver = build_all()["release"]
    setup, jobs, end = run_driver(driver, workload, seed, seconds,
                                  cwd=fresh_dir(BUILD_ROOT / "run-release"))
    metrics = {
        "mips": mips(jobs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": end["peak_rss_kb"] / 1024.0,
    }
    metrics.update(input_mean(jobs, lambda r: {
        "sim_ipc": r["results"]["ipc"],
        "sim_dc_read_ticks": r["results"]["dc_read_latency"],
    }))
    return jobs, metrics


def traced_run(workload, seed, seconds):
    """One third of the time untraced, two thirds under gprof; each part
    runs every input seed at least once, and the gprof jobs must repeat
    the untraced ones' simulated stats exactly."""
    drivers = build_all()
    release, gprof = drivers["release"], drivers["gprof"]
    untraced_s = max(1, seconds // 3)
    _, plain, _ = run_driver(release, workload, seed, untraced_s,
                             cwd=fresh_dir(BUILD_ROOT / "run-release"))
    workdir = fresh_dir(BUILD_ROOT / "run-gprof")
    _, traced, _ = run_driver(gprof, workload, seed,
                              max(1, seconds - untraced_s), cwd=workdir)
    jobs = plain + traced
    for j in traced:
        j["label"] += "/gprof"
    untraced_mips, traced_mips = mips(plain), mips(traced)
    metrics = span_medians(plain)
    metrics.update(profile_metrics(run_gprof(gprof, workdir),
                                   sum(j["instructions"] for j in traced)))
    metrics.update(input_mean(jobs, stats_metrics))
    metrics["trace.untraced_mips"] = untraced_mips
    metrics["trace.traced_mips"] = traced_mips
    metrics["trace.overhead_frac"] = untraced_mips / traced_mips - 1.0
    write_spans(workload, seed, jobs)
    return jobs, metrics


def write_spans(workload, seed, jobs):
    """The benchmark's own spans, one job id per job."""
    out = BUILD_ROOT / "traces" / f"{workload}-seed{seed}.spans.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    spans = [dict(s, job=j["label"]) for j in jobs for s in j["spans"]]
    out.write_text(json.dumps({"spans": spans}, indent=1) + "\n")


def report(jobs, metrics, declared):
    """Prints the summary and, last, the result line."""
    failures = check_jobs(jobs)
    failed = sum(1 for f in failures.values() if f)
    for label, problems in failures.items():
        for p in problems:
            log(f"CHECK FAILED {label}: {p}")
    units = {m["name"]: m["unit"] for m in declared}
    missing = [n for n in units if n not in metrics]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    print(f"jobs {len(jobs)}  failed {failed}  "
          f"failed_frac {failed / len(jobs):.4f} fraction")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in units.items()},
    }
    print(json.dumps(result))


def main():
    declared = load_declared()
    workloads = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int,
                    default=load_docs()["seeds"]["default"])
    ap.add_argument("--seconds", type=int,
                    default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if args.trace:
            jobs, metrics = traced_run(args.workload, args.seed,
                                       args.seconds)
            report(jobs, metrics, declared["per_layer"])
        else:
            jobs, metrics = untraced_run(args.workload, args.seed,
                                         args.seconds)
            report(jobs, metrics, declared["end_to_end"])
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)


if __name__ == "__main__":
    main()

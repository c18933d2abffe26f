#!/usr/bin/env python3
"""soefair benchmark: end-to-end and per-layer metrics of the simulator.

Run from the repository root:

    python3 perfbench/run.py --workload soe_miss_bound --seed 1 \\
        --seconds 30 --trace 0

Without --workload it runs every workload in turn.

It builds the simulator and the perfbench probe from source into
.bench_build/perfbench (first run only), runs one workload as a closed
loop for --seconds, checks every simulated output, and prints one JSON
object as the last line of stdout. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics and writes the run record to
.bench_build/perfbench/records/. Workloads, metrics and layers are
described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROBE = os.path.join(BUILD, "perfbench")
CLI = os.path.join(BUILD, "soefair", "tools", "soefair_cli")

DEFAULT_SEED = 1
# Seed kept out of tuning: re-check any claimed gain on it.
HELD_OUT_SEED = 7919

# SOE workloads: one pair under FairnessPolicy at F = 0.5.
SOE_PAIRS = {"soe_miss_bound": "mcf:swim", "soe_compute_bound": "gcc:eon"}
TARGET_F = 0.5

# The paper's campaign (the CLI's default 16 pairs x F in {0, 1/4,
# 1/2, 1}, 87 jobs) at a fixed reduced scale.
CAMPAIGN_SCALE = "0.1"
CAMPAIGN_ROWS = 64
MAX_JOB_SLOTS = 4

# Paper Fig. 6 average SOE speedup over single thread (%) per F, and
# Fig. 7 average throughput loss versus F = 0 (%).
PAPER_SPEEDUP_PCT = {0.0: 24.0, 0.25: 21.0, 0.5: 19.0, 1.0: 15.0}
PAPER_LOSS_PCT = {0.25: 2.2, 0.5: 3.7, 1.0: 7.2}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_minstr_per_s": "Minstr/s",
    "peak_rss_mb": "MB",
    "fairness_attainment": "ratio",
    "paper_err_pp": "pp",
}

PER_LAYER = {
    "workload.gen_ns_per_op": "ns",
    "workload.ops_generated": "count",
    "mem.warm_ns_per_access": "ns",
    "mem.l1d_miss_rate": "ratio",
    "mem.l2_miss_rate": "ratio",
    "mem.l2_mpki": "1/kinstr",
    "mem.mshr_full_retries": "count",
    "mem.bus_queued_cycles": "cycles",
    "mem.dtlb_walks": "count",
    "harness.warm_s": "s",
    "harness.step_s": "s",
    "harness.step_ns_per_cycle": "ns",
    "harness.step_ns_per_instr": "ns",
    "harness.ff_skip_frac": "ratio",
    "harness.ff_jumps": "count",
    "cpu.ipc": "instr/cycle",
    "cpu.retired_ops": "count",
    "cpu.squash_ratio": "ratio",
    "cpu.bpred_mispredict_rate": "ratio",
    "cpu.head_miss_stall_frac": "ratio",
    "cpu.fetch_icache_stall_frac": "ratio",
    "cpu.fetch_branch_stall_frac": "ratio",
    "cpu.storebuf_retries": "count",
    "soe.switches_miss": "count",
    "soe.switches_forced": "count",
    "soe.switches_quota": "count",
    "soe.switch_latency_cycles": "cycles",
    "soe.instrs_per_switch": "instr",
    "soe.samples": "count",
    "soe.degraded_windows": "count",
    "core.recompute_us": "us",
    "core.recompute_calls": "count",
    "sweep.jobs": "count",
    "sweep.st_jobs": "count",
    "sweep.soe_jobs": "count",
    "sweep.job_s_sum": "s",
    "sweep.job_s_max": "s",
    "sweep.st_job_s_sum": "s",
    "sweep.soe_job_s_sum_F0": "s",
    "sweep.soe_job_s_sum_F0.25": "s",
    "sweep.soe_job_s_sum_F0.5": "s",
    "sweep.soe_job_s_sum_F1": "s",
    "sweep.parallel_efficiency": "ratio",
    "sweep.overhead_s": "s",
    "sweep.journal_bytes": "bytes",
    "sweep.aggregate_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then bring the probe and the CLI up to date."""
    for need in ("CMakeLists.txt", "src",
                 os.path.join("tools", "soefair_cli.cc")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found: run from a soefair checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "soefair_cli",
           "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def cmake_cache():
    out = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                out[key.split(":")[0]] = value
    return out


def fingerprint():
    """How the timed binaries were built; refuse audit/debug/sanitizer."""
    probe = json.loads(subprocess.run([PROBE, "fingerprint"], check=True,
                                      capture_output=True, text=True).stdout)
    cache = cmake_cache()
    fp = {
        "compiler": (cache.get("CMAKE_CXX_COMPILER", "") + " "
                     + probe["compiler"]),
        "build_type": probe["build_type"],
        "soefair_audit": bool(probe["audit"]),
        "sanitizers": cache.get("SOEFAIR_SANITIZE", "")
        or ",".join(s for s in ("asan", "tsan", "ubsan") if probe[s]),
        "nproc": nproc(),
    }
    if (fp["build_type"] == "Debug" or not probe["optimized"]
            or fp["soefair_audit"] or fp["sanitizers"]):
        raise BenchError(f"refusing to time this build: {fp}")
    return fp


def run_child(cmd, env=None, stderr=None):
    """Run cmd to completion; return (rc, stdout, rusage of its tree)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=stderr, text=True)
    try:
        out = proc.stdout.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return proc.returncode, out, usage


def wall_summary(samples):
    """Median, and the highest percentile with ten samples beyond it
    when that percentile lies above the median."""
    ordered = sorted(samples)
    n = len(ordered)
    line = f"wall_s: n={n} median={med(ordered):.6g}"
    if n > 20:
        line += f" p{100 * (n - 10) // n}={ordered[n - 11]:.6g}"
    return line


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def med(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


# --- SOE workloads ------------------------------------------------------


def soe_probe(pair, seed, seconds, trace):
    rc, out, usage = run_child(
        [PROBE, "soe", pair, str(seed), str(seconds), "1" if trace else "0"])
    if rc != 0:
        raise BenchError(f"perfbench soe {pair} exited {rc}")
    return json.loads(out), usage


def check_soe_ops(ops):
    """Every op must finish and repeat its input's first output exactly."""
    first, failed = {}, 0
    for op in ops:
        want = first.setdefault(op["input"], op["digest"])
        if op["timed_out"] or op["digest"] != want:
            failed += 1
    return failed


def input_mean(ops, key):
    """Mean over inputs of each input's median. Every input weighs the
    same however many times it ran. Simulated work, and so run time,
    varies ~23% between inputs; across seeds the mean of 32 inputs
    spreads less than their median (6% against 9%)."""
    by_input = {}
    for op in ops:
        by_input.setdefault(op["input"], []).append(key(op))
    return mean([med(v) for v in by_input.values()])


def soe_run(workload, seed, seconds, trace, record):
    pair = SOE_PAIRS[workload]
    data, usage = soe_probe(pair, seed, seconds, trace)
    ops = data["ops"]
    failed = check_soe_ops(ops) + (0 if data["reference"]["ok"] else 1)
    attempted = len(ops) + 1
    plain = [o for o in ops if not o["traced"]]
    record["inputs"] = data["inputs"]
    record["reference"] = data["reference"]
    record["digest"] = digest(json.dumps(
        [data["reference"]["digest"]]
        + sorted({(o["input"], o["digest"]) for o in ops})))
    record["wall_s_samples"] = [o["wall_s"] for o in plain]

    if not trace:
        info = data["reference"]
        metrics = {
            "setup_s": input_mean(plain, lambda o: o["setup_s"]),
            "wall_s": input_mean(plain, lambda o: o["wall_s"]),
            "sim_minstr_per_s": input_mean(
                plain, lambda o: o["retired_ops"] / o["step_s"] / 1e6),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "fairness_attainment": min(TARGET_F, info["fairness"]) / TARGET_F,
            "paper_err_pp": abs(100.0 * (info["speedup_over_st"] - 1.0)
                                - PAPER_SPEEDUP_PCT[TARGET_F]),
        }
        return metrics, attempted, failed

    traced = [o for o in ops if o["traced"]]

    def per_op(fn):
        return med([fn(o, o["stats"]) for o in traced])

    def stat(name):
        return per_op(lambda o, s: s.get(name, 0.0))

    def frac(name):
        return per_op(lambda o, s: s.get(name, 0.0) / o["total_cycles"])

    def ratio(num, den):
        return per_op(lambda o, s: s.get(num, 0.0) / max(s.get(den, 0.0), 1.0))

    # Metrics of layers this workload does not run (sweep.*) read 0.
    layer = {name: 0.0 for name in PER_LAYER}
    layer.update({
        "workload.gen_ns_per_op": data["gen_ns_per_op"],
        "workload.ops_generated": per_op(lambda o, s: o["ops_generated"]),
        "mem.warm_ns_per_access": data["warm_ns_per_access"],
        "mem.l1d_miss_rate": ratio("system.mem.l1d.misses",
                                   "system.mem.l1d.accesses"),
        "mem.l2_miss_rate": ratio("system.mem.l2.misses",
                                  "system.mem.l2.accesses"),
        "mem.l2_mpki": per_op(lambda o, s: 1000.0 * s["system.mem.l2.misses"]
                              / s["system.core.retiredOps"]),
        "mem.mshr_full_retries": per_op(lambda o, s: sum(
            s.get(f"system.mem.{c}.mshrFullRetries", 0.0)
            for c in ("l1i", "l1d", "l2"))),
        "mem.bus_queued_cycles": stat("system.mem.bus.queuedCycles"),
        "mem.dtlb_walks": stat("system.mem.dtlb.walks"),
        "harness.warm_s": per_op(lambda o, s: o["warm_s"]),
        "harness.step_s": per_op(lambda o, s: o["step_s"]),
        "harness.step_ns_per_cycle": per_op(
            lambda o, s: 1e9 * o["step_s"] / o["total_cycles"]),
        "harness.step_ns_per_instr": per_op(
            lambda o, s: 1e9 * o["step_s"] / o["retired_ops"]),
        "harness.ff_skip_frac": per_op(
            lambda o, s: o["ff_cycles"] / o["total_cycles"]),
        "harness.ff_jumps": per_op(lambda o, s: o["ff_jumps"]),
        "cpu.ipc": per_op(lambda o, s: o["ipc_total"]),
        "cpu.retired_ops": stat("system.core.retiredOps"),
        "cpu.squash_ratio": per_op(lambda o, s: s["system.core.squashedOps"]
                                   / (s["system.core.retiredOps"]
                                      + s["system.core.squashedOps"])),
        "cpu.bpred_mispredict_rate": ratio("system.core.bpred.mispredicts",
                                           "system.core.bpred.lookups"),
        "cpu.head_miss_stall_frac": frac("system.core.headMissStallCycles"),
        "cpu.fetch_icache_stall_frac": frac(
            "system.core.fetch.icacheStallCycles"),
        "cpu.fetch_branch_stall_frac": frac(
            "system.core.fetch.branchStallCycles"),
        "cpu.storebuf_retries": stat("system.core.storeBuffer.retries"),
        "soe.switches_miss": stat("system.core.switchesMiss"),
        "soe.switches_forced": stat("system.core.switchesForced"),
        "soe.switches_quota": stat("system.core.switchesQuota"),
        "soe.switch_latency_cycles": stat("system.soe.switchLatency.mean"),
        "soe.instrs_per_switch": stat("system.soe.instrsPerSwitch.mean"),
        "soe.samples": stat("system.soe.samples"),
        "soe.degraded_windows": stat("system.soe.degradedWindows"),
        "core.recompute_us": med([1e6 * o["recompute_s"] for o in plain]),
        "core.recompute_calls": med([o["recompute_calls"] for o in plain]),
        "trace.overhead_frac": med([o["wall_s"] for o in traced])
        / med([o["wall_s"] for o in plain]) - 1.0,
    })
    record["self_times"] = data["self_times"]
    record["layer_self_s"] = layer_self(data["self_times"])
    record["spans"] = data["spans"]
    record["stats"] = traced[0]["stats"] if traced else {}
    return layer, attempted, failed


def layer_self(self_times):
    """Sum span self time by layer (the name's first component)."""
    out = {}
    for entry in self_times:
        name = entry["name"].split(".")[0]
        out[name] = out.get(name, 0.0) + entry["self_s"]
    return out


# --- the evaluation campaign -------------------------------------------


def campaign_env():
    env = dict(os.environ)
    env.pop("SOEFAIR_FASTFORWARD", None)
    env["SOEFAIR_SCALE"] = CAMPAIGN_SCALE
    return env


def journal_payloads(path):
    """Job id -> payload of every job the journal records as done."""
    done = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("state") == "done":
                done[rec["job"]] = rec["payload"]
    return done


def payload_instrs(job_id, payload):
    """Simulated measured-region instructions a job payload records."""
    fields = payload.split()
    if job_id.startswith("st:"):
        return int(fields[2])
    threads = int(fields[0])
    return sum(int(fields[2 + 4 * t]) for t in range(threads))


def check_campaign_csv(text):
    lines = text.splitlines()
    rows = lines[1:]
    ok = (len(rows) == CAMPAIGN_ROWS and lines[0].startswith("pair,F,")
          and not any("MISSING(" in r for r in rows))
    return ok, rows


def campaign_quality(rows):
    """fairness_attainment and paper_err_pp from the campaign CSV."""
    by_pair = {}
    for row in rows:
        f = row.split(",")
        by_pair.setdefault(f[0], {})[float(f[1])] = {
            "ipcTotal": float(f[6]), "fairness": float(f[7]),
            "speedup": float(f[8])}
    attain = [min(level, cells[level]["fairness"]) / level
              for cells in by_pair.values() for level in (0.25, 0.5, 1.0)]
    errors = []
    for level, paper in PAPER_SPEEDUP_PCT.items():
        sim = 100.0 * (mean([c[level]["speedup"] for c in by_pair.values()])
                       - 1.0)
        errors.append(abs(sim - paper))
    for level, paper in PAPER_LOSS_PCT.items():
        norm = mean([c[level]["ipcTotal"] / c[0.0]["ipcTotal"]
                     for c in by_pair.values()])
        errors.append(abs(100.0 * (1.0 - norm) - paper))
    return mean(attain), mean(errors)


def one_campaign(index, slots):
    """One `soefair_cli sweep` from an empty journal, timed outside."""
    work = os.path.join(BUILD, "campaign", str(index))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    journal = os.path.join(work, "sweep.journal")
    csv_path = os.path.join(work, "sweep.csv")
    log_path = os.path.join(work, "sweep.log")
    with open(log_path, "w") as progress:
        t0 = time.perf_counter()
        rc, _, usage = run_child(
            [CLI, "sweep", "--jobs", str(slots), "--journal", journal,
             "--out", csv_path],
            env=campaign_env(), stderr=progress)
        wall = time.perf_counter() - t0
    csv = open(csv_path).read() if os.path.exists(csv_path) else ""
    ok, rows = check_campaign_csv(csv)
    payloads = journal_payloads(journal) if os.path.exists(journal) else {}
    run = {
        "ok": ok and rc == 0,
        "wall_s": wall,
        "csv": csv,
        "rows": rows,
        "payloads": payloads,
        "instrs": sum(payload_instrs(j, p) for j, p in payloads.items()),
        "journal_bytes": os.path.getsize(journal)
        if os.path.exists(journal) else 0,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if not run["ok"]:
        with open(log_path) as f:
            log(f"campaign {index} failed (exit {rc}):", *f.readlines()[-5:])
    shutil.rmtree(work, ignore_errors=True)
    return run


def campaign_setup():
    """The CLI's set-up before its first job (campaign construction and
    decomposition), repeated in-process by the probe; its median.
    Timed through the CLI's stderr it is a few ms of process start and
    pipe latency, too noisy to bound."""
    rc, out, _ = run_child([PROBE, "setup"], env=campaign_env())
    if rc != 0:
        raise BenchError(f"perfbench setup exited {rc}")
    data = json.loads(out)
    return med(data["setup_s"]), data["jobs"]


def campaign_run(seconds, trace, record):
    slots = min(nproc(), MAX_JOB_SLOTS)
    runs = []
    start = time.perf_counter()
    # Stop before a campaign that would end past `seconds`.
    while not runs or (time.perf_counter() - start
                       + med([r["wall_s"] for r in runs]) <= seconds):
        runs.append(one_campaign(len(runs), slots))
    reference = runs[0]["csv"]
    failed = sum(1 for r in runs if not r["ok"] or r["csv"] != reference)
    attempted = len(runs)
    good = [r for r in runs if r["ok"]]
    if not good:
        raise BenchError("no campaign completed")
    wall = med([r["wall_s"] for r in good])
    record["slots"] = slots
    record["digest"] = digest(reference)
    record["wall_s_samples"] = [r["wall_s"] for r in runs]

    if not trace:
        attainment, err = campaign_quality(good[0]["rows"])
        setup, jobs = campaign_setup()
        attempted += 1
        failed += 0 if jobs == len(good[0]["payloads"]) else 1
        metrics = {
            "setup_s": setup,
            "wall_s": wall,
            "sim_minstr_per_s": med(
                [r["instrs"] / r["wall_s"] / 1e6 for r in good]),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in good),
            "fairness_attainment": attainment,
            "paper_err_pp": err,
        }
        return metrics, attempted, failed

    # Traced: every job body in-process, timed one by one.
    rc, out, _ = run_child([PROBE, "jobs"], env=campaign_env())
    attempted += 1
    if rc != 0:
        raise BenchError(f"perfbench jobs exited {rc}")
    data = json.loads(out)
    jobs = data["jobs"]
    # In-process results must match the CLI's, job for job and byte
    # for byte.
    same = (data["csv"] == reference
            and all(good[0]["payloads"].get(j["id"]) == j["payload"]
                    for j in jobs))
    failed += 0 if same else 1
    job_sum = sum(j["s"] for j in jobs)
    job_max = max(j["s"] for j in jobs)
    st = [j for j in jobs if j["id"].startswith("st:")]
    soe = [j for j in jobs if j["id"].startswith("soe:")]

    def soe_sum(label):
        return sum(j["s"] for j in soe if j["id"].endswith(":F=" + label))

    # Metrics of the single-run layers read 0 here: the jobs run
    # inside the CLI's children, out of the probe's reach.
    layer = {name: 0.0 for name in PER_LAYER}
    layer.update({
        "sweep.jobs": len(jobs),
        "sweep.st_jobs": len(st),
        "sweep.soe_jobs": len(soe),
        "sweep.job_s_sum": job_sum,
        "sweep.job_s_max": job_max,
        "sweep.st_job_s_sum": sum(j["s"] for j in st),
        "sweep.soe_job_s_sum_F0": soe_sum("0"),
        "sweep.soe_job_s_sum_F0.25": soe_sum("0.25"),
        "sweep.soe_job_s_sum_F0.5": soe_sum("0.5"),
        "sweep.soe_job_s_sum_F1": soe_sum("1"),
        "sweep.parallel_efficiency": job_sum / (slots * wall),
        "sweep.overhead_s": wall - max(job_sum / slots, job_max),
        "sweep.journal_bytes": med([r["journal_bytes"] for r in good]),
        "sweep.aggregate_s": data["aggregate_s"],
        # The traced run's CLI campaigns carry no tracing (the job
        # timings come from a separate in-process pass), so tracing
        # adds nothing to the campaign's wall_s.
        "trace.overhead_frac": 0.0,
    })
    record["jobs"] = [{"id": j["id"], "s": j["s"]} for j in jobs]
    record["layer_self_s"] = {"sweep.job": job_sum,
                              "sweep.aggregate": data["aggregate_s"],
                              "sweep.decompose": data["decompose_s"]}
    return layer, attempted, failed


WORKLOADS = ("soe_miss_bound", "soe_compute_bound", "eval_campaign")


def run_workload(workload, args, fp):
    """Run one workload and print its lines; the JSON result is last."""
    record = {"workload": workload, "seed": args.seed,
              "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
              "fingerprint": fp}
    if workload == "eval_campaign":
        # The campaign's seeds are fixed inside the program (pairSeed),
        # so --seed does not change it.
        metrics, attempted, failed = campaign_run(
            args.seconds, args.trace, record)
    else:
        metrics, attempted, failed = soe_run(
            workload, args.seed, args.seconds, args.trace, record)

    units = PER_LAYER if args.trace else END_TO_END
    record["metrics"] = metrics
    if args.trace:
        os.makedirs(os.path.join(BUILD, "records"), exist_ok=True)
        path = os.path.join(BUILD, "records",
                            f"{workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump(record, f, indent=1)
        print(f"record: {os.path.relpath(path, ROOT)}")
    print(f"fingerprint: {json.dumps(fp, sort_keys=True)}")
    print(f"digest: {workload} {record['digest']}")
    print(wall_summary(record["wall_s_samples"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn (default)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
        fp = fingerprint()
        for workload in (WORKLOADS if args.workload == "all"
                         else (args.workload,)):
            run_workload(workload, args, fp)
    except BenchError as err:
        log(f"perfbench: {err}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

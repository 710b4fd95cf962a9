#!/usr/bin/env python3
"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Builds the repository (Release) into .bench_build/ on first use, runs the
workload through the psph_perfbench harness, checks every answer, and prints
each metric by name with its unit. The seed draws serve_hot's request
stream; batch_large's battery is fixed. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json (measured with PSPH_OBS=0); --trace 1
reports its per-layer metrics from a separate traced run, plus the tracing
overhead. Exits nonzero when any answer fails (fail_frac > 0).

Each run's full record (context stamp, metrics, raw harness output) is also
written to .bench_build/results/ for perfbench/compare.py.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "psph_perfbench"
DAEMON = BUILD / "psph_serve"
WORKLOADS = ("serve_hot", "batch_large")
SERVE_TIMEOUT_S = 150
BATCH_TIMEOUT_S = 60
BATCH_MIN_REPS = 5
BATCH_TRACE_PAIRS = 3
BATCH_BUDGET_S = 120

# What each per-layer metric should move, and where (the ledger's reading
# guide). A layer metric that reads n/a on a workload is one whose layer
# does no work there.
MOVES = {
    "serve.codec_us": "qps on serve_hot",
    "serve.query_us": "p50_ms on serve_hot",
    "serve.wait_us": "p50_ms and p99_ms on serve_hot",
    "serve.batch_size": "p99_ms on serve_hot",
    "serve.coalesced_ratio": "qps on serve_hot",
    "store.load_us": "qps on serve_hot",
    "store.save_ms": "wall_s on batch_large",
    "store.hit_ratio": "property: about 1 on serve_hot",
    "store.bytes_read": "count",
    "store.bytes_written": "count",
    "core.build_ms": "wall_s on batch_large",
    "core.facets_per_s": "wall_s on batch_large",
    "core.consume_share": "wall_s on batch_large",
    "core.fvector_ms": "wall_s on batch_large",
    "core.reconstitute_ms": "wall_s and peak_rss_mb on batch_large",
    "topology.homology_ms": "wall_s on batch_large",
    "topology.morse_shrink": "useful-work ratio",
    "math.rank_ms": "wall_s on batch_large",
    "math.snf_ms": "wall_s on batch_large",
    "solve.build_ms": "wall_s on batch_large",
    "solve.search_ms": "wall_s on batch_large",
    "solve.nodes": "count",
    "solve.cpu_per_wall": "cpu_s on batch_large",
    "pool.busy_ratio": "wall_s on batch_large",
    "sweep.overhead_ms": "wall_s on batch_large",
    "trace.overhead_pct": "traced minus untraced end-to-end figure",
}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def run_child(cmd, timeout, cwd, env=None):
    """Runs cmd in its own process group; kills the whole group (daemons
    included) on timeout. Returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(cmd[0]).name} timed out after {timeout} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers, if any
        except ProcessLookupError:
            pass
    return proc.returncode, out


def last_json_line(text, what):
    lines = [line for line in text.splitlines() if line.startswith("{")]
    if not lines:
        raise BenchError(f"{what} printed no result")
    return json.loads(lines[-1])


def cmake_build_type():
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def build():
    """Configures (once) and builds the harness and the daemon, Release."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources next to {Path(__file__).parent}")
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    with open(build_log, "w") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step = subprocess.run(
                ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                stdout=out, stderr=subprocess.STDOUT)
            if step.returncode != 0:
                raise BenchError(f"cmake configure failed; see {build_log}")
        step = subprocess.run(
            ["cmake", "--build", str(BUILD), "--target", "psph_perfbench",
             "psph_serve_daemon", "-j", str(nproc())],
            stdout=out, stderr=subprocess.STDOUT)
    if step.returncode != 0:
        log(build_log.read_text()[-4000:])
        raise BenchError("build failed")
    if cmake_build_type() != "Release":
        raise BenchError(f"refusing a '{cmake_build_type()}' build: "
                         "the benchmark measures Release only")


def store_filesystem(path):
    """Filesystem type of the mount holding `path` (longest mount prefix)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def commit():
    head = ROOT / ".git"
    if head.exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


# ---------------------------------------------------------------- runs --

def harness_env(trace):
    env = dict(os.environ)
    env["PSPH_OBS"] = "1" if trace else "0"
    env["PSPH_THREADS"] = str(nproc())
    return env


def run_serve(seed, seconds, trace, work):
    cmd = [str(HARNESS), "serve", f"--seed={seed}", f"--seconds={seconds}",
           f"--daemon={DAEMON}", "--work-dir=."]
    if trace:
        cmd.append("--trace")
    code, out = run_child(cmd, SERVE_TIMEOUT_S, work, harness_env(False))
    result = last_json_line(out, "psph_perfbench serve")
    result["exit_code"] = code
    return result


def run_battery(trace, work):
    launched = time.time()
    cmd = [str(HARNESS), "batch", "--work-dir=."]
    if trace:
        cmd.append("--trace")
    code, out = run_child(cmd, BATCH_TIMEOUT_S, work, harness_env(trace))
    result = last_json_line(out, "psph_perfbench batch")
    result["exit_code"] = code
    result["setup_s"] = result["first_job_epoch"] - launched
    return result


def run_batch(seconds, trace, work):
    """Untraced: fresh battery processes until `seconds` have passed (at
    least BATCH_MIN_REPS). Traced: untraced and traced batteries in
    alternation, BATCH_TRACE_PAIRS of each."""
    if trace:
        pairs = [(run_battery(False, work), run_battery(True, work))
                 for _ in range(BATCH_TRACE_PAIRS)]
        return {"untraced": [u for u, _ in pairs], "traced": [t for _, t in pairs]}
    reps = []
    start = time.monotonic()
    while len(reps) < BATCH_MIN_REPS or time.monotonic() - start < seconds:
        if reps and time.monotonic() - start > BATCH_BUDGET_S:
            break  # a slow build of the program must still end in time
        reps.append(run_battery(False, work))
    return {"reps": reps}


# ------------------------------------------------------------- metrics --

def serve_end_to_end(raw):
    m = raw["measured"]
    verified = m["ok"] - m["mismatches"]
    metrics = {
        "qps": m["qps"],
        "p50_ms": m["p50_ms"],
        # A lap is a fixed number of requests, in completion order. wall_s
        # is the median time to answer one and cpu_s the daemon's CPU per
        # lap. p99_ms is the median of the laps' p99: the whole run's p99
        # (printed below) moves with any slow spell on a shared host.
        "p99_ms": median(m["lap_p99_ms"]),
        "wall_s": median(m["lap_s"]),
        "cpu_s": m["cpu_s"] * raw["lap_requests"] / verified if verified else None,
        "peak_rss_mb": m["peak_rss_mb"],
        "setup_s": median(raw["setup_s"]),
    }
    notes = [f"latency samples: {m['samples']} round trips over "
             f"{m['elapsed_s']:.2f} s; {len(m['lap_s'])} laps of "
             f"{raw['lap_requests']} requests",
             f"whole-run p99_ms: {m['p99_ms']:.3f}",
             f"setup_s: median of {len(raw['setup_s'])} daemon launches",
             f"cached responses: {m['cached']}/{m['ok']}",
             f"errors by code: {m['errors']}, byte mismatches: "
             f"{m['mismatches']}, wedged: {m['wedged']}"]
    return metrics, m["attempted"], m["failed"], raw["exit_code"] == 0, notes


def batch_end_to_end(raw):
    reps = raw["reps"]
    # Latency per instance: its median over the batteries; p50 and p99 are
    # taken over the instances (p99 of seven is the slowest one).
    per_instance = {}
    for rep in reps:
        for row in rep["instances"]:
            per_instance.setdefault(row["name"], []).append(row["wall_s"] * 1e3)
    instance_ms = [median(times) for times in per_instance.values()]
    metrics = {
        "qps": median([rep["attempted"] / rep["wall_s"] for rep in reps]),
        "p50_ms": percentile(instance_ms, 0.50),
        "p99_ms": percentile(instance_ms, 0.99),
        "wall_s": median([rep["wall_s"] for rep in reps]),
        "cpu_s": median([rep["cpu_s"] for rep in reps]),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
        "setup_s": median([rep["setup_s"] for rep in reps]),
    }
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    notes = [f"batteries: {len(reps)} fresh processes; medians reported",
             f"instance latency samples: {len(instance_ms)} instances x "
             f"{len(reps)} batteries",
             "median instance wall_s: " + ", ".join(
                 f"{name}={median(times) / 1e3:.3f}"
                 for name, times in sorted(per_instance.items()))]
    ok = all(rep["exit_code"] == 0 for rep in reps)
    return metrics, attempted, failed, ok, notes


def obs_span(obs, name):
    row = obs["spans"].get(name)
    return (row["total_s"], row["count"]) if row else (0.0, 0)


def obs_mean(obs, name, scale):
    total, count = obs_span(obs, name)
    return total / count * scale if count else None


def obs_counter(obs, name):
    return obs["counters"].get(name, 0)


def ledger_mean(ledger, name, scale):
    row = ledger["spans"].get(name)
    return row["total_s"] / row["count"] * scale if row and row["count"] else None


def ratio(numerator, denominator):
    return numerator / denominator if denominator else None


def layer_metrics(obs, ledger, store_bytes, wall_s, threads):
    """The layer metrics every workload can report from its obs snapshot
    and harness ledger; None marks a layer that did no work."""
    counters = ledger["counters"]
    build_total = ledger["spans"].get("core.build", {}).get("total_s", 0.0)
    search = ledger["spans"].get("solve.search", {"total_s": 0.0, "count": 0})
    hits = obs_counter(obs, "store.hits")
    misses = obs_counter(obs, "store.misses")
    morse_before = (obs_counter(obs, "morse.rows_before") +
                    obs_counter(obs, "morse.cols_before"))
    morse_after = (obs_counter(obs, "morse.rows_after") +
                   obs_counter(obs, "morse.cols_after"))
    return {
        "store.load_us": obs_mean(obs, "store.load", 1e6),
        "store.save_ms": obs_mean(obs, "store.save", 1e3),
        "store.hit_ratio": ratio(hits, hits + misses),
        "store.bytes_read": store_bytes[0] if hits + misses else None,
        "store.bytes_written": store_bytes[1] if hits + misses else None,
        "core.build_ms": ledger_mean(ledger, "core.build", 1e3),
        "core.facets_per_s": ratio(counters.get("core.facets", 0), build_total),
        "core.consume_share": ratio(obs_span(obs, "construction.consume")[0],
                                    obs_span(obs, "construction.level")[0]),
        "core.fvector_ms": ledger_mean(ledger, "core.fvector", 1e3),
        "core.reconstitute_ms": ledger_mean(ledger, "core.reconstitute", 1e3),
        "topology.homology_ms": ledger_mean(ledger, "topology.homology", 1e3),
        "topology.morse_shrink": (1.0 - morse_after / morse_before
                                  if morse_before else None),
        "math.rank_ms": obs_mean(obs, "homology.rank", 1e3),
        "math.snf_ms": obs_mean(obs, "smith.snf", 1e3),
        "solve.build_ms": ledger_mean(ledger, "solve.build", 1e3),
        "solve.search_ms": ledger_mean(ledger, "solve.search", 1e3),
        "solve.nodes": ratio(counters.get("solve.nodes", 0), search["count"]),
        "solve.cpu_per_wall": ratio(counters.get("solve.cpu_s", 0.0),
                                    search["total_s"]),
        "pool.busy_ratio": ratio(obs_counter(obs, "pool.worker_busy_ns") * 1e-9,
                                 threads * wall_s),
        "sweep.overhead_ms": ledger_mean(ledger, "sweep.overhead", 1e3),
    }


def serve_per_layer(raw):
    obs, ledger, traced, untraced = (raw["obs"], raw["ledger"], raw["traced"],
                                     raw["untraced"])
    store = raw["store"]
    query_us = obs_mean(obs, "serve.query", 1e6)
    requests = obs_counter(obs, "serve.requests")
    batches = obs_span(obs, "serve.batch")[1]
    metrics = layer_metrics(obs, ledger,
                            (store["bytes_read"], store["bytes_written"]),
                            traced["elapsed_s"], raw["threads"])
    metrics.update({
        "serve.codec_us": ledger["counters"].get("serve.codec_us"),
        "serve.query_us": query_us,
        "serve.wait_us": (traced["mean_ms"] * 1e3 - query_us
                          if query_us is not None else None),
        "serve.batch_size": ratio(requests, batches),
        "serve.coalesced_ratio": ratio(obs_counter(obs, "serve.coalesced"),
                                       requests),
        "trace.overhead_pct": (untraced["qps"] / traced["qps"] - 1.0) * 100.0,
    })
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    notes = [f"traced run hosts the server in-process; obs-off and obs-on "
             f"phases alternate ({untraced['elapsed_s']:.2f} s and "
             f"{traced['elapsed_s']:.2f} s in all)",
             f"tracing overhead: qps {untraced['qps']:.1f} -> "
             f"{traced['qps']:.1f}, p50_ms {untraced['p50_ms']:.3f} -> "
             f"{traced['p50_ms']:.3f}, p99_ms {untraced['p99_ms']:.3f} -> "
             f"{traced['p99_ms']:.3f}"]
    return metrics, attempted, failed, raw["exit_code"] == 0, notes


def batch_per_layer(raw):
    untraced, traced_reps = raw["untraced"], raw["traced"]
    # Layer figures from the traced battery with the median wall time; the
    # overhead from all batteries of each kind.
    traced_wall = median([r["wall_s"] for r in traced_reps])
    untraced_wall = median([r["wall_s"] for r in untraced])
    traced = min(traced_reps, key=lambda rep: abs(rep["wall_s"] - traced_wall))
    metrics = layer_metrics(
        traced["obs"], traced["ledger"],
        (traced["store_bytes_read"], traced["store_bytes_written"]),
        traced["wall_s"], traced["threads"])
    for name in ("serve.codec_us", "serve.query_us", "serve.wait_us",
                 "serve.batch_size", "serve.coalesced_ratio"):
        metrics[name] = None
    metrics["trace.overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
    everything = untraced + traced_reps
    attempted = sum(rep["attempted"] for rep in everything)
    failed = sum(rep["failed"] for rep in everything)
    notes = [f"tracing overhead: wall_s {untraced_wall:.3f} -> "
             f"{traced_wall:.3f} (medians of {len(untraced)} untraced and "
             "traced batteries, run alternately; traced batteries also "
             "replay each query through the layered mirror, outside wall_s)"]
    ok = all(rep["exit_code"] == 0 for rep in everything)
    return metrics, attempted, failed, ok, notes


# ---------------------------------------------------------------- main --

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        raise BenchError("--seconds must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()

    work = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if args.workload == "batch_large":
            raw = run_batch(args.seconds, args.trace, work)
            probe = raw["traced"][0] if args.trace else raw["reps"][0]
            compute = batch_per_layer if args.trace else batch_end_to_end
        else:
            raw = run_serve(args.seed, args.seconds, args.trace, work)
            probe = raw
            compute = serve_per_layer if args.trace else serve_end_to_end
        values, attempted, failed, exits_ok, notes = compute(raw)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    context = {
        "build_type": cmake_build_type(),
        "nproc": nproc(),
        "threads": probe["threads"],
        "simd": probe["simd"],
        "store_filesystem": store_filesystem(BUILD),
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "psph_obs": "on (traced run)" if args.trace else "0",
    }
    if context["threads"] != nproc():
        raise BenchError(f"harness ran {context['threads']} threads, "
                         f"expected {nproc()}")

    metrics, na = {}, []
    for entry in wanted:
        value = values.get(entry["name"])
        if value is None:
            na.append(entry["name"])
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    fail_frac = failed / attempted if attempted else 1.0
    correct = exits_ok and failed == 0 and attempted > 0

    print("context: " + json.dumps(context))
    for note in notes:
        print(note)
    print(f"fail_frac = {fail_frac} ({failed} failed of {attempted} attempted)")
    for entry in wanted:
        name = entry["name"]
        shown = "n/a" if name in na else f"{metrics[name]['value']:.6g} {entry['unit']}"
        moves = f"   [moves {MOVES[name]}]" if args.trace and name in MOVES else ""
        print(f"{name} = {shown}{moves}")

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    record = {"context": context, "metrics": metrics, "na": na,
              "attempted": attempted, "failed": failed, "raw": raw}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        log(f"perfbench: {error}")
        sys.exit(2)

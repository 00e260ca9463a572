#!/usr/bin/env python3
"""The ChipVQA benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload grid_stream --seed 1 --seconds 20 --trace 0

Run from the repository root. It builds `perfbench/` (a package of its
own that reaches the workspace crates by path) with cargo, offline, then
starts the `perfbench` binary once per measured pass, so every pass is a
fresh process with its own store directory, as a `table2` user has it.
Passes are repeated until `--seconds` have been spent measuring, and the
metrics are medians over passes.

With `--trace 0` the last line of standard output carries every
end-to-end metric of BENCHMARK.json; with `--trace 1`, every per-layer
metric. The metric names and units are read from BENCHMARK.json, and
`perfbench/layer_map.json` says which end-to-end metric each layer metric
should move, on which workload. A pass whose output differs from its
reference counts as failed operations, and the command then exits 1.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))

# Table II grid: DatasetSpec::scaled(SCALE), streamed with nproc workers.
SCALE = 10
# Cold passes (each into a fresh store) that make store_warm's set-up.
COLD_SETUPS = 3
# A workload runs at least this many measured passes, however long.
MIN_PASSES = 3
# serve_open: the fixed operating rate (sessions/s) its latency is read
# at, and the p95 latency limit that rate must meet.
OPERATING_SPS = 25.0
P95_LIMIT_MS = 150.0
# serve_max_sps: PROBE_SESSIONS sessions offered at SATURATING_SPS, far
# above what the service can run.
PROBE_SESSIONS = 600
SATURATING_SPS = 1000.0
# A pass that takes longer than this has hung.
PASS_TIMEOUT_S = 100


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build():
    """Builds the perfbench binary; returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError("build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def stamp():
    """nproc, rustc version and source revision, for the record."""
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip()
        except OSError:
            return ""
    return {
        "nproc": NPROC,
        "rustc": out(["rustc", "-V"]),
        "revision": out(["git", "rev-parse", "HEAD"]) or source_digest(),
    }


def source_digest():
    """Outside a git checkout: a digest of the sources the benchmark builds."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


class Runner:
    """Starts passes of the perfbench binary and reads their results."""

    def __init__(self, binary, seed, work):
        self.binary = binary
        self.seed = seed
        self.work = work
        self.spec = []

    def choose_spec(self, scale):
        """Fixes the spec seed every later pass generates from: the first
        candidate from the workload seed on whose collection generates
        without a generator panic. Returns how many candidates panicked."""
        chosen = self.run("spec", "--scale", scale)
        self.spec = ["--spec-seed", chosen["spec_seed"]]
        if chosen["spec_panics"]:
            log(f"generation panicked for {chosen['spec_panics']:.0f} spec seed(s); "
                f"measuring spec seed {chosen['spec_seed']}")
        return chosen["spec_panics"]

    def run(self, cmd, *flags):
        args = [self.binary, cmd, "--seed", str(self.seed)] + self.spec + [str(f) for f in flags]
        spawned = time.time_ns()
        try:
            done = subprocess.run(args, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{cmd} pass timed out")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise BenchError(f"{cmd} pass exited {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if "ready_unix_ns" in result:
            result["setup_s"] = (result["ready_unix_ns"] - spawned) / 1e9
        return result


def median(values):
    return statistics.median(values) if values else 0.0


def merge_layers(passes, names):
    """Median of each per-layer metric over the traced passes that report it."""
    return {n: median([p[n] for p in passes if n in p]) for n in names}


def percentile(values, p):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s), max(1, math.ceil(p / 100 * len(s)))) - 1]


def grid_metrics(passes, attempted, failed):
    """End-to-end metrics of a grid workload from its measured passes. A
    'session' here is one model's Table II row (its with-choice and
    no-choice cells), its latency the median of that row over the passes;
    the rows run back to back, so the highest session rate is the
    completed row rate."""
    rows_per_pass = [[sum(p["cell_ms"][i:i + 2]) for i in range(0, len(p["cell_ms"]), 2)]
                     for p in passes]
    rows = [median(list(per_pass)) for per_pass in zip(*rows_per_pass)]
    wall = median([p["wall_s"] for p in passes])
    return {
        "wall_s": wall,
        "evals_per_s": passes[0]["evaluations"] / wall,
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "ok_frac": 1 - failed / attempted,
        "session_p50_ms": median(rows),
        "session_p95_ms": percentile(rows, 95),
        "serve_max_sps": len(rows) / wall,
    }


def alternate(seconds, untraced, traced):
    """Runs untraced and traced passes in turn until `seconds` are spent
    (at least one of each). Returns both lists."""
    plain, rec = [], []
    start = time.monotonic()
    while not plain or not rec or time.monotonic() - start < seconds:
        plain.append(untraced(len(plain)))
        rec.append(traced(len(rec)))
    return plain, rec


def repeat(seconds, one):
    """Runs measured passes until `seconds` are spent (at least MIN_PASSES)."""
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(one(len(passes)))
    return passes


def grid_stream(r, seconds, trace, layer_names):
    panics = r.choose_spec(SCALE)
    common = ["--scale", SCALE, "--workers", NPROC]

    def one(i, traced=0):
        # each pass checks a different cell against the sequential harness
        return r.run("grid", *common, "--check-cell", r.seed * 7 + i, "--trace", traced)

    if trace:
        plain, rec = alternate(seconds, one, lambda i: one(i, 1))
        layers = merge_layers(rec, layer_names)
        layers["trace.overhead_frac"] = overhead(plain, rec, "wall_s")
        layers["core.gen.spec_panics"] = panics
        return layers, count_cells(plain + rec)
    passes = repeat(seconds, one)
    attempted, failed = count_cells(passes)
    metrics = grid_metrics(passes, attempted, failed)
    metrics["setup_s"] = median([p["setup_s"] for p in passes])
    return metrics, (attempted, failed)


def count_cells(passes, expect=None):
    """Cells attempted, and cells wrong: those a pass found wrong itself,
    plus every cell of a pass whose table differs from `expect` (by
    default the first pass's: every process must produce the same bytes)."""
    expect = expect or passes[0]["table_hash"]
    wrong = sum(p["cells"] if p["table_hash"] != expect else p.get("wrong_cells", 0)
                for p in passes)
    return sum(p["cells"] for p in passes), wrong


def overhead(plain, rec, key):
    return median([p[key] for p in rec]) / median([p[key] for p in plain]) - 1


def store_warm(r, seconds, trace, layer_names):
    panics = r.choose_spec(SCALE)
    common = ["--scale", SCALE, "--workers", NPROC]
    dirs, colds = [], []
    for k in range(1 if trace else COLD_SETUPS):
        d = os.path.join(r.work, f"store-{k}")
        dirs.append(d)
        colds.append(r.run("store-cold", *common, "--dir", d, "--trace", 1 if trace else 0))
    expect = colds[0]["table_hash"]

    def warm(i, traced=0):
        return r.run("store-warm", *common, "--dir", dirs[i % len(dirs)],
                     "--expect", expect, "--trace", traced)

    if trace:
        plain, rec = alternate(seconds, warm, lambda i: warm(i, 1))
        layers = merge_layers(rec + colds, layer_names)
        layers["trace.overhead_frac"] = overhead(plain, rec, "wall_s")
        layers["core.gen.spec_panics"] = panics
        return layers, count_cells(colds + plain + rec, expect)
    passes = repeat(seconds, warm)
    attempted, failed = count_cells(colds + passes, expect)
    metrics = grid_metrics(passes, attempted, failed)
    metrics["setup_s"] = median([c["setup_s"] for c in colds])
    return metrics, (attempted, failed)


def serve_pass(r, refs, rate, sessions, traced=0):
    return r.run("serve", "--rate", rate, "--sessions", sessions, "--runners", NPROC,
                 "--workers", 1, "--refs", refs, "--trace", traced)


def capacity(r, refs):
    """The highest offered rate the service sustains without a growing
    backlog: sessions completed per second while the run queue never
    empties (PROBE_SESSIONS offered far faster than they can run)."""
    phase = serve_pass(r, refs, SATURATING_SPS, PROBE_SESSIONS)
    return phase["completed"] / phase["phase_s"], phase


def serve_failures(phases):
    """Sessions offered, and those failed, shed, lost or wrong."""
    offered = sum(p["offered"] for p in phases)
    bad = sum(p["failed"] + p["cancelled"] + p["lost"] + p["wrong"] + p["shed"] + p["unaccounted"]
              for p in phases)
    return offered, bad


def serve_open(r, seconds, trace, layer_names):
    panics = r.choose_spec(1)
    refs = os.path.join(r.work, "refs")
    r.run("serve-refs", "--out", refs, "--workers", NPROC)
    sessions = max(200, int(OPERATING_SPS * seconds * 0.6))
    if trace:
        plain = serve_pass(r, refs, OPERATING_SPS, sessions)
        rec = serve_pass(r, refs, OPERATING_SPS, sessions, traced=1)
        layers = merge_layers([rec], layer_names)
        layers["trace.overhead_frac"] = overhead([plain], [rec], "session_p50_ms")
        layers["core.gen.spec_panics"] = panics
        return layers, serve_failures([plain, rec])
    operating = serve_pass(r, refs, OPERATING_SPS, sessions)
    best, saturated = capacity(r, refs)
    phases = [operating, saturated]
    attempted, failed = serve_failures(phases)
    if operating["samples_above_p95"] < 10:
        raise BenchError("too few sessions above p95 at the operating rate")
    if operating["session_p95_ms"] > P95_LIMIT_MS or operating["backlog_growing"]:
        log(f"the operating rate misses the {P95_LIMIT_MS:.0f} ms p95 limit")
    metrics = {
        "setup_s": median([p["setup_s"] for p in phases]),
        "wall_s": operating["phase_s"],
        "evals_per_s": operating["evaluations"] / operating["phase_s"],
        "peak_rss_mb": operating["peak_rss_mb"],
        "ok_frac": 1 - failed / attempted,
        "session_p50_ms": operating["session_p50_ms"],
        "session_p95_ms": operating["session_p95_ms"],
        "serve_max_sps": best,
    }
    return metrics, (attempted, failed)


WORKLOADS = {"grid_stream": grid_stream, "store_warm": store_warm, "serve_open": serve_open}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = Runner(build(), args.seed, work)
        print(json.dumps({"stamp": stamp()}))
        metrics, (attempted, failed) = WORKLOADS[args.workload](
            runner, args.seconds, args.trace, [m["name"] for m in wanted])
    except BenchError as e:
        log(f"benchmark failed: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

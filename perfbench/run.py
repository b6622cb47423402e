#!/usr/bin/env python3
"""End-to-end benchmark of the fatpaths simulator.

Run from the root of the repository:

    python3 perfbench/run.py --workload sf_websearch --seed 7 --seconds 40 --trace 0

Builds `perfbench/` (a Cargo package of its own that depends on the
repository's crates by path), then runs repetitions of the workload, each
in a fresh process, until `--seconds` are used up. It checks every
repetition's outputs, prints a table of the metrics with provenance, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json
(medians over repetitions). `--trace 1` runs one untraced repetition and
then traced ones, and reports the per-layer metrics. `--workload all`
runs every workload in turn. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Repetitions per run, at least; more are run while --seconds allow.
MIN_REPS = 3
MIN_TRACED_REPS = 1
# No repetition may start after this many seconds, so that a run ends
# well within its 180 s limit.
HARD_STOP_S = 120
REP_TIMEOUT_S = 150
# Variables that would otherwise reach the simulator's pool and shard
# resolution; the benchmark pins both itself.
SCRUBBED_ENV = ("FATPATHS_SHARDS", "FATPATHS_THREADS", "RAYON_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run (build failure, crash, bad output)."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def target_dir():
    """Cargo's target directory, absolute; a relative setting is taken
    from the repository root, where cargo runs."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        raise BenchError("repository sources (crates/) not found next to perfbench/")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if proc.returncode != 0:
        raise BenchError(f"build failed with exit code {proc.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def run_rep(binary, workload, seed, traced):
    """Runs one repetition in a fresh process and returns its report."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{workload} repetition failed: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} repetition exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        raise BenchError(f"{workload} repetition printed no report: {e}")


def run_reps(binary, workload, seed, traced, min_reps, deadline, t_start):
    """Repetitions until the next one would overrun the deadline."""
    reps = []
    while True:
        t = time.monotonic()
        reps.append(run_rep(binary, workload, seed, traced))
        now = time.monotonic()
        if len(reps) >= min_reps and (now + (now - t) > deadline
                                      or now - t_start > HARD_STOP_S):
            return reps


def git_revision():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_id():
    """Hash of the sources the binary is built from: identifies "the same
    code" where there is no .git to ask."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "__pycache__"))
            files += [os.path.join(d, n) for n in sorted(names)]
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def check_fingerprint_store(key, fingerprint):
    """Every run of the same sources and seed must reproduce the same
    simulated outcome. Returns an error string or None."""
    path = os.path.join(target_dir(), "perfbench-fingerprints.json")
    try:
        with open(path) as f:
            store = json.load(f)
    except (OSError, ValueError):
        store = {}
    known = store.get(key)
    if known is not None and known != fingerprint:
        return f"fingerprint {fingerprint} differs from {known} of an earlier run ({key})"
    if known is None:
        store[key] = fingerprint
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(store, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return None


def median_metrics(reps, names):
    out = {}
    for name in names:
        values = [r["metrics"].get(name) for r in reps]
        if any(not isinstance(v, (int, float)) for v in values):
            raise BenchError(f"metric {name} missing from a repetition")
        out[name] = statistics.median(values)
    return out


def run_workload(spec, binary, workload, seed, seconds, traced, provenance):
    t_start = time.monotonic()
    deadline = t_start + seconds
    errors = []
    if traced:
        plain = run_reps(binary, workload, seed, False, 1, t_start, t_start)
        reps = run_reps(binary, workload, seed, True, MIN_TRACED_REPS, deadline, t_start)
        metric_specs = spec["per_layer"]
    else:
        plain, reps = [], run_reps(binary, workload, seed, False, MIN_REPS, deadline, t_start)
        metric_specs = spec["end_to_end"]
    everything = plain + reps

    for r in everything:
        for c in r["checks"]:
            if not c["ok"]:
                errors.append(f"check {c['name']} failed: {c['detail']}")
        if r["failed"]:
            errors.append(f"{r['failed']} of {r['attempted']} operations failed")
    fingerprints = sorted({r["fingerprint"] for r in everything})
    if len(fingerprints) != 1:
        errors.append(f"repetitions disagree: fingerprints {fingerprints}")
    else:
        err = check_fingerprint_store(
            f"{provenance['source_id']}/{workload}/{seed}", fingerprints[0])
        if err:
            errors.append(err)

    names = [m["name"] for m in metric_specs]
    if traced:
        values = median_metrics(reps, [n for n in names if n != "trace.overhead_s"])
        values["trace.overhead_s"] = (statistics.median(r["metrics"]["wall_s"] for r in reps)
                                      - plain[0]["metrics"]["wall_s"])
    else:
        values = median_metrics(reps, names)
        for n, v in values.items():
            if not v > 0:
                errors.append(f"end-to-end metric {n} is {v}, expected > 0")

    info = reps[0]["info"]
    prov = dict(provenance, workload=workload, seed=seed, traced=traced,
                repetitions=len(everything), pool_threads=int(info["pool_threads"]),
                nproc=int(info["nproc"]), shards=int(info["shards"]),
                fingerprint=fingerprints[0] if len(fingerprints) == 1 else fingerprints)
    if traced:
        write_spans(workload, seed, prov, reps)

    samples = reps[0]["metrics"]["fct_samples"]
    print(f"== {workload} (seed {seed}, {len(everything)} repetitions, "
          f"{'traced' if traced else 'untraced'})")
    for m in metric_specs:
        note = f"  ({samples:.0f} flows)" if m["name"].startswith("fct_") else ""
        print(f"  {m['name']:<24} {values[m['name']]:>14.6g} {m['unit']}{note}")
    print(f"  attempted {sum(r['attempted'] for r in reps)}, "
          f"failed {sum(r['failed'] for r in reps)}")
    for e in errors:
        print(f"  ERROR: {e}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }


def write_spans(workload, seed, prov, reps):
    """Spans are kept in memory by the repetitions and written once, here."""
    out = os.path.join(target_dir(), "perfbench-trace", f"{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"provenance": prov,
                   "repetitions": [{"spans": r["spans"], "metrics": r["metrics"]}
                                   for r in reps]}, f, indent=1)
    print(f"spans written to {os.path.relpath(out, ROOT)}")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    provenance = {"git_revision": git_revision(), "source_id": source_id(),
                  "run_seconds": args.seconds}
    chosen = workloads if args.workload == "all" else [args.workload]
    results = [run_workload(spec, binary, w, args.seed, args.seconds, bool(args.trace),
                            provenance)
               for w in chosen]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}/{k}": v for w, r in zip(chosen, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)

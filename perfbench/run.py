#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload paper8 --seed 1 --seconds 30 --trace 0

It builds perfbench/perfbench.exe with dune, runs it on one workload (or
on each in turn with --workload all) and prints its report.  The last
line of standard output is one JSON object with the keys "correct",
"attempted", "failed" and "metrics".  Outside a
repository checkout (no dune-project, no lib/) it exits with status 2
without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("paper8", "largen", "fanin1024")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
REFERENCE = os.path.join("perfbench", "reference.json")
# Everything the benchmark's binary is built from.
SOURCES = ("dune-project", "lib", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, status=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(status)


def source_digest():
    """SHA-256 over the path and bytes of every source file the binary is
    built from: identifies the exact tree even outside git."""
    h = hashlib.sha256()
    for root in SOURCES:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(root)
            for f in files
        )
        for path in paths:
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git(*args):
    try:
        out = subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance():
    rev = git("rev-parse", "HEAD") if os.path.isdir(".git") else None
    dirty = None
    if rev is not None:
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else status != ""
    return {
        "git_rev": rev or "none (not a git checkout)",
        "git_dirty": "unknown" if dirty is None else str(dirty).lower(),
        "source_sha256": source_digest(),
        "nproc": str(os.cpu_count()),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0x5EED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in SOURCES + (REFERENCE,):
        if not os.path.exists(needed):
            fail(f"run from the repository root: {needed} is missing")

    # The shared dune cache lives outside the checkout; keep every write
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        capture_output=True, text=True, env=env,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed", build.returncode or 1)

    prov = provenance()
    if args.workload != "all":
        result = run_workload(args.workload, args, prov)
    else:
        # Each workload in a fresh process, so that each peak RSS is its
        # own; metrics are prefixed with the workload's name.
        results = {w: run_workload(w, args, prov) for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric
                for w, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))


def run_workload(workload, args, prov):
    """Run the benchmark binary on one workload; print its report and
    return its result line, parsed."""
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    for key, value in prov.items():
        cmd += ["--provenance", f"{key}={value}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"benchmark exited with status {proc.returncode}", proc.returncode)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(out)
        fail("benchmark printed no result line", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + lines[-1], 1)
    print("\n".join(lines[:-1]), flush=True)
    return result

if __name__ == "__main__":
    main()

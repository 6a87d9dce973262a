#!/usr/bin/env python3
"""Build and run the slackhls benchmark from the root of a checkout.

    python3 perfbench/run.py --workload kernels|corpus|serve|fleet|all \
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Builds hlsc and the runner with dune (the dune cache is disabled so the
build stays inside the checkout), then runs one runner process per
workload.  With --trace 0 the runner prints every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric and a Chrome trace
under .perfbench/.  The last stdout line is the result as one JSON
object; for --workload all it combines the workloads, metric names
prefixed with the workload.  Exits non-zero when a build, an operation
or a correctness check fails, or when a process it started outlives its run.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["kernels", "corpus", "serve", "fleet"]
RUNNER = os.path.join("_build", "default", "perfbench", "perfbench.exe")
HLSC = os.path.join("_build", "default", "bin", "hlsc.exe")


def strays():
    """Pids of live processes running this checkout's hlsc or runner."""
    targets = {os.path.realpath(HLSC), os.path.realpath(RUNNER)}
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.path.realpath(os.path.join("/proc", entry, "exe")) in targets:
                    pids.append(int(entry))
            except OSError:
                pass
    return pids


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()

    if not all(os.path.exists(f) for f in ["dune-project", "BENCHMARK.json", os.path.join("bin", "hlsc.ml")]):
        sys.exit("perfbench: run from the root of a slackhls checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", RUNNER, HLSC],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    names = WORKLOADS if a.workload == "all" else [a.workload]
    results, code = {}, 0
    for w in names:
        cmd = [RUNNER, "--workload", w, "--seed", str(a.seed), "--seconds", str(a.seconds)]
        cmd += ["--traced"] if a.trace else []
        cmd += ["--smoke"] if a.smoke else []
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(run.stdout)
        sys.stdout.flush()
        code = code or run.returncode
        left = strays()
        if left:
            print(f"perfbench: {w}: processes outlived the run: {left}", file=sys.stderr)
            code = code or 1
        lines = run.stdout.strip().splitlines()
        try:
            results[w] = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit(run.returncode or 1)
    if a.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }))
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Alternating parent/change runs of the host-performance benchmark.

    scripts/perf_pairs.py REF WORKLOAD N [bench flags...]

Builds ./bench once from REF (a `git archive` of the commit, unpacked in
a temporary directory) and once from the working tree, runs
`-workload WORKLOAD` N times on each side, alternating which side goes
first, and prints for every metric of the result line both medians and
quartiles, the pairs the working tree won, and every run in pair order:
the table choosing-metrics section 8 asks a performance claim to show.
Extra flags (`-seed 20020918`, `-trace 1`) go to both sides.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def run_bench(binary, tree, workload, flags, out):
    """One benchmark run from tree; returns the result line's metrics."""
    cmd = [binary, "-workload", workload, "-o", out] + flags
    stdout = subprocess.run(cmd, cwd=tree, check=True, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout
    result = json.loads(stdout.splitlines()[-1])
    if result["failed"] or not result["correct"]:
        sys.exit(f"{' '.join(cmd)}: {result['failed']} of {result['attempted']} operations failed")
    return result["metrics"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    ref, workload, n, flags = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
    root = subprocess.check_output(["git", "rev-parse", "--show-toplevel"], text=True).strip()
    commit = subprocess.check_output(["git", "-C", root, "rev-parse", "--short", ref], text=True).strip()
    tmp = tempfile.mkdtemp(prefix="perf-pairs-")
    try:
        trees = {"ref": os.path.join(tmp, "ref"), "new": root}
        os.mkdir(trees["ref"])
        archive = subprocess.run(["git", "-C", root, "archive", ref], check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", trees["ref"]], input=archive, check=True)
        binaries = {}
        for side, tree in trees.items():
            binaries[side] = os.path.join(tmp, side + ".bench")
            subprocess.run(["go", "build", "-o", binaries[side], "./bench"], cwd=tree, check=True)

        runs = {"ref": [], "new": []}
        for pair in range(n):
            for side in (("ref", "new"), ("new", "ref"))[pair % 2]:
                runs[side].append(run_bench(binaries[side], trees[side], workload, flags,
                                            os.path.join(tmp, "result.json")))
            print(f"pair {pair + 1}/{n} done", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"perf-pairs: {workload} {' '.join(flags)}".rstrip() +
          f", ref {commit} vs working tree, {n} pairs (even pairs run the working tree first)")
    for name, first in sorted(runs["ref"][0].items()):
        a = [r[name]["value"] for r in runs["ref"]]
        b = [r[name]["value"] for r in runs["new"]]
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        won = sum(y < x for x, y in zip(a, b))
        lost = sum(y > x for x, y in zip(a, b))
        print(f"\n{name} ({first['unit']})")
        print(f"  ref  median {a2:.6g}  quartiles {a1:.6g} .. {a3:.6g}")
        print(f"  new  median {b2:.6g}  quartiles {b1:.6g} .. {b3:.6g}")
        change = f"{(b2 - a2) / a2:+.1%}" if a2 else "n/a"
        print(f"  new lower in {won}/{n} pairs, higher in {lost}; medians {change}, "
              f"apart by {abs(b2 - a2):.6g} against the ref's inter-quartile distance {a3 - a1:.6g}")
        print("  ref runs: " + " ".join(f"{x:.6g}" for x in a))
        print("  new runs: " + " ".join(f"{x:.6g}" for x in b))


if __name__ == "__main__":
    main()

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

Each pair's end-to-end values (BENCHMARK.json's `end_to_end` metrics)
go to stderr as the pair completes. A run that fails, or an interrupt,
ends the loop: the table then covers the pairs already made, and the
script exits non-zero.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


class RunFailed(Exception):
    pass


def run_bench(binary, tree, workload, flags, out):
    """One benchmark run from tree; returns the result line's metrics."""
    cmd = [binary, "-workload", workload, "-o", out] + flags
    proc = subprocess.run(cmd, cwd=tree, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = proc.stdout.splitlines()
    if not lines:
        raise RunFailed(f"{' '.join(cmd)}: exit status {proc.returncode}, no result line")
    result = json.loads(lines[-1])
    if proc.returncode or result["failed"] or not result["correct"]:
        raise RunFailed(f"{' '.join(cmd)}: {result['failed']} of {result['attempted']} operations failed")
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

        with open(os.path.join(root, "BENCHMARK.json")) as f:
            end_to_end = [m["name"] for m in json.load(f)["end_to_end"]]
        runs = {"ref": [], "new": []}
        stopped = None
        try:
            for pair in range(n):
                for side in (("ref", "new"), ("new", "ref"))[pair % 2]:
                    runs[side].append(run_bench(binaries[side], trees[side], workload, flags,
                                                os.path.join(tmp, "result.json")))
                print(f"pair {pair + 1}/{n}: " + "; ".join(
                    f"{name} ref {runs['ref'][-1][name]['value']:.6g} new {runs['new'][-1][name]['value']:.6g}"
                    for name in end_to_end if name in runs["ref"][-1]), file=sys.stderr)
        except (RunFailed, KeyboardInterrupt) as e:
            stopped = str(e) or "interrupted"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    done = min(len(runs["ref"]), len(runs["new"]))
    if stopped:
        print(f"perf-pairs: stopped after {done} of {n} pairs: {stopped}", file=sys.stderr)
    if done:
        summarize(runs["ref"][:done], runs["new"][:done], workload, flags, commit)
    if stopped:
        sys.exit(1)


def summarize(ref, new, workload, flags, commit):
    """Prints the table over the pairs ref[i], new[i]."""
    n = len(ref)
    print(f"perf-pairs: {workload} {' '.join(flags)}".rstrip() +
          f", ref {commit} vs working tree, {n} pairs (even pairs run the working tree first)")
    runs = {"ref": ref, "new": new}
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

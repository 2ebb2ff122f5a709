#!/usr/bin/env python3
"""Interleaved A/B pairs of the repository benchmark between two revisions.

Builds the benchmark binary (`benchmark/Cargo.toml`) of a base and a head
side, then runs `--pairs` pairs per workload and seed at the same
settings, alternating which side runs first. For every workload it prints
each end-to-end metric that BENCHMARK.json declares (or, with
`--trace 1`, each per-layer metric):

* medians with quartiles on both sides, and how many pairs the head side
  was better in (by the metric's `better` direction);
* the gap between the medians against the base side's interquartile
  range;
* per-pair ratios, head / base;
* a flag for every run that is not `correct`, reports `failed > 0`, or
  exits non-zero (such runs are left out of the statistics).

A side is either a git revision of this repository, built in a detached
`git worktree` under `--workdir` and removed again once its binary is
built (the binary of a revision is reused on later calls), or a directory
holding a checkout, built as it stands. Every build writes to its own
target directory under `--workdir`, and every run starts in `--workdir`,
so nothing lands in the checkouts. Every run lasts BENCHMARK.json's
`run_seconds`, and each run's result line goes to stderr as JSON.

Quartiles are the inclusive (linear-interpolation) quartiles of
`statistics.quantiles`.

Usage:
    python3 scripts/ab_pairs.py --base HEAD~1 --head . \\
        --workloads serve_small_batch --seeds 7,42 --pairs 5 \\
        [--trace 0] [--workdir DIR]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(
        ["git", "-C", REPO, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def cargo_build(src, target_dir):
    manifest = os.path.join(src, "benchmark", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        check=True,
        env=env,
    )
    return os.path.join(target_dir, "release", "venom-benchmark")


def build_side(spec, workdir):
    """Returns `(label, binary)` for a side: a directory or a revision."""
    if os.path.isdir(spec):
        src = os.path.abspath(spec)
        label = "dir:" + src
        name = "dir-" + src.strip(os.sep).replace(os.sep, "_")
        return label, cargo_build(src, os.path.join(workdir, "target-" + name))
    sha = git("rev-parse", "--verify", spec + "^{commit}")
    target = os.path.join(workdir, "target-" + sha[:12])
    binary = os.path.join(target, "release", "venom-benchmark")
    if not os.path.exists(binary):
        tree = os.path.join(workdir, "src-" + sha[:12])
        git("worktree", "add", "--detach", tree, sha)
        try:
            cargo_build(tree, target)
        finally:
            git("worktree", "remove", "--force", tree)
    return sha[:12], binary


def run_once(binary, workload, seed, seconds, trace, workdir):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-200:])}
    return json.loads(lines[-1])


def fmt(x):
    return "%.0f" % x if abs(x) >= 1000 else "%.4g" % x


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def report(workload, seeds, runs, metrics, base_label, head_label):
    """Prints the table of one workload; `runs` is a list of
    `(seed, pair, {"base": line, "head": line})`."""
    print()
    print(
        "%s: %d pairs (seeds %s), base %s, head %s"
        % (workload, len(runs), ", ".join(map(str, seeds)), base_label, head_label)
    )
    for seed, pair, sides in runs:
        for side in ("base", "head"):
            line = sides[side]
            if "error" in line:
                print("  FLAG %s seed %d pair %d: %s" % (side, seed, pair, line["error"]))
            elif not line["correct"] or line["failed"] > 0:
                print(
                    "  FLAG %s seed %d pair %d: correct %s, failed %d"
                    % (side, seed, pair, line["correct"], line["failed"])
                )
    ok = [
        sides
        for _, _, sides in runs
        if all(
            "error" not in s and s["correct"] and s["failed"] == 0 for s in sides.values()
        )
    ]
    if not ok:
        print("  no pair with two clean runs")
        return
    print()
    print("| metric | base | head | head better | gap / base IQR |")
    print("|---|--:|--:|--:|--:|")
    ratio_lines = []
    for name, better in metrics:
        base = [s["base"]["metrics"][name]["value"] for s in ok]
        head = [s["head"]["metrics"][name]["value"] for s in ok]
        (b1, bm, b3), (h1, hm, h3) = quartiles(base), quartiles(head)
        wins = sum((h < b) if better == "lower" else (h > b) for b, h in zip(base, head))
        iqr = b3 - b1
        gap = "%s / %s" % (fmt(abs(hm - bm)), fmt(iqr))
        print(
            "| `%s` | %s (%s–%s) | %s (%s–%s) | %d/%d | %s |"
            % (name, fmt(bm), fmt(b1), fmt(b3), fmt(hm), fmt(h1), fmt(h3), wins, len(ok), gap)
        )
        ratios = ["%.2f" % (h / b) if b else "inf" for b, h in zip(base, head)]
        ratio_lines.append("  %s: %s" % (name, ", ".join(ratios)))
    print()
    print("Per-pair ratios (head / base):")
    print("\n".join(ratio_lines))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision or checkout directory")
    ap.add_argument("--head", required=True, help="git revision or checkout directory")
    ap.add_argument("--workdir", default=os.path.join(tempfile.gettempdir(), "venom-ab"))
    ap.add_argument("--workloads", help="comma-separated (default: all of BENCHMARK.json)")
    ap.add_argument("--seeds", default="7,42,11", help="comma-separated seeds")
    ap.add_argument("--pairs", type=int, default=5, help="pairs per workload and seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = [(m["name"], m["better"]) for m in declared]
    workloads = (
        args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    )
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = bench["run_seconds"]
    os.makedirs(args.workdir, exist_ok=True)
    workdir = os.path.abspath(args.workdir)

    base_label, base_bin = build_side(args.base, workdir)
    head_label, head_bin = build_side(args.head, workdir)
    binaries = {"base": base_bin, "head": head_bin}

    for workload in workloads:
        runs = []
        for pair in range(args.pairs):
            for i, seed in enumerate(seeds):
                order = ("base", "head") if (pair + i) % 2 == 0 else ("head", "base")
                sides = {}
                for side in order:
                    sides[side] = run_once(
                        binaries[side], workload, seed, seconds, args.trace, workdir
                    )
                    record = {"workload": workload, "seed": seed, "pair": pair, "side": side}
                    record["result"] = sides[side]
                    print(json.dumps(record), file=sys.stderr, flush=True)
                runs.append((seed, pair, sides))
        report(workload, seeds, runs, metrics, base_label, head_label)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Validate a freshly generated BENCH_SPMM.json and gate perf regressions.

Two jobs:

1. **Schema/content validation** — the series list is a stable contract
   (consumers key on labels); every expected label must be present with a
   positive median, and each fast path with a floor must beat its
   retained reference (`speedup_vs_ref` above the floor). The series are
   kernel-level; end-to-end runs are measured by `benchmark/`. Every
   validation failure is printed, and the regime and regression checks
   below still run, before the gate exits non-zero.

2. **Regression gate** — first fails if any series of the committed
   baseline is missing from the fresh run (a dropped series cannot
   regress, so silence must be an error), then compares the fresh run
   against the baseline on the shared labels. CI machines differ from
   the machine that produced the committed file, so raw milliseconds are
   not directly comparable; a label fails only when BOTH hold:

   * its raw ratio ``new/old`` exceeds ``--tolerance`` (it is actually
     slower than the committed number), and
   * its ratio exceeds ``--tolerance`` times the median ratio across all
     shared labels (it is slower *relative to the rest of the suite*,
     so a uniformly slower CI machine does not trip it).

   A uniform across-the-board slowdown fails the first test on every
   label and the gate reports it; a PR that legitimately speeds up most
   of the suite leaves untouched labels near raw ratio 1.0, below the
   first threshold.

Usage:
    check_bench_regression.py --baseline BENCH_SPMM.json \
        --new BENCH_SPMM.new.json [--tolerance 1.25]
"""

import argparse
import json
import statistics
import sys

EXPECTED_LABELS = [
    "fig09_k768_80pct",
    "fig09_k1536_80pct",
    "fig09_k3072_90pct",
    "bert_qkv_768",
    "bert_ffn_768x4096",
    "bert_k3072",
    "bert_1024x4096_80pct",
    "bert_1024x12288_95pct",
    "gpt3_4096x4096_75pct",
    # Plan-once/run-many serving series (ISSUE 3).
    "fig09_k768_80pct_planned",
    "fig09_k768_batch4x128",
    # Unified matmul surface series (ISSUE 4): plan_auto's winner plus one
    # planned dispatch per non-V:N:M storage format.
    "fig09_k768_auto",
    "fmt_nm24_k768",
    "fmt_csr_k768",
    "fmt_cvse_k768",
    "fmt_blocked_ell_k768",
    # Int8 quantized path (ISSUE 5): the planned i8 stream vs the f16
    # functional per-call path, and plan-once/run-many on the integer
    # path.
    "fig09_k768_i8",
    "fig09_k768_i8_plan",
    # Roofline dispatch (ISSUE 8): bandwidth-bound shapes routed by
    # plan_auto to the non-mma band path (vs the forced mma stream), and
    # the swapped-operand kernel vs the reference SpMM.
    "spmm_small_c",
    "spmm_tall_skinny",
    "spmm_swapped",
    # Planned sparse attention (ISSUE 9): the SDDMM -> masked softmax ->
    # planned P.V pipeline vs the unplanned per-call attention path, one
    # series per mask kind.
    "attn_causal",
    "attn_sliding_window",
    "attn_plan_vs_dense",
]

# Labels whose speedup over the retained reference path is the point of
# the series; a ratio at or below 1.0 means the fast path stopped being
# fast regardless of machine.
SPEEDUP_FLOORS = {
    "fig09_k768_80pct": 1.0,
    "fig09_k768_80pct_planned": 1.0,
    "fig09_k768_batch4x128": 1.0,
    # The auto-selected plan replays a condensed stream; its per-call
    # reference redoes tile selection and staging every dispatch.
    "fig09_k768_auto": 1.0,
    # The int8 series must beat their references: the planned i8 stream
    # vs the per-call f16 functional path, and the planned i8 replay vs
    # per-call re-quantization.
    "fig09_k768_i8": 1.0,
    "fig09_k768_i8_plan": 1.0,
    # The roofline-dispatch acceptance bar (ISSUE 8): on the memory-bound
    # (1024, 768, c=8) shape the band path must beat the mma-stream plan
    # by >= 1.3x; the tall-skinny route and the swapped-operand kernel
    # must at least clearly win their references.
    "spmm_small_c": 1.3,
    "spmm_tall_skinny": 1.2,
    "spmm_swapped": 1.2,
    # The planned-attention acceptance bar (ISSUE 9): the planned pipeline
    # must beat the unplanned per-call attention path by >= 1.3x on the
    # blockwise flagship; the causal mask keeps half the scores (so the
    # margin is structurally thinner) and the sliding window keeps ~12%
    # (so the win must be decisive).
    "attn_causal": 1.1,
    "attn_sliding_window": 1.8,
    "attn_plan_vs_dense": 1.3,
}

# Series whose roofline regime is part of the contract: the fresh run
# must report the same regime ("memory" / "compute") as the committed
# baseline — a silent flip means the counts model or the router moved
# the ridge without anyone re-gating the series.
REGIME_PINNED = [
    "spmm_small_c",
    "spmm_tall_skinny",
    "spmm_swapped",
    "attn_causal",
    "attn_sliding_window",
    "attn_plan_vs_dense",
]


def load_series(path):
    with open(path) as f:
        data = json.load(f)
    assert data.get("schema") == 1, f"{path}: unexpected schema {data.get('schema')}"
    return {s["label"]: s for s in data["series"]}


def validate(series):
    """Every schema/content failure of a fresh run, one message each: a
    missing series, a non-positive median, a speedup at or below its
    floor, a missing or malformed regime."""
    failures = []
    missing = [label for label in EXPECTED_LABELS if label not in series]
    if missing:
        failures.append(f"missing series: {missing}")
    for s in series.values():
        if not s.get("median_ms", 0) > 0:
            failures.append(f"non-positive median: {s}")
    for label, floor in SPEEDUP_FLOORS.items():
        if label not in series:
            continue
        speedup = series[label].get("speedup_vs_ref", 0.0)
        if not speedup > floor:
            failures.append(f"{label}: speedup_vs_ref {speedup} is not above {floor} "
                            f"(the fast path lost to its reference)")
    for label in REGIME_PINNED:
        if label in series and series[label].get("regime") not in ("memory", "compute"):
            failures.append(f"{label}: missing or malformed roofline regime: "
                            f"{series[label].get('regime')!r}")
    return failures


def check_regimes(baseline, new):
    """Fails when a regime-pinned series disagrees with the committed
    baseline's regime (the machine-independent half of the contract)."""
    failures = []
    for label in REGIME_PINNED:
        if label not in baseline or label not in new:
            continue  # introduced by this run, or reported missing by validate()
        old = baseline[label].get("regime")
        fresh = new[label].get("regime")
        if old is not None and fresh != old:
            print(f"FAIL: {label}: regime flipped {old!r} -> {fresh!r} "
                  f"vs the committed baseline")
            failures.append(label)
    return failures


def check_regressions(baseline, new, tolerance):
    # A series present in the committed baseline but absent from the
    # fresh run cannot regress by definition — so its disappearance must
    # itself fail the gate (a silently dropped series used to pass).
    dropped = sorted(set(baseline) - set(new))
    if dropped:
        print(f"FAIL: series present in the baseline but missing from the "
              f"fresh run: {dropped}")
    shared = sorted(label for label in set(baseline) & set(new)
                    if new[label].get("median_ms", 0) > 0)
    if not shared:
        print("FAIL: no shared series with a positive median between baseline and new run")
        return dropped + ["(no shared series)"]
    ratios = {label: new[label]["median_ms"] / baseline[label]["median_ms"] for label in shared}
    machine_factor = statistics.median(ratios.values())
    failures = list(dropped)
    for label, ratio in sorted(ratios.items()):
        rel = ratio / machine_factor
        regressed = ratio > tolerance and rel > tolerance
        marker = " <-- REGRESSION" if regressed else ""
        print(f"  {label:32s} new/old {ratio:6.2f}  vs suite median {rel:5.2f}x{marker}")
        if regressed:
            failures.append(label)
    print(f"machine-speed factor (median new/old): {machine_factor:.2f}")
    # Backstop against a change that taxes every path at once, which the
    # per-label rel test alone cannot see. The threshold is deliberately
    # loose (3x) because the factor also absorbs the honest speed gap
    # between the CI runner and the machine that produced the committed
    # file; machine-independent health is covered by the same-machine
    # speedup_vs_ref floors in validate().
    if machine_factor > 3.0:
        print(f"FAIL: suite-wide slowdown {machine_factor:.2f}x vs the committed baseline")
        failures.append("(suite-wide)")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True, help="committed BENCH_SPMM.json")
    ap.add_argument("--new", required=True, help="freshly generated BENCH_SPMM.json")
    ap.add_argument("--tolerance", type=float, default=1.25,
                    help="allowed slowdown versus the suite median ratio (default 1.25)")
    args = ap.parse_args()

    baseline = load_series(args.baseline)
    new = load_series(args.new)
    invalid = validate(new)
    for message in invalid:
        print(f"FAIL: {message}")

    failures = check_regimes(baseline, new)
    failures += check_regressions(baseline, new, args.tolerance)
    if failures:
        print(f"FAIL: {len(failures)} series regressed more than "
              f"{(args.tolerance - 1) * 100:.0f}% vs the committed baseline: {failures}")
    if invalid or failures:
        print(f"FAIL: {len(invalid)} validation and {len(failures)} baseline check failures")
        return 1
    planned = new["fig09_k768_80pct_planned"]
    print(f"ok: {len(new)} series; planned SpMM speedup "
          f"{planned['speedup_vs_ref']}x vs {planned['ref']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

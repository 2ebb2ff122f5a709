#!/usr/bin/env python3
"""Validate the telemetry artifacts written by `venom serve`.

Checks that

* the Prometheus exposition parses line-for-line (``# TYPE`` headers,
  ``name{labels} value`` samples) and carries the serving metric
  families a scraper depends on;
* the chrome://tracing JSON parses, is non-empty, and every event has
  the complete-event shape (``ph == "X"``, microsecond ``ts``/``dur``);
* the two artifacts agree: the number of ``plan_build`` spans in the
  trace equals the ``cache_builds_total{cache="plan"}`` counter, so a
  span dropped (or double-recorded) anywhere in the cache path fails CI;
* the exposition agrees with itself: ``serve_latency_ms_count`` equals
  ``serve_requests_total{outcome="served"}`` (one latency sample per
  served request);
* the exposition agrees with the run's own report (``--serve-log``):
  the ``plan cache`` footer line of ``venom serve`` (which runs exactly
  one plan cache) equals the ``cache_{hits,misses,builds}_total``
  samples.

Usage:
  check_telemetry.py --metrics metrics.txt --trace trace.json \
      --serve-log serve.txt
"""

import argparse
import json
import re
import sys

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+"
    r"(?P<value>[^\s]+)$"
)

FOOTER_RE = re.compile(
    r"^plan cache\s*:\s*(?P<hits>\d+)\s+hit\(s\),\s*(?P<misses>\d+)\s+miss\(es\),"
    r"\s*(?P<builds>\d+)\s+build\(s\)"
)

REQUIRED_SAMPLES = [
    'serve_requests_total{outcome="served"}',
    "serve_batches_total",
    'cache_hits_total{cache="plan"}',
    'cache_misses_total{cache="plan"}',
    'cache_builds_total{cache="plan"}',
    "serve_latency_ms_count",
]


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_metrics(path: str) -> dict:
    samples = {}
    typed = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                    fail(f"{path}:{lineno}: malformed TYPE line: {line!r}")
                typed.add(parts[2])
                continue
            if line.startswith("#"):
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                fail(f"{path}:{lineno}: unparseable sample line: {line!r}")
            try:
                value = float(m.group("value"))
            except ValueError:
                fail(f"{path}:{lineno}: non-numeric value: {line!r}")
            base = re.sub(r"_(bucket|sum|count)$", "", m.group("name"))
            if m.group("name") not in typed and base not in typed:
                fail(f"{path}:{lineno}: sample before its TYPE header: {line!r}")
            samples[m.group("name") + (m.group("labels") or "")] = value
    if not samples:
        fail(f"{path}: no samples")
    return samples


def parse_trace(path: str) -> list:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")
    for ev in events:
        for field in ("name", "cat", "ph", "ts", "dur", "pid", "tid"):
            if field not in ev:
                fail(f"{path}: event missing {field!r}: {ev}")
        if ev["ph"] != "X":
            fail(f"{path}: expected complete events only, got ph={ev['ph']!r}")
        if ev["dur"] < 0 or ev["ts"] < 0:
            fail(f"{path}: negative timestamp/duration: {ev}")
    return events


def check_serve_log(path: str, samples: dict) -> None:
    """Requires the serve footer's cache counts to equal the exposition's."""
    with open(path, encoding="utf-8") as f:
        footers = [m for m in map(FOOTER_RE.match, (l.strip() for l in f)) if m]
    if len(footers) != 1:
        fail(f"{path}: expected one 'plan cache' footer line, found {len(footers)}")
    for field in ("hits", "misses", "builds"):
        logged = int(footers[0].group(field))
        exposed = samples[f'cache_{field}_total{{cache="plan"}}']
        if logged != exposed:
            fail(
                f"serve log/exposition disagreement: {logged} {field} in {path} "
                f"vs cache_{field}_total{{cache=\"plan\"}} = {exposed:g}"
            )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--metrics", required=True, help="Prometheus text file")
    ap.add_argument("--trace", required=True, help="chrome://tracing JSON file")
    ap.add_argument(
        "--serve-log", required=True, help="stdout of the `venom serve` run"
    )
    args = ap.parse_args()

    samples = parse_metrics(args.metrics)
    for key in REQUIRED_SAMPLES:
        if key not in samples:
            fail(f"{args.metrics}: missing required sample {key!r}")
    served = samples['serve_requests_total{outcome="served"}']
    if served <= 0:
        fail(f"served counter must be positive, got {served}")
    latency_count = samples["serve_latency_ms_count"]
    if latency_count != served:
        fail(
            f"serve_latency_ms_count = {latency_count:g} vs "
            f"serve_requests_total{{outcome=\"served\"}} = {served:g}"
        )

    events = parse_trace(args.trace)
    names = {}
    for ev in events:
        names[ev["name"]] = names.get(ev["name"], 0) + 1
    for required in ("admission", "batch_dispatch", "plan_build"):
        if required not in names:
            fail(f"{args.trace}: no {required!r} spans (got {sorted(names)})")

    builds = samples['cache_builds_total{cache="plan"}']
    if names["plan_build"] != int(builds):
        fail(
            f"span/counter disagreement: {names['plan_build']} plan_build "
            f"span(s) vs cache_builds_total{{cache=\"plan\"}} = {builds:g}"
        )

    check_serve_log(args.serve_log, samples)
    print(
        f"OK: {len(samples)} samples, {len(events)} spans, "
        f"{served:g} served == latency count, "
        f"plan_build spans == builds counter ({builds:g}), "
        f"serve log cache counts == exposition"
    )


if __name__ == "__main__":
    main()

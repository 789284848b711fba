#!/usr/bin/env python3
"""Render docs/BENCHMARKS.md from BENCH_throughput.json, or compare two runs.

The bench binary (`./build/bench/throughput`) writes BENCH_throughput.json
at the repo root; this script turns it into the checked-in markdown report.
Regenerate both after any perf-relevant change:

    ./build/bench/throughput
    python3 tools/bench_report.py

Output is deterministic for a given JSON file (no timestamps), so a
regeneration with unchanged numbers produces a byte-identical report and
an empty diff.

Regression gate
---------------

    python3 tools/bench_report.py --compare old.json new.json

matches rows between the two runs (throughput rows by (name, threads),
registry histograms by metric name), prints the p99 delta for every pair,
and exits nonzero if any p99 regressed by more than 10%. Sub-0.05 ms rows
are reported but never fail the gate: at that scale a single scheduler
blip outweighs any code change, and a gate that cries wolf gets deleted.
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_INPUT = REPO_ROOT / "BENCH_throughput.json"
DEFAULT_OUTPUT = REPO_ROOT / "docs" / "BENCHMARKS.md"

# --compare fails on a >10% p99 regression...
REGRESSION_THRESHOLD = 0.10
# ...unless both sides sit below the timer-noise floor (ms).
NOISE_FLOOR_MS = 0.05


def fmt(x, digits=2):
    """Format a number with fixed digits, keeping integers unadorned."""
    if isinstance(x, int):
        return str(x)
    return f"{x:.{digits}f}"


def render(records):
    throughput = [r for r in records if "items_per_sec" in r]
    histograms = [r for r in records if r.get("name") == "histogram"]
    ch = next((r for r in records if r.get("name") == "ch_routing"), None)
    idx = next((r for r in records if r.get("name") == "index_retrieval"),
               None)
    machine = next((r for r in records if r.get("name") == "machine"), None)

    out = []
    out.append("# Benchmarks")
    out.append("")
    out.append("<!-- Generated by tools/bench_report.py from "
               "BENCH_throughput.json. Do not edit by hand:")
    out.append("       ./build/bench/throughput && "
               "python3 tools/bench_report.py -->")
    out.append("")
    out.append("All numbers come from `bench/throughput.cpp` over the "
               "deterministic 20-block")
    out.append("synthetic city (3000 trips, seed 20150401). The binary "
               "cross-checks every")
    out.append("parallel and accelerated configuration against the serial "
               "baseline and exits")
    out.append("nonzero on any divergence, so a table below never trades "
               "correctness for speed.")
    out.append("")

    if machine is not None:
        hc = machine.get("hardware_concurrency", 0)
        out.append("## Machine")
        out.append("")
        out.append(f"- `std::thread::hardware_concurrency()` = **{hc}**")
        if machine.get("cpu_model"):
            out.append(f"- CPU model: `{machine['cpu_model']}`")
        if machine.get("cpu_flags"):
            out.append(f"- ISA flags: `{machine['cpu_flags']}`")
        out.append("")
        if hc <= 1:
            out.append("> **Interpreting the thread sweeps below:** this "
                       "report was generated on a")
            out.append("> single-core machine. The thread pool caps its "
                       "workers at the core count")
            out.append("> (`src/common/parallel.cc`) — oversubscribing a "
                       "CPU-bound pool only adds")
            out.append("> context-switch latency, which previously showed "
                       "up as tens-of-ms p99")
            out.append("> tails — so every `threads = 2/4/8` row here "
                       "executes with one worker and")
            out.append("> measures the serial path. Regenerate this file "
                       "on a multi-core box to see")
            out.append("> the sweep spread out; output is certified "
                       "byte-identical at every width.")
            out.append("")

    out.append("## Throughput and latency")
    out.append("")
    out.append("| benchmark | threads | items/sec | p50 (ms) | p99 (ms) |")
    out.append("|---|---:|---:|---:|---:|")
    for r in throughput:
        out.append(
            f"| {r['name']} | {r['threads']} | {fmt(r['items_per_sec'])} "
            f"| {fmt(r['p50_ms'], 4)} | {fmt(r['p99_ms'], 4)} |")
    out.append("")
    if any(r["name"].startswith("MapMatch_") for r in throughput):
        out.append("`MapMatch_*` rows run the map matcher over the shared "
                   "scenario corpus")
        out.append("(`tests/scenario_dsl.h`): each row matches that "
                   "topology's corpus route at")
        out.append("three noise levels (0 m, 8 m, 30 m), so a "
                   "candidate-pruning regression on one")
        out.append("map shape surfaces as its own row instead of averaging "
                   "away city-wide.")
        out.append("")
    if any(r["name"].startswith("Model") or r["name"] == "PostSwapFirstRequest"
           for r in throughput):
        out.append("`ModelColdStart_container` is the time from "
                   "nothing-in-memory to a maker ready")
        out.append("to answer: mmap the model container (docs/FORMAT.md), "
                   "walk its header, section")
        out.append("table, and CRCs. `ModelReload_container` is the wall "
                   "time of one full")
        out.append("zero-downtime model swap (DESIGN.md §15): the same "
                   "load, then an atomic commit —")
        out.append("the old snapshot serves throughout. "
                   "`PostSwapFirstRequest` is the first")
        out.append("summarize answered by the freshly published snapshot, "
                   "with every cache cold:")
        out.append("the steady-state cost of a reload as a request actually "
                   "feels it.")
        out.append("")

    if ch is not None:
        out.append("## Contraction-hierarchy routing")
        out.append("")
        out.append("Point-to-point routing on a "
                   f"{ch['map_nodes']}-node generated map "
                   "(DESIGN.md §12): CH")
        out.append("preprocessing contracts the graph once, then answers "
                   "queries with a")
        out.append("bidirectional upward search over the hierarchy instead "
                   "of a full Dijkstra.")
        out.append("")
        out.append("| metric | value |")
        out.append("|---|---:|")
        out.append(f"| map size (nodes) | {ch['map_nodes']} |")
        out.append(f"| one-time build (ms) | {fmt(ch['build_ms'], 1)} |")
        out.append("| point-query speedup vs Dijkstra | "
                   f"**{fmt(ch['speedup_vs_dijkstra'])}×** |")
        out.append("")
        out.append("Every CH cost is cross-checked against plain Dijkstra "
                   "inside the bench run")
        out.append("(600 random OD pairs); a mismatch aborts the binary.")
        out.append("")

    if idx is not None:
        out.append("## Trajectory-index retrieval")
        out.append("")
        out.append("Similarity top-K and region/time-window queries "
                   "(DESIGN.md §16) served by the")
        out.append("grid-bucketed trajectory index versus the full-corpus "
                   "scan fallback, over")
        out.append("identical query sets. Both paths return identical "
                   "results (the bench aborts")
        out.append("on any divergence; `tests/index_test.cc` pins the same "
                   "equality against a")
        out.append("brute-force oracle), so the speedups trade nothing for "
                   "correctness. The")
        out.append("`SimilarTopK` and `RegionQuery` rows above are the "
                   "indexed serving paths")
        out.append("behind the `similar` and `query` verbs.")
        out.append("")
        out.append("| metric | value |")
        out.append("|---|---:|")
        out.append(f"| corpus trips | {idx['corpus_trips']} |")
        out.append(f"| posting-list entries | {idx['postings']} |")
        out.append("| SimilarTopK speedup vs scan | "
                   f"**{fmt(idx['similar_speedup_vs_scan'], 1)}×** |")
        out.append("| RegionQuery speedup vs scan | "
                   f"**{fmt(idx['region_speedup_vs_scan'], 1)}×** |")
        out.append("")

    if histograms:
        out.append("## Pipeline stage latencies")
        out.append("")
        out.append("Histogram snapshots from the metrics registry "
                   "(`common/metrics.h`) after the")
        out.append("bench workload; the same names are served live by "
                   "`stmaker_cli serve` via")
        out.append('`{"stats": 1}` requests. See docs/ARCHITECTURE.md for '
                   "the walkthrough of")
        out.append("where a request spends its time.")
        out.append("")
        out.append("| metric | count | mean (ms) | p50 (ms) | p95 (ms) "
                   "| p99 (ms) |")
        out.append("|---|---:|---:|---:|---:|---:|")
        for r in sorted(histograms, key=lambda r: r["metric"]):
            out.append(
                f"| `{r['metric']}` | {r['count']} | {fmt(r['mean_ms'], 4)} "
                f"| {fmt(r['p50_ms'], 4)} | {fmt(r['p95_ms'], 4)} "
                f"| {fmt(r['p99_ms'], 4)} |")
        out.append("")

    return "\n".join(out)


def load(path):
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise SystemExit(
            f"{path}: no such file. Run ./build/bench/throughput first (it "
            "writes BENCH_throughput.json at the repo root), or pass the "
            "path to a saved baseline.")
    except OSError as err:
        raise SystemExit(f"{path}: cannot read: {err}")
    try:
        records = json.loads(text)
    except json.JSONDecodeError as err:
        raise SystemExit(
            f"{path}: not valid JSON ({err}). The file is written "
            "atomically by the bench binary; a hand-edited or truncated "
            "copy cannot be compared — regenerate it.")
    if not isinstance(records, list):
        raise SystemExit(f"{path}: expected a JSON array of records")
    return records


def p99_rows(records):
    """Comparable (key, p99) pairs of one run, in file order.

    Throughput rows key as "name @Nt" so the same benchmark at different
    sweep widths compares independently; registry histograms key by their
    metric name.
    """
    rows = {}
    for r in records:
        if "items_per_sec" in r:
            rows[f"{r['name']} @{r['threads']}t"] = r["p99_ms"]
        elif r.get("name") == "histogram":
            rows[r["metric"]] = r["p99_ms"]
    return rows


def compare(old_path, new_path):
    old_rows = p99_rows(load(old_path))
    new_rows = p99_rows(load(new_path))
    shared = [k for k in new_rows if k in old_rows]
    if not shared:
        raise SystemExit("no comparable rows between the two runs")

    width = max(len(k) for k in shared)
    regressions = []
    print(f"{'row':<{width}}  {'old p99':>9}  {'new p99':>9}  delta")
    for key in shared:
        old_p99, new_p99 = old_rows[key], new_rows[key]
        delta = (new_p99 - old_p99) / old_p99 if old_p99 > 0 else 0.0
        regressed = (delta > REGRESSION_THRESHOLD and
                     max(old_p99, new_p99) >= NOISE_FLOOR_MS)
        flag = "  << REGRESSION" if regressed else ""
        print(f"{key:<{width}}  {old_p99:>9.4f}  {new_p99:>9.4f}  "
              f"{delta:>+7.1%}{flag}")
        if regressed:
            regressions.append(key)
    only_old = sorted(set(old_rows) - set(new_rows))
    only_new = sorted(set(new_rows) - set(old_rows))
    if only_old:
        print(f"# rows only in {old_path}: {', '.join(only_old)}")
    if only_new:
        print(f"# rows only in {new_path}: {', '.join(only_new)}")

    if regressions:
        print(f"\nFAIL: {len(regressions)} row(s) regressed p99 by more "
              f"than {REGRESSION_THRESHOLD:.0%}:")
        for key in regressions:
            print(f"  - {key}")
        return 1
    print(f"\nOK: no p99 regression above {REGRESSION_THRESHOLD:.0%} "
          f"across {len(shared)} rows")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Render docs/BENCHMARKS.md or compare two bench runs.")
    parser.add_argument("input", nargs="?", default=DEFAULT_INPUT,
                        help="bench JSON to render (default: repo root)")
    parser.add_argument("output", nargs="?", default=DEFAULT_OUTPUT,
                        help="markdown destination (default: docs/)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="diff p99 between two runs instead of "
                             "rendering; exits 1 on a >10%% regression")
    args = parser.parse_args(argv[1:])

    if args.compare:
        return compare(args.compare[0], args.compare[1])

    src, dst = Path(args.input), Path(args.output)
    records = load(src)
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_text(render(records))
    print(f"wrote {dst} ({len(records)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

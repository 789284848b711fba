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

Comparing two runs
------------------

    python3 tools/bench_report.py --compare old.json new.json

matches rows by (name, threads). Every row carries the median and quartiles
of its per-rep items/s. A row is flagged only when each side's median lies
outside the other side's quartile range: a smaller move is inside the
noise the runs themselves show. The script exits 1 only when a flagged row
got slower.
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_INPUT = REPO_ROOT / "BENCH_throughput.json"
DEFAULT_OUTPUT = REPO_ROOT / "docs" / "BENCHMARKS.md"


def band(b, digits):
    """A band as "median (q1–q3)"."""
    median, q1, q3 = (f"{b[k]:.{digits}f}" for k in ("median", "q1", "q3"))
    return f"{median} ({q1}–{q3})"


def render(records):
    rows = [r for r in records if "items_per_sec" in r]
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
    out.append("Each row runs its reps in one process; a cell reads "
               "median (q1–q3) over the")
    out.append("per-rep values, and `tools/bench_report.py --compare` "
               "flags a row only when")
    out.append("each run's median lies outside the other run's quartiles.")
    out.append("")
    out.append("The served cost is measured end to end by the serving "
               "benchmark")
    out.append("(`perfbench/`, metrics in perfbench/METRICS.md): tracing "
               "overhead")
    out.append("(`trace.overhead_p50_ms`, `trace.overhead_rps`), cold start "
               "and reload")
    out.append("(`setup.coldstart_s`, `reload_ms`, `model.reload_ms`), the "
               "first request after")
    out.append("a swap (`model.postswap_first_ms`) and the per-stage "
               "latencies. This report")
    out.append("keeps what it cannot show: thread sweeps, single-stage "
               "rows, the matcher per")
    out.append("topology, and the routing and index speedups over their "
               "baselines.")
    out.append("")

    if machine is not None:
        out.append("## Machine")
        out.append("")
        out.append("- `std::thread::hardware_concurrency()` = "
                   f"**{machine['hardware_concurrency']}**; the thread "
                   "sweeps stop there")
        if machine.get("cpu_model"):
            out.append(f"- CPU model: `{machine['cpu_model']}`")
        out.append("")

    out.append("## Throughput and latency")
    out.append("")
    out.append("| benchmark | threads | reps | items/sec | p50 (ms) |")
    out.append("|---|---:|---:|---:|---:|")
    for r in rows:
        out.append(
            f"| {r['name']} | {r['threads']} | {r['reps']} "
            f"| {band(r['items_per_sec'], 1)} | {band(r['p50_ms'], 4)} |")
    out.append("")
    out.append("`Train` and `SummarizeBatch` items are trips; a rep is one "
               "call over the whole")
    out.append("corpus or batch, so their p50 is that call's wall time. "
               "`MapMatch_*` rows run")
    out.append("the map matcher over the shared scenario corpus "
               "(`tests/scenario_dsl.h`): each")
    out.append("row matches that topology's corpus route at three noise "
               "levels (0 m, 8 m,")
    out.append("30 m), so a candidate-pruning regression on one map shape "
               "surfaces as its own")
    out.append("row instead of averaging away city-wide.")
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
        out.append("The speedup is `RouteCH` over `RouteDijkstra` items/s, "
                   "one ratio per rep.")
        out.append("")
        out.append("| metric | value |")
        out.append("|---|---:|")
        out.append(f"| map size (nodes) | {ch['map_nodes']} |")
        out.append(f"| reps | {ch['reps']} |")
        out.append("| point-query speedup vs Dijkstra | "
                   f"**{band(ch['speedup_vs_dijkstra'], 2)}×** |")
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
                   "scan fallback. The")
        out.append("`SimilarTopK` and `RegionQuery` rows above are the "
                   "indexed serving paths")
        out.append("behind the `similar` and `query` verbs; the `_scan` rows "
                   "replay a subset of")
        out.append("the same queries after the index is dropped and are the "
                   "speedups' base, one")
        out.append("ratio per rep. Both paths return identical results (the "
                   "bench aborts on any")
        out.append("divergence; `tests/index_test.cc` pins the same equality "
                   "against a brute-force")
        out.append("oracle), so the speedups trade nothing for correctness.")
        out.append("")
        out.append("| metric | value |")
        out.append("|---|---:|")
        out.append(f"| corpus trips | {idx['corpus_trips']} |")
        out.append(f"| posting-list entries | {idx['postings']} |")
        out.append(f"| reps | {idx['reps']} |")
        out.append("| SimilarTopK speedup vs scan | "
                   f"**{band(idx['similar_speedup_vs_scan'], 1)}×** |")
        out.append("| RegionQuery speedup vs scan | "
                   f"**{band(idx['region_speedup_vs_scan'], 1)}×** |")
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


def items_per_sec_bands(path):
    """The items/s band of every row of one run, keyed "name @Nt"."""
    rows = {}
    for r in load(path):
        if "items_per_sec" not in r:
            continue
        b = r["items_per_sec"]
        if not isinstance(b, dict):
            raise SystemExit(
                f"{path}: row {r['name']} has no quartiles; it was written "
                "by a bench binary that ran each row once — regenerate it.")
        rows[f"{r['name']} @{r['threads']}t"] = b
    return rows


def outside(x, b):
    return x < b["q1"] or x > b["q3"]


def compare(old_path, new_path):
    old_rows = items_per_sec_bands(old_path)
    new_rows = items_per_sec_bands(new_path)
    shared = [k for k in new_rows if k in old_rows]
    if not shared:
        raise SystemExit("no comparable rows between the two runs")

    width = max(len(k) for k in shared)
    slower = []
    print(f"{'row':<{width}}  {'old items/s (q1–q3)':>32}  "
          f"{'new items/s (q1–q3)':>32}  delta")
    for key in shared:
        old, new = old_rows[key], new_rows[key]
        delta = ((new["median"] - old["median"]) / old["median"]
                 if old["median"] > 0 else 0.0)
        flag = ""
        if outside(old["median"], new) and outside(new["median"], old):
            if new["median"] < old["median"]:
                flag = "  << SLOWER"
                slower.append(key)
            else:
                flag = "  << faster"
        print(f"{key:<{width}}  {band(old, 1):>32}  {band(new, 1):>32}  "
              f"{delta:>+7.1%}{flag}")
    only_old = sorted(set(old_rows) - set(new_rows))
    only_new = sorted(set(new_rows) - set(old_rows))
    if only_old:
        print(f"# rows only in {old_path}: {', '.join(only_old)}")
    if only_new:
        print(f"# rows only in {new_path}: {', '.join(only_new)}")

    if slower:
        print(f"\nFAIL: {len(slower)} row(s) slower, each median outside "
              "the other run's quartiles:")
        for key in slower:
            print(f"  - {key}")
        return 1
    print(f"\nOK: no row slower beyond both runs' quartiles across "
          f"{len(shared)} rows")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Render docs/BENCHMARKS.md or compare two bench runs.")
    parser.add_argument("input", nargs="?", default=DEFAULT_INPUT,
                        help="bench JSON to render (default: repo root)")
    parser.add_argument("output", nargs="?", default=DEFAULT_OUTPUT,
                        help="markdown destination (default: docs/)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare items/s between two runs instead of "
                             "rendering; exits 1 when a row got slower "
                             "beyond both runs' quartiles")
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

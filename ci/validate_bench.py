#!/usr/bin/env python3
"""CI-side validation of the benches' machine-readable output.

One subcommand per gate, so every workflow job shares this file instead of
carrying its own inline python:

  validate_bench.py bench-json NAME.json [NAME.json ...]
      each file is a bench run whose "bench" key matches its stem; a
      bench_olap run must also report its roll-up reuse leg equal

  validate_bench.py traces GLOB [GLOB ...] --query-log=FILE
      Chrome trace-event JSON (Perfetto-loadable) + JSONL query log

  validate_bench.py metrics FILE
      Prometheus text-format exposition scraped from the shell

  validate_bench.py cache-ablation --off=F --on=F --olap=F --pred=F --glob=F
      hit-rate and byte-identity assertions for the cache ablation job

  validate_bench.py storage-gates FILE [--min-speedup=10] [--max-ratio=0.6]
      the RDFA3 storage gates: mmap cold start must beat the heap decode by
      min-speedup x, the compressed snapshot must be at most max-ratio of
      the uncompressed RDFA2 bytes, and every suite answer must be
      byte-identical across the heap and mapped backends

  validate_bench.py planner-gates --heap=F --mmap=F [--min-ratio=1.3]
      the planner-v2 gates: the DP configuration must scan at least
      min-ratio x fewer rows than the adaptive one over the suite, and every
      (query, config) result-set hash must agree between the heap and mmap
      runs

  validate_bench.py server-gates FILE [FILE ...] [--require-shed]
      the HTTP endpoint gates: every leg must have served requests with
      nonzero throughput and a p99, zero transport/4xx/5xx errors, and no
      sheds or timeouts outside the injected-shed leg (which in turn must
      draw real 503s); --require-shed additionally demands that leg exists

  validate_bench.py obs-gates --bench=F --explain=F --slow-dir=DIR
                              [--max-overhead-pct=5] [--epsilon-ms=2]
                              [--min-stages=6]
      the observability gates: the bench's profiling-on/off leg must be
      byte-identical with bounded overhead, the shell's EXPLAIN output must
      match the plan-JSON schema, its EXPLAIN ANALYZE profile must name a
      filter stage, and every slow-query capture must parse
      and carry an operator profile naming at least min-stages distinct
      stages across the directory; an analyze line's filter_ms and a
      capture's filter/group-aggregate/projection exec_stats times must
      equal the sums of their outermost profile nodes, and an analyze
      line's stage times must not sum past its total; an analyze line's
      bgp-join steps must fit inside their BGP runs, whose time less the
      filters and index builds inside them is its bgp_ms, and an analyze
      line without planner v2 must show a star step listing its patterns
      and their rows as ExecStats reports them

Exits non-zero (via assert) on any violated gate.
"""

import argparse
import glob
import json
import os
import re
import sys


def cmd_bench_json(args):
    for path in args.files:
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as f:
            doc = json.load(f)
        assert doc["bench"] == name, (name, doc.get("bench"))
        if name == "bench_olap":
            # The roll-up reuse leg: rolling up the materialized finer cube
            # must answer as re-querying the base KG does.
            assert doc["rollup_reuse"]["equal"] is True, doc["rollup_reuse"]
        print(name, "ok:", len(doc["runs"]), "runs")


def cmd_traces(args):
    files = []
    for pattern in args.globs:
        files.extend(glob.glob(pattern))
    assert files, "no trace files matched %s" % (args.globs,)
    stages = set()
    for path in files:
        with open(path) as f:
            doc = json.load(f)
        # Chrome trace-event JSON of completed ("X") events, loadable in
        # Perfetto; instant ("i") events are allowed for markers.
        assert doc["displayTimeUnit"] == "ms", path
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "i"), (path, ev)
            if ev["ph"] == "X":
                assert "ts" in ev and "dur" in ev, (path, ev)
            stages.add(ev["name"])
    required = {"parse", "plan", "bgp-join", "group-aggregate",
                "admission-queue", "execute"}
    missing = required - stages
    assert not missing, "stages missing from traces: %s" % missing
    lines = []
    if args.query_log:
        # The structured query log is one JSON object per line.
        lines = [json.loads(l) for l in open(args.query_log)]
        assert lines and all("outcome" in l for l in lines)
    print("%d trace files, %d distinct stages, %d query-log lines: ok"
          % (len(files), len(stages), len(lines)))


def cmd_metrics(args):
    # Prometheus text format: '# HELP'/'# TYPE' comments and
    # 'name[{labels}] value' samples.
    sample = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.+eE-]+(Inf)?$")
    names = set()
    for line in open(args.file):
        line = line.rstrip("\n")
        if not line.startswith(("rdfa_", "# ")):
            continue  # shell prompt / table output around the block
        if line.startswith("# "):
            continue
        assert sample.match(line), line
        names.add(line.split("{")[0].split(" ")[0])
    for required in ("rdfa_queries_total", "rdfa_query_latency_ms_count"):
        assert any(n.startswith(required) for n in names), required
    print("%d metric series: ok" % len(names))


def cmd_cache_ablation(args):
    off = json.load(open(args.off))
    on = json.load(open(args.on))
    olap = json.load(open(args.olap))
    # Cache off: nothing may hit, nothing may diverge.
    assert off["cache_mb"] == 0, off["cache_mb"]
    assert off["answer_cache"]["hits"] == 0, off["answer_cache"]
    assert off["cache_mismatches"] == 0, off["cache_mismatches"]
    # Cache on: the second iteration must hit, and every cached table must
    # be byte-identical to the uncached first pass.
    assert on["cache_mb"] == 64, on["cache_mb"]
    assert on["answer_cache"]["hits"] > 0, on["answer_cache"]
    assert on["answer_cache"]["hit_rate"] > 0, on["answer_cache"]
    assert on["cache_mismatches"] == 0, on["cache_mismatches"]
    assert on["failures"] == 0, on["failures"]
    assert olap["rollup_cache"]["hits"] > 0, olap["rollup_cache"]
    assert olap["cache_mismatches"] == 0, olap["cache_mismatches"]
    # Rollup cache must stay warm across commits that only touch predicates
    # outside the cube's footprint.
    assert olap["update_rounds"] > 0, olap
    assert olap["update_hits"] == olap["update_rounds"], olap
    # Mixed read/write: predicate-granular invalidation keeps a nonzero hit
    # rate under a writer; the global ablation drops to zero. Both stay
    # byte-identical to the uncached reference.
    pred = json.load(open(args.pred))["mixed_rw"]
    glob_ = json.load(open(args.glob))["mixed_rw"]
    assert pred["invalidation"] == "predicate", pred
    assert glob_["invalidation"] == "global", glob_
    assert pred["mismatches"] == 0, pred
    assert glob_["mismatches"] == 0, glob_
    assert pred["answer_cache"]["hit_rate"] > 0, pred["answer_cache"]
    assert glob_["answer_cache"]["hits"] == 0, glob_["answer_cache"]
    print("cache off: 0 hits; cache on:", on["answer_cache"]["hits"],
          "answer hits at rate", on["answer_cache"]["hit_rate"],
          "; rollup hits:", olap["rollup_cache"]["hits"],
          "- all byte-identical; mixed-rw hit rate",
          pred["answer_cache"]["hit_rate"], "(predicate) vs",
          glob_["answer_cache"]["hit_rate"], "(global)")


def cmd_storage_gates(args):
    doc = json.load(open(args.file))
    s = doc["storage"]
    assert doc["failures"] == 0, "bench reported %s failures" % doc["failures"]
    # Every query in the suite must produce byte-identical answers on the
    # heap and mapped backends; RunStorageLeg also counts a failure per
    # divergence, so this is belt and braces.
    assert s["byte_identical"] == s["suite_queries"], (
        "only %s/%s suite answers byte-identical across backends"
        % (s["byte_identical"], s["suite_queries"]))
    speedup = s["cold_start_speedup"]
    assert speedup >= args.min_speedup, (
        "mmap cold start only %.1fx faster than heap decode "
        "(gate: >= %.1fx; heap %.2f ms vs mmap %.2f ms)"
        % (speedup, args.min_speedup, s["heap_load_ms"], s["mmap_open_ms"]))
    ratio = s["disk_ratio"]
    assert ratio <= args.max_ratio, (
        "RDFA3 snapshot is %.2fx of the RDFA2 bytes (gate: <= %.2fx; "
        "%s vs %s bytes)"
        % (ratio, args.max_ratio, s["v3_bytes"], s["v2_bytes"]))
    print("storage gates ok: cold start %.1fx (>= %.1fx), disk %.2fx "
          "(<= %.2fx), %d/%d answers byte-identical at %d triples"
          % (speedup, args.min_speedup, ratio, args.max_ratio,
             s["byte_identical"], s["suite_queries"], s["triples"]))


def cmd_planner_gates(args):
    heap = json.load(open(args.heap))
    mmap_ = json.load(open(args.mmap))
    assert heap["storage"] == "heap", heap["storage"]
    assert mmap_["storage"] == "mmap", mmap_["storage"]
    for doc, name in ((heap, "heap"), (mmap_, "mmap")):
        assert doc["byte_identical"], "%s run diverged across configs" % name

    # Gate 1: the DP planner must beat the adaptive configuration on
    # total rows scanned by min-ratio x (the heap run is authoritative).
    ratio = heap["planner_ratio"]
    assert ratio >= args.min_ratio, (
        "planner v2 scans only %.2fx fewer rows than adaptive "
        "(gate: >= %.2fx; adaptive %s vs dp %s)"
        % (ratio, args.min_ratio, heap["adaptive_rows_scanned"],
           heap["dp_rows_scanned"]))

    # Gate 2: every (query, config) result-set hash must agree between the
    # heap and mmap runs — same answers whichever backend served them.
    def hashes(doc):
        return {(r["query"], r["config"]): r["tsv_hash"]
                for r in doc["runs"]}
    h_heap, h_mmap = hashes(heap), hashes(mmap_)
    assert h_heap.keys() == h_mmap.keys(), (
        "run sets differ between heap and mmap")
    diverged = [k for k in h_heap if h_heap[k] != h_mmap[k]]
    assert not diverged, "heap/mmap result hashes diverge: %s" % diverged

    print("planner gates ok: dp %.2fx fewer rows than adaptive "
          "(>= %.2fx), %d (query, config) hashes identical across backends"
          % (ratio, args.min_ratio, len(h_heap)))


def cmd_server_gates(args):
    for path in args.files:
        doc = json.load(open(path))
        assert doc["bench"] == "bench_server", path
        runs = doc["runs"]
        assert runs, "no runs in %s" % path
        for r in runs:
            leg = "%s:%s" % (os.path.basename(path), r["name"])
            assert r["requests"] > 0, leg + " served no requests"
            assert r["throughput_rps"] > 0, leg + " has zero throughput"
            assert "p99_ms" in r and r["p99_ms"] >= 0, leg + " lacks p99"
            assert r["transport_errors"] == 0, (leg, r["transport_errors"])
            assert r["errors_4xx"] == 0, (leg, r["errors_4xx"])
            # 503/504 are tracked separately, so errors_5xx is strictly
            # "unexpected 5xx" (500s etc.) — zero everywhere.
            assert r["errors_5xx"] == 0, (leg, r["errors_5xx"])
            if r["name"] == "closed-shed":
                # The injected-shed leg must prove the 503 path reaches the
                # wire — and still serve some queries between sheds.
                assert r["shed_503"] > 0, leg + " drew no 503s"
                assert r["ok_200"] > 0, leg + " served nothing"
            else:
                assert r["shed_503"] == 0, (leg, r["shed_503"])
                assert r["timeout_504"] == 0, (leg, r["timeout_504"])
                assert r["ok_200"] == r["requests"], (leg, r)
        if args.require_shed:
            assert any(r["name"] == "closed-shed" for r in runs), (
                "%s has no injected-shed leg" % path)
        print("%s: %d legs ok (%s)"
              % (os.path.basename(path), len(runs),
                 ", ".join("%s %.0f req/s p99 %.1f ms"
                           % (r["name"], r["throughput_rps"], r["p99_ms"])
                           for r in runs)))


def _check_plan_json(plan):
    """Asserts `plan` matches the EXPLAIN plan-JSON schema."""
    assert plan["form"] in ("select", "ask", "construct", "describe"), plan
    assert plan["strategy"] in ("adaptive", "nested-loop"), plan["strategy"]
    assert isinstance(plan["use_dp"], bool), plan
    assert isinstance(plan["threads"], int) and plan["threads"] >= 1, plan
    assert plan["backend"] in ("heap", "mmap"), plan["backend"]
    assert isinstance(plan["bgps"], list), plan
    for bgp in plan["bgps"]:
        assert isinstance(bgp["dp"], bool), bgp
        assert isinstance(bgp["steps"], list) and bgp["steps"], bgp
        for step in bgp["steps"]:
            assert isinstance(step["pattern"], int), step
            assert step["strategy"] in ("S", "A"), step
            assert step["perm"] in ("SPO", "POS", "OSP"), step
            assert step["est_rows"] >= 0, step
            assert step["est_cost"] >= 0, step


def _profile_ops(nodes, out):
    """Collects every "op" name from a nested profile tree into `out`."""
    for node in nodes:
        assert "op" in node and "ms" in node, node
        out.add(node["op"])
        _profile_ops(node.get("children", []), out)


# ExecStats timing fields and the profile op that is each one's clock.
_STAGE_FIELDS = (("filter_ms", "filter"),
                 ("bind_ms", "bind"),
                 ("group_agg_ms", "group-aggregate"),
                 ("projection_ms", "projection"),
                 ("order_ms", "order-distinct"))

# Every ExecStats stage time; together they fit inside total_ms.
_STAGE_TIMES = ("index_build_ms", "bgp_ms", "filter_ms", "bind_ms",
                "group_agg_ms", "projection_ms", "order_ms")


def _profile_nodes(nodes, op, out):
    """Collects the outermost nodes named `op` of a nested profile tree into
    `out`. It does not descend into a collected node: a nested node of the
    same op (a filter inside an EXISTS probe's filter) is timed inside it."""
    for node in nodes:
        if node["op"] == op:
            out.append(node)
        else:
            _profile_nodes(node.get("children", []), op, out)


def _check_stage_field(stats, profile, field, op, where):
    """Asserts ExecStats `field` equals the summed ms of the outermost `op`
    nodes of `profile`, up to the %.3f print rounding (0.0005 ms per
    printed number, the field's own included)."""
    nodes = []
    _profile_nodes(profile, op, nodes)
    summed = sum(n["ms"] for n in nodes)
    slack = 0.0005 * (len(nodes) + 1)
    assert abs(stats[field] - summed) <= slack, (
        "%s: %s %.3f ms vs %d %s spans summing to %.3f ms"
        % (where, field, stats[field], len(nodes), op, summed))


def _outer_bgp_nodes(nodes, out):
    """Collects the "bgp" nodes of a profile tree that lie outside any
    "filter" node: the BGP runs bgp_ms times (an EXISTS probe's runs are
    timed in its filter)."""
    for node in nodes:
        if node["op"] == "bgp":
            out.append(node)
        elif node["op"] != "filter":
            _outer_bgp_nodes(node.get("children", []), out)


def _check_join_steps(stats, profile, where):
    """Asserts the join-step spans reconcile with bgp_ms: each BGP run's
    bgp-join steps fit inside it, and bgp_ms is the runs' time less the
    filters and index builds they ran, up to the %.3f print rounding.
    Returns the run's star steps."""
    runs = []
    _outer_bgp_nodes(profile, runs)
    own_ms = 0.0
    printed = 1
    stars = []
    for run in runs:
        children = run.get("children", [])
        steps = [c for c in children if c["op"] == "bgp-join"]
        inner = [c for c in children
                 if c["op"] == "filter" or c["op"].startswith("index-build")]
        slack = 0.0005 * (len(steps) + 1)
        assert sum(c["ms"] for c in steps) <= run["ms"] + slack, (
            "%s: join steps sum past their bgp span" % where)
        own_ms += run["ms"] - sum(c["ms"] for c in inner)
        printed += 1 + len(inner)
        stars += [c for c in steps if c["args"].get("strategy") == "star"]
    assert abs(stats["bgp_ms"] - own_ms) <= 0.0005 * printed, (
        "%s: bgp_ms %.3f vs %.3f ms from %d bgp spans"
        % (where, stats["bgp_ms"], own_ms, len(runs)))
    return stars


def _check_star_steps(stats, stars, where):
    """Asserts a star step's span lists its patterns and each pattern's
    rows, and that they are the ExecStats rows of those patterns."""
    assert stars, "%s: the greedy pipeline ran no star step" % where
    starred = [(p, r) for p, r, k in zip(stats["join_order"],
                                         stats["rows_scanned"],
                                         stats["join_strategy"]) if k == "*"]
    listed = []
    for star in stars:
        patterns = [int(x) for x in star["args"]["patterns"].split(",")]
        rows = [int(x) for x in star["args"]["pattern_rows"].split(",")]
        assert len(patterns) >= 2 and len(rows) <= len(patterns), star
        assert sum(rows) == int(star["args"]["rows_scanned"]), star
        listed += list(zip(patterns, rows))
    assert listed == starred, (
        "%s: star spans list %s, ExecStats %s" % (where, listed, starred))


def cmd_obs_gates(args):
    # Gate 1: the profiled leg of the bench must return byte-identical
    # answers with bounded overhead. The epsilon absorbs timer noise on the
    # one-core CI runners; the percentage is the real budget.
    doc = json.load(open(args.bench))
    obs = doc["observability"]
    assert doc["failures"] == 0, "bench reported %s failures" % doc["failures"]
    assert obs["byte_identical"] == obs["pairs"], (
        "only %s/%s profiled answers byte-identical"
        % (obs["byte_identical"], obs["pairs"]))
    budget = obs["off_p50_ms"] * (1 + args.max_overhead_pct / 100.0) \
        + args.epsilon_ms
    assert obs["on_p50_ms"] <= budget, (
        "profiling overhead %.2f ms p50 vs %.2f ms off (budget %.2f ms)"
        % (obs["on_p50_ms"], obs["off_p50_ms"], budget))
    assert obs["distinct_stages"] >= args.min_stages, (
        "profiled runs named only %s distinct stages (gate: >= %s)"
        % (obs["distinct_stages"], args.min_stages))

    # Gate 2: every EXPLAIN / EXPLAIN ANALYZE line the shell printed must
    # match the plan-JSON schema (analyze lines nest the plan under "plan"
    # and add a "profile" tree).
    plans = analyzed = greedy = 0
    for line in open(args.explain):
        line = line.strip()
        while line.startswith("rdfa>"):  # interactive prompt prefix
            line = line[len("rdfa>"):].lstrip()
        if not line.startswith("{"):
            continue  # banner / table noise around the JSON
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "plan" in obj:
            _check_plan_json(obj["plan"])
            assert obj["ok"] in (True, False), obj
            ops = set()
            _profile_ops(obj["profile"], ops)
            assert "execute" in ops, ops
            # The shell script's range click puts a FILTER in the query;
            # its time must show as its own stage, counted once: an EXISTS
            # probe's nested filters are inside the outermost filter's time.
            assert "filter" in ops, ops
            stats = obj["stats"]
            _check_stage_field(stats, obj["profile"], "filter_ms", "filter",
                               "analyze line %d" % (analyzed + 1))
            where = "analyze line %d" % (analyzed + 1)
            stars = _check_join_steps(stats, obj["profile"], where)
            if not obj["plan"]["use_dp"]:
                # The greedy pipeline runs the script's star on ?x1 (type,
                # manufacturer, price) as one star step.
                _check_star_steps(stats, stars, where)
                greedy += 1
            staged = sum(stats[f] for f in _STAGE_TIMES)
            slack = 0.0005 * (len(_STAGE_TIMES) + 1)
            assert staged <= stats["total_ms"] + slack, (
                "analyze line %d: stage times sum to %.3f ms, past the "
                "%.3f ms total" % (analyzed + 1, staged, stats["total_ms"]))
            analyzed += 1
        elif "form" in obj:
            _check_plan_json(obj)
            plans += 1
    assert plans > 0, "no EXPLAIN output found in %s" % args.explain
    assert analyzed > 0, "no EXPLAIN ANALYZE output in %s" % args.explain
    assert greedy > 0, "no EXPLAIN ANALYZE without planner v2 in %s" % (
        args.explain)

    # Gate 3: every slow-query capture parses, and across the ring the
    # embedded operator profiles name enough distinct stages to triage with.
    # A capture with both exec_stats and a profile must agree on the stage
    # times: each stage's outermost spans are its ExecStats field's only
    # clock, so the field equals their summed ms up to the print rounding.
    files = sorted(glob.glob(os.path.join(args.slow_dir, "slow-*.json")))
    assert files, "no slow-query captures under %s" % args.slow_dir
    stages = set()
    reconciled = 0
    for path in files:
        with open(path) as f:
            rec = json.load(f)
        assert "outcome" in rec and "query_hash" in rec, path
        _profile_ops(rec.get("profile", []), stages)
        if "exec_stats" in rec and rec.get("profile"):
            for field, op in _STAGE_FIELDS:
                _check_stage_field(rec["exec_stats"], rec["profile"], field,
                                   op, path)
            reconciled += 1
    assert reconciled > 0, "no capture carries both exec_stats and a profile"
    assert len(stages) >= args.min_stages, (
        "slow captures name only %d distinct stages %s (gate: >= %d)"
        % (len(stages), sorted(stages), args.min_stages))

    print("obs gates ok: overhead %.2f -> %.2f ms p50 (budget %.2f), "
          "%d/%d byte-identical, %d explain + %d analyze lines "
          "(%d with star steps), "
          "%d captures naming %d stages, %d reconciled with exec_stats"
          % (obs["off_p50_ms"], obs["on_p50_ms"], budget,
             obs["byte_identical"], obs["pairs"], plans, analyzed, greedy,
             len(files), len(stages), reconciled))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("bench-json")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_bench_json)

    p = sub.add_parser("traces")
    p.add_argument("globs", nargs="+")
    p.add_argument("--query-log", default="")
    p.set_defaults(func=cmd_traces)

    p = sub.add_parser("metrics")
    p.add_argument("file")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("cache-ablation")
    p.add_argument("--off", required=True)
    p.add_argument("--on", required=True)
    p.add_argument("--olap", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--glob", required=True)
    p.set_defaults(func=cmd_cache_ablation)

    p = sub.add_parser("storage-gates")
    p.add_argument("file")
    p.add_argument("--min-speedup", type=float, default=10.0)
    p.add_argument("--max-ratio", type=float, default=0.6)
    p.set_defaults(func=cmd_storage_gates)

    p = sub.add_parser("planner-gates")
    p.add_argument("--heap", required=True)
    p.add_argument("--mmap", required=True)
    p.add_argument("--min-ratio", type=float, default=1.3)
    p.set_defaults(func=cmd_planner_gates)

    p = sub.add_parser("server-gates")
    p.add_argument("files", nargs="+")
    p.add_argument("--require-shed", action="store_true")
    p.set_defaults(func=cmd_server_gates)

    p = sub.add_parser("obs-gates")
    p.add_argument("--bench", required=True)
    p.add_argument("--explain", required=True)
    p.add_argument("--slow-dir", required=True)
    p.add_argument("--max-overhead-pct", type=float, default=5.0)
    p.add_argument("--epsilon-ms", type=float, default=2.0)
    p.add_argument("--min-stages", type=int, default=6)
    p.set_defaults(func=cmd_obs_gates)

    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

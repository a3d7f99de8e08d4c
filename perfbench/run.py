#!/usr/bin/env python3
"""Serving benchmark of the Mokey server.

Runs one named workload against an in-process InferenceServer over
loopback HTTP (BERT-base layer geometry, see workloads.json) and
prints every metric with its unit, ending with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload decode_open --seed 1 \
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
is the separate traced run that reports the per-layer metrics. The
first run configures and builds perfbench/ into .bench_build/; raw
records and spans go to .bench_out/. The exit code is non-zero when
the build or the run fails, or when any served output differs from
QuantizedTransformer::forward() on the same input.
"""

import argparse
import collections
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache files in the checkout
import metrics as M  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
SERVE_TIMEOUT_S = 170

STATUS_NAMES = {200: "ok", -1: "mismatch", 0: "conn_error", 500: "500",
                503: "503", 504: "504"}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "model" / "pipeline.hh").is_file():
        die("no Mokey sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench_serve"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def serve_args(cfg, name, seed, seconds, trace, out):
    wl = cfg["workloads"][name]
    args = [str(BUILD / "perfbench_serve"), "--workload", name,
            "--loop", wl["loop"], "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out", str(out)]
    if wl["loop"] == "open":
        args += ["--rates", ",".join(str(r) for r in wl["rates"]),
                 "--nominal-rate", str(wl["nominal_rate"]),
                 "--arrivals", wl["arrivals"]]
    else:
        args += ["--clients", str(wl["clients"])]
    if "decode_rows" in wl:
        args += ["--decode-rows", "%d,%d" % tuple(wl["decode_rows"])]
    if "prefill_rows" in wl:
        args += ["--prefill-rows", str(wl["prefill_rows"])]
    if "prefill_every" in wl:
        args += ["--prefill-every", str(wl["prefill_every"])]
    return args


# ---- per-phase arithmetic -------------------------------------------

class Phase:
    """One phase's request records: [due, send, end, status, rows, pool]."""

    def __init__(self, raw):
        self.raw = raw
        self.name = raw["name"]
        self.rate = raw["rate"]
        self.counters = raw["counters"]
        self.requests = raw["requests"]
        self.start = min(r[0] for r in self.requests)
        self.stop = max(r[2] for r in self.requests)
        self.wall = self.stop - self.start

    def ok(self, rows=None):
        return [r for r in self.requests if r[3] == 200 and
                (rows is None or rows(r[4]))]

    def latencies_ms(self, rows=None):
        """Latency from the due time; a failed request counts as
        lasting the whole phase (it missed every limit)."""
        return [1e3 * ((r[2] - r[0]) if r[3] == 200 else self.wall)
                for r in self.requests if rows is None or rows(r[4])]

    def failed(self):
        return sum(1 for r in self.requests if r[3] != 200)

    def rows_per_s(self):
        return sum(r[4] for r in self.ok()) / self.wall

    def req_per_s(self):
        return len(self.ok()) / self.wall

    def drain_ms(self):
        return 1e3 * (self.stop - max(r[0] for r in self.requests))

    def describe(self):
        counts = collections.Counter(
            STATUS_NAMES.get(r[3], str(r[3])) for r in self.requests)
        late = [1e3 * (r[1] - r[0]) for r in self.requests]
        failures = ", ".join("%s %d" % (k, v) for k, v in
                             sorted(counts.items()) if k != "ok")
        load = "rate %5.1f/s" % self.rate if self.rate else "closed loop"
        return ("phase %-12s %-6s %s  attempted %4d  "
                "succeeded %4d  failed %d (%s)  generator late p50 "
                "%.2f ms max %.2f ms" % (
                    self.name, self.raw["kind"], load,
                    len(self.requests), counts.get("ok", 0),
                    self.failed(), failures or "none",
                    M.median(late), max(late)))


def decode_class(host):
    """Rows of the server's decode class (from the host stamp)."""
    return lambda rows: rows <= host["decode_max_rows"]


def prefill_class(host):
    return lambda rows: rows > host["decode_max_rows"]


# ---- end-to-end metrics (untraced run) --------------------------------

def end_to_end(cfg, name, data, phases, out):
    wl = cfg["workloads"][name]
    setups = [s["end"] - s["start"] for s in data["spans"]
              if s["name"] == "setup"]
    totals = data["totals"]
    limit = wl["latency_limit_ms"]

    rungs = []
    for ph in phases:
        t, pct, n = M.tail(ph.latencies_ms())
        rungs.append({"rate": ph.rate, "sustained": ph.req_per_s(),
                      "tail_ms": t, "failed": ph.failed(),
                      "drain_ms": ph.drain_ms()})
        out.append("  %-12s p50 %8.2f ms  tail %8.2f ms (p%.1f of %d)  "
                   "drain %.1f ms  sustained %.2f req/s  %s" % (
                       ph.name, M.median(ph.latencies_ms()), t, pct, n,
                       ph.drain_ms(), ph.req_per_s(),
                       "meets" if M.rung_passes(rungs[-1], limit)
                       else "misses") + " the %g ms limit" % limit)
    main = phases[0]
    if wl["loop"] == "open":
        main = next(p for p in phases if p.rate == wl["nominal_rate"])
    max_qps = M.max_rate_at_slo(rungs, limit)
    if all(M.rung_passes(r, limit) for r in rungs):
        out.append("max_qps_at_slo: every rung meets the limit, so it is "
                   "the top rung's sustained rate%s" % (
                       ", the offered load unless requests fail"
                       if wl["loop"] == "open" else ""))
    else:
        out.append("max_qps_at_slo: rate where the tail crosses the limit, "
                   "interpolated between the rungs' sustained rates")
    if wl["loop"] == "open":
        out.append("throughput_rows_per_s of open-loop phase %s is the "
                   "offered load unless requests fail" % main.name)

    lat = main.latencies_ms()
    tail_ms, tail_pct, tail_n = M.tail(lat)
    out.append("main phase %s: %d samples; tail_ms is p%.1f of %d" % (
        main.name, len(lat), tail_pct, tail_n))

    def class_latencies(cls, label):
        got = main.latencies_ms(cls)
        if got:
            return got
        out.append("  no %s-class requests in %s: %s metric uses all "
                   "requests" % (label, name, label))
        return lat

    dec = class_latencies(decode_class(data["host"]), "decode")
    pre = class_latencies(prefill_class(data["host"]), "prefill")
    dtail, dpct, dn = M.tail(dec)
    out.append("decode_tail_ms is p%.1f of %d; prefill_p50_ms from %d "
               "samples" % (dpct, dn, len(pre)))
    out.append("setup_s: median of %d set-ups %s" % (
        len(setups), ", ".join("%.3f" % s for s in setups)))
    return {
        "setup_s": M.median(setups),
        "peak_rss_mb": totals["peak_rss_mb"],
        "output_sqnr_db": M.sqnr_db(totals["sqnr_signal"],
                                    totals["sqnr_noise"]),
        "p50_ms": M.median(lat),
        "tail_ms": tail_ms,
        "throughput_rows_per_s": main.rows_per_s(),
        "max_qps_at_slo": max_qps,
        "decode_tail_ms": dtail,
        "prefill_p50_ms": M.median(pre),
    }


# ---- per-layer metrics (traced run) -------------------------------------

def span_durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def median_ms(spans, name):
    return 1e3 * M.median(span_durations(spans, name))


def replay_components(spans):
    """Per replayed kernel: median over replays of its summed time,
    plus the attributes of its last span."""
    roots = {i for i, s in enumerate(spans) if s["name"] == "replay.step"}
    per_rep = collections.defaultdict(lambda: collections.defaultdict(float))
    attrs = {}
    for s in spans:
        if s["parent"] in roots:
            per_rep[s["name"]][s["parent"]] += s["end"] - s["start"]
            attrs[s["name"]] = s["attrs"]
    return ({n: M.median(list(v.values())) for n, v in per_rep.items()},
            attrs, spans[max(roots)]["attrs"])


def request_self_times(phase, spans):
    """Per traced request: its latency minus the time covered by the
    layer steps that advanced it (matched by input id). Requests that
    overlap another in-flight request on the same input are skipped,
    since their steps cannot be told apart."""
    steps = [s for s in spans if s["name"] == "step"]
    reqs = phase.ok()
    by_pool = collections.defaultdict(list)
    for r in reqs:
        by_pool[r[5]].append(r)
    selfs, inside = [], []
    for r in reqs:
        if any(o is not r and o[1] < r[2] and r[1] < o[2]
               for o in by_pool[r[5]]):
            continue
        kids = [(s["start"], s["end"]) for s in steps
                if r[5] in s["members"] and s["start"] >= r[1]
                and s["end"] <= r[2]]
        selfs.append(1e3 * M.self_time(r[0], r[2], kids))
        inside.append(1e3 * M.covered(r[0], r[2], kids))
    return selfs, inside


def per_layer(data, phases, out):
    spans = data["spans"]
    totals = data["totals"]
    by = {p.name: p for p in phases}
    http, direct, traced = by["http"], by["direct"], by["http_traced"]
    m = {}

    # net
    m["net.overhead_ms"] = (M.median(http.latencies_ms()) -
                            M.median(direct.latencies_ms()))
    uses = collections.Counter(r[5] for r in traced.requests)
    for op in ("encode", "decode"):
        per_pool = collections.defaultdict(list)
        for s in spans:
            if s["name"] == "net.body_" + op:
                per_pool[int(s["attrs"]["pool"])].append(
                    s["end"] - s["start"])
        m["net.body_%s_us" % op] = 1e6 * sum(
            M.median(per_pool[p]) * n for p, n in uses.items()) / sum(
            uses.values())
    hc = http.counters
    m["net.bytes_per_req"] = ((hc["bytes_in"] + hc["bytes_out"]) /
                              hc["http_requests"])

    # sched
    tc = traced.counters
    m["sched.rows_per_step"] = tc["sched_step_rows"] / tc["sched_steps"]
    m["sched.steps_per_req"] = tc["sched_steps"] / tc["sched_completed"]
    idle = data["idle_forward_s"]
    m["sched.queue_wait_ms"] = M.median(
        [1e3 * (r[2] - r[0] - idle[r[5]]) for r in direct.ok()])
    step_time = sum(s["end"] - s["start"] for s in spans
                    if s["name"] == "step" and s["start"] >= traced.start
                    and s["end"] <= traced.stop)
    m["sched.busy_frac"] = step_time / traced.wall
    m["sched.prefill_deferrals"] = tc["sched_prefill_deferrals"]
    selfs, inside = request_self_times(traced, spans)
    m["request.self_ms"] = M.median(selfs)
    m["request.in_step_ms"] = M.median(inside)

    # pipeline
    for rows in (1, 2, 4, 128):
        m["pipeline.step_ms.rows%d" % rows] = median_ms(
            spans, "pipeline.step.rows%d" % rows)
    for seq in (1, 8, 128):
        m["pipeline.forward_ms.seq%d" % seq] = median_ms(
            spans, "pipeline.forward.seq%d" % seq)
    m["ref.fp32_forward_ms.seq128"] = median_ms(
        spans, "ref.fp32_forward.seq128")

    # gemm / encode / ops: the per-site replay of the ledger step
    comp, attrs, root = replay_components(spans)
    step_ms = median_ms(spans, "ledger.step")
    groups = {}
    for kind in ("gemm", "encode", "ops"):
        groups[kind] = 1e3 * sum(v for n, v in comp.items()
                                 if n.startswith(kind + "."))
    replay_ms = sum(groups.values())
    m["ledger.rows"] = root["rows"]
    m["ledger.step_ms"] = step_ms
    m["ledger.replay_ms"] = replay_ms
    for kind, v in groups.items():
        m["ledger.%s_ms" % kind] = v
    m["pipeline.unattributed_frac"] = 1.0 - replay_ms / step_ms
    for site in ("wq", "wk", "wv", "wo", "w1", "w2", "attn_qk", "attn_pv"):
        name = "gemm." + site
        m[name + ".us"] = 1e6 * comp[name]
        m[name + ".gb_per_s"] = attrs[name]["bytes"] / comp[name] / 1e9
        m[name + ".engine"] = attrs[name]["engine"]
    m["encode.act_ns_per_elem"] = (1e9 * comp["encode.x"] /
                                   attrs["encode.x"]["elems"])
    m["quant.outlier_pair_frac"] = totals["outlier_pair_frac"]
    m["quant.weight_ot_frac"] = totals["weight_ot_frac"]
    m["quant.act_ot_frac"] = totals["act_ot_frac"]
    planes = next(s for s in spans if s["name"] == "quant.weight_planes")
    m["quant.weight_plane_mb"] = planes["attrs"]["bytes"] / 2 ** 20
    m["ops.softmax_us"] = 1e6 * comp["ops.softmax"]
    m["ops.layernorm_us"] = 1e6 * comp["ops.layernorm"]
    m["ops.gelu_us"] = 1e6 * comp["ops.gelu"]

    # parallel
    m["parallel.loops_per_step"] = tc["lane_loops"] / tc["sched_steps"]
    m["parallel.chunks_per_loop"] = tc["lane_chunks"] / tc["lane_loops"]
    m["parallel.steal_frac"] = tc["lane_donated"] / tc["lane_chunks"]

    # setup
    for phase in ("dict_fit", "quantize_weights", "profile",
                  "server_start"):
        m["setup.%s_s" % phase] = M.median(
            span_durations(spans, "setup." + phase))

    # tracing overhead: traced against untraced HTTP phase
    m["trace.p50_overhead_frac"] = (M.median(traced.latencies_ms()) /
                                    M.median(http.latencies_ms()) - 1.0)
    m["trace.throughput_overhead_frac"] = (traced.rows_per_s() /
                                           http.rows_per_s() - 1.0)

    members = " + ".join("%d" % root["rows%d" % i]
                         for i in range(int(root["members"])))
    out.append("ledger, one layer step of %d rows (%s):" % (
        root["rows"], members))
    for kind in ("gemm", "encode", "ops"):
        parts = ", ".join("%s %.0f us" % (n.split(".", 1)[1], 1e6 * v)
                          for n, v in sorted(comp.items())
                          if n.startswith(kind + "."))
        out.append("  %-6s %8.2f ms  (%s)" % (kind, groups[kind], parts))
    out.append("  replay %8.2f ms vs measured forwardStep %.2f ms; "
               "unattributed %.1f%%" % (replay_ms, step_ms,
                                        100 * m["pipeline.unattributed_frac"]))
    out.append("  gemm bytes are computed from tensor sizes: engine plane "
               "bytes per operand element (mag 8, count 2) x (M*K + N*K) "
               "+ 4 B x M*N output")
    out.append("tracing overhead: p50 %+.1f%%, throughput %+.1f%% "
               "(traced vs untraced HTTP phase)" % (
                   100 * m["trace.p50_overhead_frac"],
                   100 * m["trace.throughput_overhead_frac"]))
    return m


# ---- main -------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    cfg = json.loads((HERE / "workloads.json").read_text())
    if a.workload not in cfg["workloads"]:
        die("unknown workload %r (have %s)" % (
            a.workload, ", ".join(sorted(cfg["workloads"]))))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if a.trace else "end_to_end"]

    build()
    OUT.mkdir(exist_ok=True)
    out_path = OUT / ("%s-seed%d-trace%d.json" % (a.workload, a.seed,
                                                  a.trace))
    if out_path.exists():
        out_path.unlink()
    try:
        proc = subprocess.run(
            serve_args(cfg, a.workload, a.seed, a.seconds, a.trace,
                        out_path), timeout=SERVE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("perfbench_serve exceeded %d s" % SERVE_TIMEOUT_S)
    if not out_path.is_file():
        die("perfbench_serve exited %d without results" % proc.returncode)
    data = json.loads(out_path.read_text())

    phases = [Phase(p) for p in data["phases"]]
    lines = ["host: " + json.dumps(data["host"], sort_keys=True)]
    lines += [p.describe() for p in phases]
    if a.trace:
        values = per_layer(data, phases, lines)
    else:
        values = end_to_end(cfg, a.workload, data, phases, lines)
    missing = [x["name"] for x in wanted if x["name"] not in values]
    if missing:
        die("metrics not computed: " + ", ".join(missing))

    totals = data["totals"]
    lines.append("verified %d responses byte for byte against forward(): "
                 "%d mismatches" % (totals["verified"],
                                    totals["mismatches"]))
    result = {}
    for x in wanted:
        v = values[x["name"]]
        result[x["name"]] = {"value": v, "unit": x["unit"]}
        lines.append("%-34s %14.6g %s" % (x["name"], v, x["unit"]))
    attempted = sum(len(p.requests) for p in phases)
    failed = sum(p.failed() for p in phases)
    correct = proc.returncode == 0 and totals["mismatches"] == 0
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

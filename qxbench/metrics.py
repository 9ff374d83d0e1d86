"""Reduces qxbench driver reports to the metrics declared in BENCHMARK.json.

Pure functions only: percentiles, ratios, metrics-registry deltas,
histogram quantiles and trace self times. run.py does the I/O.
"""

import math
import statistics

# Histogram bucket bounds of obs::Histogram: le = 2^0 .. 2^39, then +Inf.
HISTOGRAM_BOUNDS = [float(2 ** i) for i in range(40)] + [math.inf]

# Span category (library spans) or span name (the driver's own "bench"
# spans) -> the module whose self time it is.
LAYER_OF_CATEGORY = {
    "service": "api",
    "qasm": "qasm",
    "exact": "exact",
    "executor": "executor",
    "cdcl": "reason",
    "z3": "reason",
    "heuristic": "heuristic",
}
LAYER_OF_BENCH_SPAN = {
    "bench.map": "api",
    "bench.parse": "qasm",
    "bench.write": "qasm",
    "bench.cache_key": "ir",
    "bench.build_prefix": "exact",
    "bench.reference": "exact",
    "bench.verify": "sim",
}
SELF_TIME_LAYERS = ["api", "qasm", "ir", "exact", "executor", "reason", "heuristic", "sim"]

EXACT_PHASES = {
    "subsets": "exact.subsets",
    "encode": "exact.encode",
    "solve": "exact.solve",
    "canonical": "exact.canonical_resolve",
    "reconstruct": "exact.reconstruct",
    "verify": "exact.verify",
}


def percentile(values, q):
    """The q-th percentile (0..100) with linear interpolation between ranks;
    0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def ratio(num, den):
    """num / den, or 0.0 when nothing was counted."""
    return num / den if den else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def geometric_mean(values):
    return statistics.geometric_mean(values) if values else 0.0


def cumulative_buckets(hist):
    """Cumulative counts over every bound of a registry histogram snapshot.
    The snapshot lists only buckets that gained observations, keyed by their
    bound, with cumulative counts."""
    listed = hist.get("buckets", {})
    out = []
    running = 0
    for bound in HISTOGRAM_BOUNDS:
        key = "+Inf" if math.isinf(bound) else str(int(bound))
        running = listed.get(key, running)
        out.append(running)
    return out


def histogram_delta(before, after):
    """Observations made between two snapshots of one histogram."""
    b = cumulative_buckets(before) if before else [0] * len(HISTOGRAM_BOUNDS)
    a = cumulative_buckets(after)
    return {
        "count": after["count"] - (before["count"] if before else 0),
        "sum": after["sum"] - (before["sum"] if before else 0),
        "cumulative": [x - y for x, y in zip(a, b)],
    }


def histogram_quantile(delta, q):
    """The q-quantile (0..1) of a histogram delta, interpolated linearly
    inside the bucket it falls in (Prometheus' histogram_quantile)."""
    total = delta["cumulative"][-1]
    if total == 0:
        return 0.0
    rank = q * total
    lower_bound, lower_count = 0.0, 0
    for bound, count in zip(HISTOGRAM_BOUNDS, delta["cumulative"]):
        if count >= rank:
            if math.isinf(bound):
                return lower_bound
            if count == lower_count:
                return bound
            return lower_bound + (bound - lower_bound) * (rank - lower_count) / (count - lower_count)
        lower_bound, lower_count = bound, count
    return lower_bound


def registry_delta(before, after):
    """Counter deltas, gauge values after, and histogram deltas between two
    MetricsRegistry::json() snapshots."""
    out = {}
    for name, value in after.items():
        if isinstance(value, dict):
            out[name] = histogram_delta(before.get(name), value)
        elif name.endswith("_total"):
            out[name] = value - before.get(name, 0)
        else:
            out[name] = value
    return out


def self_times(events):
    """Self time in microseconds per span, keyed by (category, name): span
    duration minus the time its direct children on the same thread cover."""
    by_tid = {}
    for e in events:
        if e.get("ph") == "X":
            by_tid.setdefault(e["tid"], []).append(e)
    totals = {}
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, key, child_total]
        for e in spans:
            while stack and e["ts"] >= stack[-1][0]:
                _close(stack.pop(), totals, stack)
            stack.append([e["ts"] + e["dur"], (e["cat"], e["name"]), 0.0, e["dur"]])
        while stack:
            _close(stack.pop(), totals, stack)
    return totals


def _close(frame, totals, stack):
    end, key, child_total, dur = frame
    totals[key] = totals.get(key, 0.0) + max(0.0, dur - child_total)
    if stack:
        stack[-1][2] += dur


def layer_of(category, name):
    if category == "bench":
        return LAYER_OF_BENCH_SPAN.get(name)
    return LAYER_OF_CATEGORY.get(category)


def layer_self_ms(events):
    """Self time in milliseconds per module."""
    out = {layer: 0.0 for layer in SELF_TIME_LAYERS}
    for (category, name), us in self_times(events).items():
        layer = layer_of(category, name)
        if layer:
            out[layer] += us / 1000.0
    return out


def span_totals_ms(events):
    """Summed duration in milliseconds and count per span name."""
    out = {}
    for e in events:
        if e.get("ph") == "X":
            total, count = out.get(e["name"], (0.0, 0))
            out[e["name"]] = (total + e["dur"] / 1000.0, count + 1)
    return out


def _samples(report):
    keys = ["ms", "label", "from_cache", "proven", "cost_f", "gates", "cnots", "swaps",
            "optimum", "req_parse_us", "req_write_us"]
    return [dict(zip(keys, row)) for row in zip(*(report[k] for k in keys))]


def end_to_end(report, setup_seconds):
    """The user-visible metrics of one untraced run."""
    samples = _samples(report)
    latencies = [s["ms"] for s in samples]
    return {
        "setup_s": median(setup_seconds),
        "map_ms_p50": percentile(latencies, 50),
        "map_ms_p90": percentile(latencies, 90),
        "maps_per_s": ratio(len(samples), report["timed_s"]),
        "ok_share": ratio(report["attempted"] - report["failed"], report["attempted"]),
        "mapped_size_ratio": geometric_mean(
            [(s["gates"] + s["cost_f"]) / s["gates"] for s in samples if s["gates"]]),
    }


def exact_quality(samples):
    """Share of exact maps proven optimal, and the gap of gate-count results
    to the DP optimum in % (Sigma cost_f / Sigma optimum - 1)."""
    exact = [s for s in samples if s["label"] == "exact"]
    gap = [s for s in exact if s["optimum"] >= 0]
    optimum = sum(s["optimum"] for s in gap)
    return (ratio(sum(1 for s in exact if s["proven"]), len(exact)),
            100.0 * (sum(s["cost_f"] for s in gap) / optimum - 1.0) if optimum else 0.0)


def unbounded_end_to_end(report):
    """End-to-end figures printed beside the gated ones. They are not in
    BENCHMARK.json's end_to_end list: failed_share is 0 when all is well,
    the exact figures are undefined on heuristic-wide, peak RSS of the
    exact workloads varies by a fifth between runs of one seed, and the
    budget-limited exact results, up to ten times the optimum, make
    added_gates_ratio vary by a sixth between seeds. The traced run reports
    the last three as per-layer metrics."""
    samples = _samples(report)
    proven, gap = exact_quality(samples)
    return {
        "failed_share": ratio(report["failed"], report["attempted"]),
        "added_gates_ratio": ratio(sum(s["cost_f"] for s in samples),
                                   sum(s["gates"] for s in samples)),
        "proven_share": proven,
        "gap_to_optimum_pct": gap,
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }


def trace_overhead_pct(untraced, traced):
    """How much slower the traced run mapped than the untraced one, in %.
    A single caller replays the same request sequence, so the mean latency
    over the common prefix is compared; concurrent callers compare
    throughput."""
    if untraced["callers"] == 1:
        k = min(len(untraced["ms"]), len(traced["ms"]))
        base = mean(untraced["ms"][:k])
        return 100.0 * (ratio(mean(traced["ms"][:k]), base) - 1.0) if base else 0.0
    base = ratio(len(untraced["ms"]), untraced["timed_s"])
    rate = ratio(len(traced["ms"]), traced["timed_s"])
    return 100.0 * (ratio(base, rate) - 1.0) if rate else 0.0


def per_layer(untraced, traced, events):
    """The per-layer metrics: registry deltas and the driver's own timings
    from the untraced run, span self times from the traced run."""
    samples = _samples(untraced)
    reg = registry_delta(untraced["registry_before"], untraced["registry_after"])

    def counter(name):
        return reg.get("qxmap_" + name + "_total", 0)

    service = [s for s in samples if s["req_parse_us"] >= 0]
    heuristic = [s for s in samples if s["label"] != "exact"]
    proven, gap = exact_quality(samples)
    solver_maps = counter("exact_maps")
    requests = counter("service_requests")
    wait = reg.get("qxmap_executor_queue_wait_us")
    run_us = reg.get("qxmap_executor_task_run_us")
    cache_hits = counter("swap_cost_cache_table_hits") + counter("swap_cost_cache_distance_hits")
    cache_misses = (counter("swap_cost_cache_table_misses")
                    + counter("swap_cost_cache_distance_misses"))

    if service:
        parse_us = [s["req_parse_us"] for s in service]
        parse_gates = sum(s["gates"] for s in service)
        write_us = [s["req_write_us"] for s in service]
    else:
        parse_us = untraced["parse_us"]
        parse_gates = sum(untraced["parsed_gates"])
        write_us = untraced["write_us"]
    exact_checks = [i for i, v in enumerate(untraced["prefix_vars"]) if v >= 0]

    out = {
        "api.service.hit_ratio": ratio(counter("service_cache_hits"), requests),
        "api.service.dedup_join_ratio": ratio(counter("service_dedup_joins"), requests),
        "api.service.evictions": ratio(counter("service_cache_evictions"), requests),
        "api.service.hit_us_p50": 1000.0 * percentile(
            [s["ms"] for s in service if s["from_cache"]], 50),
        "api.service.miss_ms_p50": percentile(
            [s["ms"] for s in service if not s["from_cache"]], 50),
        "qasm.parse.us_p50": percentile(parse_us, 50),
        "qasm.parse.gates_per_s": ratio(parse_gates, sum(parse_us) / 1e6),
        "qasm.write.us_p50": percentile(write_us, 50),
        "ir.fingerprint.us_p50": percentile(untraced["key_us"], 50),
        "arch.swap_table.build_ms": untraced["setup_ms"]["swap_table"],
        "arch.distances.build_ms": untraced["setup_ms"]["distances"],
        "arch.swap_cost_cache.hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "exact.instances_per_map": ratio(counter("exact_instances_solved"), solver_maps),
        "exact.encode.vars": mean([untraced["prefix_vars"][i] for i in exact_checks]),
        "exact.encode.clauses": mean([untraced["prefix_clauses"][i] for i in exact_checks]),
        "exact.reference.ms": mean([untraced["reference_ms"][i] for i in exact_checks]),
        "exact.proven_share": proven,
        "exact.gap_to_optimum_pct": gap,
        "executor.queue_wait_us_p50": histogram_quantile(wait, 0.5) if wait else 0.0,
        "executor.queue_wait_us_p90": histogram_quantile(wait, 0.9) if wait else 0.0,
        # Callers run their own requests' tasks too (run_to_completion).
        "executor.busy_share": ratio(run_us["sum"] if run_us else 0,
                                     (untraced["executor_threads"] + untraced["callers"])
                                     * untraced["timed_s"] * 1e6),
        "executor.tasks_executed": ratio(counter("executor_tasks_executed"), len(samples)),
        "executor.steals": ratio(counter("executor_steals"), len(samples)),
        "executor.queue_depth_high_water": reg.get("qxmap_executor_queue_depth_high_water", 0),
        "sat.conflicts": ratio(counter("cdcl_conflicts"), solver_maps),
        "sat.decisions": ratio(counter("cdcl_decisions"), solver_maps),
        "sat.restarts": ratio(counter("cdcl_restarts"), solver_maps),
        "sat.propagations_per_s": ratio(counter("cdcl_propagations"),
                                        (run_us["sum"] if run_us else 0) / 1e6),
        "sat.learnt_deleted_ratio": ratio(counter("cdcl_learnt_deleted"),
                                          counter("cdcl_learned")),
        "reason.bound_tightening_ratio": ratio(counter("engine_bound_tightenings"),
                                               counter("engine_bound_polls")),
        "heuristic.swaps_per_cnot": ratio(sum(s["swaps"] for s in heuristic),
                                          sum(s["cnots"] for s in heuristic)),
        "sim.verify.ms": mean(untraced["verify_ms"]),
        "obs.trace_overhead_pct": trace_overhead_pct(untraced, traced),
        "process.peak_rss_mb": untraced["peak_rss_kb"] / 1024.0,
    }
    for method in ("sabre", "stochastic", "astar"):
        out["heuristic.%s.ms_p50" % method] = percentile(
            [s["ms"] for s in samples if s["label"] == method and not s["from_cache"]], 50)

    spans = span_totals_ms(events)
    exact_maps = spans.get("exact.map", (0.0, 0))[1]
    for phase, span in EXACT_PHASES.items():
        out["exact.phase.%s.ms" % phase] = ratio(spans.get(span, (0.0, 0))[0], exact_maps)
    traced_maps = len(traced["ms"])
    for layer, ms in layer_self_ms(events).items():
        out["self.%s.ms" % layer] = ratio(ms, traced_maps)
    return out

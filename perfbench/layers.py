"""Per-layer metrics from the spans of one traced pass.

Span names are ``<layer>.<what>``; the layers are the modules of
``src/cyclex`` (geometry, sweep, product, impossibility, cli).  Busy time
is a span's duration, self time its duration minus its child spans.
README.md lists which end-to-end metric each of these should move.
"""

from __future__ import annotations

NS = 1e-9
VARIANTS = ("ball", "box", "ellipsoid")


def _total(by_name, prefix):
    return sum(v for k, v in by_name.items() if k == prefix or k.startswith(prefix + "."))


def _per(numerator, count):
    return numerator / count if count else 0.0


def metrics(tracer, artifact_bytes, overhead_frac):
    """({name: value}, {name: unit}) for the traced pass."""
    calls, busy, own, counts = tracer.calls, tracer.busy_ns, tracer.self_ns, tracer.counts
    values, units = {}, {}

    def put(name, value, unit):
        values[name] = value
        units[name] = unit

    put("geometry.project.calls", _total(calls, "geometry.project"), "count")
    for v in VARIANTS:
        put(f"geometry.project.{v}.calls", calls[f"geometry.project.{v}"], "count")
    for v in VARIANTS:
        name = f"geometry.project.{v}"
        put(f"{name}.us", _per(busy[name] / 1e3, calls[name]), "us")
    put("geometry.busy_s", _total(busy, "geometry.project") * NS, "s")

    sweeps = calls["sweep.sweep_once"]
    put("sweep.sweeps", sweeps, "count")
    put("sweep.self_s", (own["sweep.run_periodic"] + own["sweep.sweep_once"]) * NS, "s")
    engine_ns = busy["sweep.run_periodic"] - busy["sweep.certify"]
    put("sweep.us_per_sweep", _per(engine_ns / 1e3, sweeps), "us")
    put("sweep.certify_s", busy["sweep.certify"] * NS, "s")
    put("sweep.csv_s", busy["sweep.csv"] * NS, "s")
    put("sweep.csv_rows", counts["sweep.csv_rows"], "count")

    iterations = counts["product.iterations"]
    put("product.iterations", iterations, "count")
    put("product.us_per_iter", _per(busy["product.solve"] / 1e3, iterations), "us")
    put("product.self_s", own["product.solve"] * NS, "s")
    put("product.objective_s", _total(busy, "product.objective") * NS, "s")
    put("product.objective_calls", _total(calls, "product.objective"), "count")
    m50 = "product.objective.pairwise.m50"
    put("product.pairwise_m50_us", _per(busy[m50] / 1e3, calls[m50]), "us")
    put("product.project_blocks_s", busy["product.project_blocks"] * NS, "s")
    put("product.csv_s", busy["product.csv"] * NS, "s")
    put("product.csv_rows", counts["product.csv_rows"], "count")

    put("impossibility.candidate_s", busy["impossibility.candidate"] * NS, "s")
    put("impossibility.candidate_calls", calls["impossibility.candidate"], "count")
    put("impossibility.falsify_self_s", own["impossibility.falsify"] * NS, "s")
    put("impossibility.spiral_s", busy["impossibility.spiral"] * NS, "s")
    put("impossibility.gap_s", busy["impossibility.gap"] * NS, "s")
    put("impossibility.csv_s", busy["impossibility.csv"] * NS, "s")
    put("impossibility.csv_rows", counts["impossibility.csv_rows"], "count")

    put("cli.validate_s", busy["cli.validate"] * NS, "s")
    put("cli.dispatch_self_s", own["cli.dispatch"] * NS, "s")
    put("cli.main_self_s", own["cli.main"] * NS, "s")
    put("cli.artifact_mb", artifact_bytes / 1e6, "MB")
    put("trace.overhead_frac", overhead_frac, "ratio")
    return values, units


def self_time_shares(tracer):
    """Share of all traced self time per layer part, largest first.

    The objective spans, keyed by class and m, are merged into one entry;
    the run_periodic and sweep_once spans form the sweep engine.
    """
    merged = {}
    for name, ns in tracer.self_ns.items():
        if name.startswith("product.objective"):
            name = "product.objective"
        elif name in ("sweep.run_periodic", "sweep.sweep_once"):
            name = "sweep.engine"
        merged[name] = merged.get(name, 0) + ns
    total = sum(merged.values())
    return {k: round(v / total, 4) for k, v in sorted(merged.items(), key=lambda kv: -kv[1])}

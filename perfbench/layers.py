"""Per-layer metrics of the traced run.

Three sources, all differenced over the measurement window:

- the host tracer (:mod:`tracing`): calls, bytes and self time per span;
- the program's ``ObsCollector``: message, frame, election and state
  transfer counters, and the simulated-time cost attribution of
  ``profile_spans``;
- the program's existing process-global cache counters.

Each ``*_per_op`` value is divided by the requests completed in the window.
The arrow in each comment names the end-to-end metric the layer metric
should move, and on which workload.
"""

from __future__ import annotations

from repro.consensus import messages
from repro.crypto import certs, ecdsa
from repro.obs.metrics import RUNTIME_STATS, Counter, Histogram
from repro.obs.profile import ProfileReport, profile_spans

import tracing
import workloads

_COUNTERS = (
    "net.messages_sent", "net.bytes_sent", "net.frames_sealed", "net.frame_messages",
    "consensus.append_entries_sent", "consensus.elections", "consensus.primacies",
    "pipeline.batches", "pipeline.batched_requests", "statetransfer.snapshots",
    "statetransfer.chunks_fetched", "statetransfer.chunks_cached",
)
_SIM_CATEGORIES = ("queue_wait", "execution", "signing", "replication_wait", "forwarding")

# The per-layer metrics ``run.py`` prints in its JSON line: those defined on
# every workload. The report lines before it carry every metric.
REPORTED = (
    ("crypto.aead.seal_per_op", "count"),
    ("crypto.aead.open_per_op", "count"),
    ("crypto.aead.self_us_per_op", "us"),
    ("crypto.ecdsa.sign_per_op", "count"),
    ("crypto.ecdsa.self_us_per_op", "us"),
    ("crypto.merkle.self_us_per_op", "us"),
    ("kv.encode.calls_per_op", "count"),
    ("kv.encode.bytes_per_op", "bytes"),
    ("kv.encode.self_us_per_op", "us"),
    ("kv.decode.calls_per_op", "count"),
    ("kv.decode.self_us_per_op", "us"),
    ("kv.apply.self_us_per_op", "us"),
    ("kv.get.self_us_per_op", "us"),
    ("ledger.decrypt_per_entry", "count"),
    ("ledger.append.self_us_per_op", "us"),
    ("consensus.ae_per_op", "count"),
    ("consensus.entries_per_ae", "count"),
    ("net.msgs_per_op", "count"),
    ("net.bytes_per_op", "bytes"),
    ("net.msgs_per_frame", "count"),
    ("net.channel.self_us_per_op", "us"),
    ("node.auth.self_us_per_op", "us"),
    ("app.handler.self_us_per_op", "us"),
    ("node.ops_per_batch", "count"),
    ("sim.replication_wait_ms.p50", "ms"),
    ("sim.replication_wait_ms.p99", "ms"),
    ("sim.events_per_op", "count"),
    ("sim.dispatch.self_us_per_op", "us"),
    ("storage.bytes_per_user_byte", "ratio"),
    ("storage.fsyncs_per_op", "count"),
    ("service.client.self_us_per_op", "us"),
    ("obs.trace_overhead_frac", "fraction"),
    ("other.self_frac", "fraction"),
)


def _registry_totals(collector) -> dict[str, float]:
    totals = dict.fromkeys(_COUNTERS, 0.0)
    totals["consensus.entries"] = 0.0
    totals["node.writes_executed"] = 0.0
    for rendered, metric in collector.registry.collect().items():
        name = rendered.split("{", 1)[0]
        if name in totals and isinstance(metric, Counter):
            totals[name] += metric.value
        elif name == "consensus.batch_entries" and isinstance(metric, Histogram):
            totals["consensus.entries"] += metric.total
        elif name == "node.requests" and "kind=write" in rendered:
            totals["node.writes_executed"] += metric.value
    return totals


def probe(service, collector) -> dict:
    """Counter values at one instant (window open or close)."""
    return {
        "registry": _registry_totals(collector),
        "memo": dict(ecdsa.MEMO_STATS),
        "certs": dict(certs.CERT_STATS),
        "encode": dict(messages.ENCODE_STATS),
        "runtime": RUNTIME_STATS.snapshot(),
        "storage_bytes": sum(node.storage.bytes_written for node in service.nodes.values()),
        "obs_spans": len(collector.spans),
    }


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _delta(before: dict, after: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def _sim_profile(result, collector) -> ProfileReport:
    """Cost attribution of the write requests completed in the window."""
    window = result.generator.window
    report = profile_spans(collector.spans)
    return ProfileReport([
        p for p in report.profiles
        if p.path == workloads.WRITE and window.holds(p.start + p.latency)
    ])


def per_layer(result, tracer: tracing.HostTracer, collector, probes: list) -> dict:
    """Every per-layer metric, as ``name -> (value, unit, samples)``."""
    before, after = probes
    window = result.generator.window
    ops = max(window.completed, 1)
    writes = len(window.write_latencies)
    calls = tracer.window_call_counts()
    self_ns = tracer.self_times_ns()
    sizes = dict(zip(tracer.names, tracer.window_bytes))
    window_ns = result.window.raw * 1e9
    speed = result.window.speed  # host µs are scaled like host_ms_per_op

    def self_us(*prefixes: str) -> float:
        total = sum(ns for name, ns in self_ns.items() if name.startswith(prefixes))
        return total / 1e3 / ops * speed

    def per_op(name: str) -> float:
        return calls.get(name, 0) / ops

    reg = {k: _delta(before["registry"], after["registry"], k) for k in after["registry"]}
    memo = {k: _delta(before["memo"], after["memo"], k) for k in after["memo"]}
    cert = {k: _delta(before["certs"], after["certs"], k) for k in after["certs"]}
    enc = {k: _delta(before["encode"], after["encode"], k) for k in after["encode"]}
    runtime = {k: _delta(before["runtime"], after["runtime"], k) for k in after["runtime"]}
    cycles = max(len(result.cycles), 1)
    attributed = sum(ns for name, ns in self_ns.items() if name != tracing.CALLBACK)

    out = {
        # crypto -> host_ms_per_op on write-paced and write-sat; ecdsa and
        # merkle also -> rejoin_host_s on failover-rejoin
        "crypto.aead.seal_per_op": (per_op("crypto.aead.seal"), "count"),
        "crypto.aead.open_per_op": (per_op("crypto.aead.open"), "count"),
        "crypto.aead.self_us_per_op": (self_us("crypto.aead."), "us"),
        "crypto.ecdsa.sign_per_op": (per_op("crypto.ecdsa.sign"), "count"),
        "crypto.ecdsa.verify_per_op": (per_op("crypto.ecdsa.verify"), "count"),
        "crypto.ecdsa.self_us_per_op": (self_us("crypto.ecdsa."), "us"),
        "crypto.merkle.self_us_per_op": (self_us("crypto.merkle."), "us"),
        "crypto.verify_memo.hit_ratio": (
            _ratio(memo["verify_memo.hits"], memo["verify_memo.misses"]), "ratio"),
        "crypto.cert_cache.hit_ratio": (
            _ratio(cert["cert_cache.hits"], cert["cert_cache.misses"]), "ratio"),
        # kv -> host_ms_per_op on write-sat; kv.get -> read-mostly
        "kv.encode.calls_per_op": (per_op("kv.encode"), "count"),
        "kv.encode.bytes_per_op": (sizes.get("kv.encode", 0) / ops, "bytes"),
        "kv.encode.self_us_per_op": (self_us("kv.encode"), "us"),
        "kv.decode.calls_per_op": (per_op("kv.decode"), "count"),
        "kv.decode.self_us_per_op": (self_us("kv.decode"), "us"),
        "kv.apply.self_us_per_op": (self_us("kv.apply"), "us"),
        "kv.get.self_us_per_op": (self_us("kv.get"), "us"),
        "kv.map_encode.hit_ratio": (
            _ratio(runtime.get("kv.map_encode.hits", 0),
                   runtime.get("kv.map_encode.misses", 0)), "ratio"),
        # ledger -> host_ms_per_op on both write workloads; snapshot and
        # join -> rejoin_ms and rejoin_host_s on failover-rejoin
        "ledger.decrypt_per_entry": (
            calls.get("ledger.decrypt_private", 0)
            / max(calls.get("node.apply_replicated", 0), 1), "count"),
        "ledger.append.self_us_per_op": (self_us("ledger.append"), "us"),
        "ledger.snapshot.self_ms": (
            self_ns.get("ledger.snapshot", 0) / 1e6 * speed
            / max(calls.get("ledger.snapshot", 0), 1), "ms"),
        "ledger.snapshot.bytes": (_snapshot_bytes(collector, before, after), "bytes"),
        "ledger.join.chunks_fetched_ratio": (
            _ratio(reg["statetransfer.chunks_fetched"],
                   reg["statetransfer.chunks_cached"]), "ratio"),
        # consensus -> host_ms_per_op on write-paced; elections -> unavail_ms
        "consensus.ae_per_op": (reg["consensus.append_entries_sent"] / ops, "count"),
        "consensus.entries_per_ae": (
            reg["consensus.entries"] / max(reg["consensus.append_entries_sent"], 1),
            "count"),
        "consensus.ae_encode.reuse_ratio": (
            _ratio(enc["ae_encode.reuses"], enc["ae_encode.encodes"]), "ratio"),
        "consensus.elections_per_cycle": (reg["consensus.elections"] / cycles, "count"),
        "consensus.split_votes_per_cycle": (
            (reg["consensus.elections"] - reg["consensus.primacies"]) / cycles, "count"),
        # net -> host_ms_per_op on write-paced
        "net.msgs_per_op": (reg["net.messages_sent"] / ops, "count"),
        "net.bytes_per_op": (reg["net.bytes_sent"] / ops, "bytes"),
        "net.msgs_per_frame": (
            reg["net.frame_messages"] / max(reg["net.frames_sealed"], 1), "count"),
        "net.channel.self_us_per_op": (self_us("net.channel."), "us"),
        # node -> host_ms_per_op on read-mostly; batching -> write_tps on
        # write-sat and write_p50_ms on write-paced
        "node.auth.self_us_per_op": (self_us("node.auth"), "us"),
        "app.handler.self_us_per_op": (self_us(tracing.APP_HANDLER), "us"),
        "node.ops_per_batch": (
            reg["node.writes_executed"] / max(
                reg["pipeline.batches"]
                + reg["node.writes_executed"] - reg["pipeline.batched_requests"], 1),
            "count"),
        # sim (host side) -> host_ms_per_op on read-mostly
        "sim.events_per_op": (result.events_in_window / ops, "count"),
        "sim.dispatch.self_us_per_op": (self_us("sim.dispatch"), "us"),
        # storage -> host_ms_per_op on write-sat
        "storage.bytes_per_user_byte": (
            (after["storage_bytes"] - before["storage_bytes"])
            / max(writes * workloads.PAYLOAD_CHARS, 1), "ratio"),
        "storage.fsyncs_per_op": (per_op("storage.fsync"), "count"),
        # the load generator's own cost
        "service.client.self_us_per_op": (self_us("service.client"), "us"),
        "other.self_frac": (1.0 - attributed / window_ns, "fraction"),
    }
    # Where the window's host time went, by layer (first span-name part).
    for layer in sorted({name.split(".")[0] for name in self_ns} - {"sim"}) + ["sim"]:
        share = sum(
            ns for name, ns in self_ns.items()
            if name.split(".")[0] == layer and name != tracing.CALLBACK
        )
        out[f"host.{layer}.self_frac"] = (share / window_ns, "fraction")
    # sim clock -> write_p50_ms / write_p99_ms on write-paced, write_tps on write-sat
    profile = _sim_profile(result, collector)
    for label, p in (("p50", 50), ("p99", 99)):
        request = profile.profile_at(p)
        costs = request.costs if request is not None else {}
        for category in _SIM_CATEGORIES:
            out[f"sim.{category}_ms.{label}"] = (costs.get(category, 0.0) * 1e3, "ms")
    return {name: (value, unit, ops) for name, (value, unit) in out.items()}


def _snapshot_bytes(collector, before: dict, after: dict) -> float:
    """Mean sealed bytes of the snapshots produced in the window."""
    sizes = [
        span.attrs.get("sealed_bytes", 0)
        for span in collector.spans[before["obs_spans"]:after["obs_spans"]]
        if span.name == "statetransfer.snapshot"
    ]
    return sum(sizes) / len(sizes) if sizes else 0.0

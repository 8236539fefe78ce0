"""Host-clock spans around each ``repro`` layer, installed from outside.

The traced run wraps the entry points listed in :data:`TARGETS` before any
service is built. A wrapper counts every call; while recording (the
measurement window) it also keeps a span: name, start, end and the span
that was open on the call stack when it began. Spans live in flat arrays
in memory and are written out once the run ends. A layer's self time is
its spans' durations minus the time their child spans cover.

Wrappers read only ``time.perf_counter_ns``: they draw no randomness and
never read the simulated clock, so a traced run simulates exactly what the
untraced run does (``run.py`` checks this).

A module-level function is patched wherever it is bound: the defining
module and every module that did ``from x import f``. Methods are patched
on their class, where every caller looks them up.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Target:
    """One wrapped entry point. ``where`` is ``module:attr`` for a function
    or ``module:Class.method`` for a method. ``only`` names the workloads
    expected to reach it (empty: every workload)."""

    span: str
    where: str
    only: tuple[str, ...] = ()
    measure_bytes: bool = False


FAILOVER = ("failover-rejoin",)

TARGETS = (
    # crypto
    Target("crypto.aead.seal", "repro.crypto.fastaead:FastAEADKey.seal"),
    Target("crypto.aead.open", "repro.crypto.fastaead:FastAEADKey.open"),
    Target("crypto.ecdsa.sign", "repro.crypto.ecdsa:SigningKey.sign"),
    Target("crypto.ecdsa.verify", "repro.crypto.ecdsa:VerifyingKey.verify"),
    Target("crypto.merkle.append", "repro.crypto.merkle:MerkleTree.append"),
    Target("crypto.merkle.root", "repro.crypto.merkle:MerkleTree.root"),
    Target("crypto.merkle.proof", "repro.crypto.merkle:MerkleTree.proof", only=FAILOVER),
    Target("crypto.certs.verify", "repro.crypto.certs:Certificate.verify", only=FAILOVER),
    # kv
    Target("kv.encode", "repro.kv.serialization:encode_value", measure_bytes=True),
    Target("kv.decode", "repro.kv.serialization:decode_value"),
    Target("kv.apply", "repro.kv.store:KVStore.apply_write_set"),
    Target("kv.get", "repro.kv.store:KVStore.get"),
    Target("kv.get", "repro.kv.tx:Transaction.get"),
    Target("kv.compact", "repro.kv.store:KVStore.compact"),
    # ledger
    Target("ledger.append", "repro.ledger.ledger:Ledger.append"),
    Target("ledger.build_entry", "repro.ledger.ledger:Ledger.build_entry"),
    Target("ledger.decrypt_private", "repro.ledger.ledger:Ledger.decrypt_private"),
    Target("ledger.signature", "repro.ledger.ledger:Ledger.build_signature_entry"),
    Target("ledger.snapshot", "repro.ledger.statetransfer:build_chunked_snapshot",
           only=FAILOVER),
    Target("ledger.join", "repro.ledger.statetransfer:assemble_store", only=FAILOVER),
    # consensus
    Target("consensus.dispatch", "repro.consensus.raft:ConsensusNode.dispatch"),
    Target("consensus.replicate", "repro.consensus.raft:ConsensusNode.replicate_now"),
    Target("consensus.append", "repro.consensus.raft:ConsensusNode.note_local_append"),
    Target("consensus.encode", "repro.consensus.messages:encode_message"),
    Target("consensus.decode", "repro.consensus.messages:decode_message"),
    # net
    Target("net.send", "repro.net.network:Network.send"),
    Target("net.channel.seal", "repro.net.channels:NodeChannels.seal_frame"),
    Target("net.channel.open", "repro.net.channels:FrameAssembler.accept"),
    # node
    Target("node.rx", "repro.node.node:CCFNode._on_network_message"),
    Target("node.enqueue", "repro.node.node:CCFNode._enqueue_request"),
    Target("node.request", "repro.node.node:CCFNode._process_request"),
    Target("node.apply_replicated", "repro.node.node:CCFNode.apply_replicated_entry"),
    Target("node.commit", "repro.node.node:CCFNode.on_commit"),
    Target("node.auth", "repro.node.auth:authenticate"),
    # storage
    Target("storage.write", "repro.storage.host_storage:HostStorage.write"),
    Target("storage.fsync", "repro.storage.host_storage:HostStorage.fsync"),
    # sim: the scheduler's own dispatch; event callbacks are spanned
    # separately (``sim.callback``) by :meth:`HostTracer.install`
    Target("sim.dispatch", "repro.sim.scheduler:Scheduler.step"),
    # service: the simulated clients and this benchmark's load generator
    Target("service.client", "repro.service.client:ServiceClient.send"),
    Target("service.client", "repro.service.client:ServiceClient._on_message"),
    Target("service.client", "workloads:LoadGenerator.make_op"),
    Target("service.client", "workloads:LoadGenerator._on_response"),
    Target("service.client", "workloads:LoadGenerator._on_timeout", only=FAILOVER),
)

# Every public ObsCollector hook is wrapped as layer ``obs`` so the
# collector's own cost is not charged to the layer that called it.
OBS_CLASS = "repro.obs.collector:ObsCollector"
APP_HANDLER = "app.handler"
CALLBACK = "sim.callback"  # event-callback code no layer claims: "other"


def _import_all_repro() -> None:
    """Import every ``repro`` module so every ``from x import f`` binding
    exists before patching."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.startswith("repro.analysis") or info.name.endswith("__main__"):
            continue  # tooling and command-line entry points, never on a run's path
        importlib.import_module(info.name)


def _resolve(where: str):
    module_name, _, attr = where.partition(":")
    module = importlib.import_module(module_name)
    if "." in attr:
        class_name, method = attr.split(".")
        return module, getattr(module, class_name), method
    return module, None, attr


class HostTracer:
    """Host-clock spans in flat arrays, plus per-name call counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []  # per span name, whole run
        self.target_calls: dict[str, list[int]] = {}  # per entry point
        self.window_bytes: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.recording = False
        self._calls_at_start: list[int] = []
        self.window_calls: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.window_bytes.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, measure_bytes: bool = False, key: str = ""):
        nid = self._id(name)
        calls = self.calls
        reached = self.target_calls.setdefault(key, [0])
        sizes = self.window_bytes
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            calls[nid] += 1
            reached[0] += 1
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if measure_bytes:
                sizes[nid] += len(result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Patch every target, the ObsCollector hooks, the logging app's
        handlers and the scheduler's event callbacks."""
        _import_all_repro()
        for target in TARGETS:
            self._patch(target)
        self._patch_obs()
        self._patch_app()
        self._patch_callbacks()

    def _patch(self, target: Target) -> None:
        module, cls, attr = _resolve(target.where)
        if cls is not None:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(
                target.span, original, target.measure_bytes, key=target.where
            ))
            return
        original = getattr(module, attr)
        wrapped = self.wrap(
            target.span, original, target.measure_bytes, key=target.where
        )
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name.startswith("repro") or name == "workloads"):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapped)

    def _patch_obs(self) -> None:
        module, _cls, attr = _resolve(OBS_CLASS)
        cls = getattr(module, attr)
        for name, value in list(vars(cls).items()):
            if callable(value) and not name.startswith("_") and not isinstance(
                value, (staticmethod, classmethod, type)
            ):
                setattr(cls, name, self.wrap("obs.collector", value))

    def _patch_app(self) -> None:
        """Wrap each endpoint handler of every logging app built from now on
        (the service builds one per node)."""
        from dataclasses import replace

        from repro.app import logging_app

        original = logging_app.build_logging_app

        def build_traced_app():
            app = original()
            for name, endpoint in list(app.endpoints.items()):
                app.endpoints[name] = replace(
                    endpoint,
                    handler=self.wrap(APP_HANDLER, endpoint.handler, key=APP_HANDLER),
                )
            return app

        logging_app.build_logging_app = build_traced_app

    def _patch_callbacks(self) -> None:
        from repro.sim.scheduler import Scheduler

        original_at = Scheduler.__dict__["at"]
        wrap = self.wrap

        def at(scheduler, when, callback):
            return original_at(scheduler, when, wrap(CALLBACK, callback, key=CALLBACK))

        Scheduler.at = at

    # -- results --------------------------------------------------------

    def start(self) -> None:
        self._calls_at_start = list(self.calls)
        self.recording = True

    def stop(self) -> None:
        self.recording = False
        self.window_calls = [
            now - before for now, before in zip(self.calls, self._calls_at_start)
        ] + [0] * (len(self.calls) - len(self._calls_at_start))

    def self_times_ns(self) -> dict[str, int]:
        """Self time per span name over the recorded window."""
        n = len(self.span_start)
        starts, ends, parents, names = (
            self.span_start, self.span_end, self.span_parent, self.span_name,
        )
        child = [0] * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        totals = [0] * len(self.names)
        for i in range(n):
            totals[names[i]] += ends[i] - starts[i] - child[i]
        return {name: totals[i] for i, name in enumerate(self.names)}

    def window_call_counts(self) -> dict[str, int]:
        return {name: self.window_calls[i] for i, name in enumerate(self.names)}

    def unreached(self, workload: str) -> list[str]:
        """Wrapped entry points this workload should reach but never
        called: each one is a patch that missed its callers' binding."""
        expected = [
            target.where for target in TARGETS
            if not target.only or workload in target.only
        ] + [APP_HANDLER]
        return [key for key in expected if self.target_calls.get(key, [0])[0] == 0]

    def write(self, path: Path) -> None:
        """Write the recorded spans: a JSON header line naming the span ids,
        then the four int64/int32 arrays (name, parent, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as out:
            header = {"names": self.names, "spans": len(self.span_start),
                      "arrays": ["name:i32", "parent:i64", "start_ns:i64", "end_ns:i64"]}
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(out)

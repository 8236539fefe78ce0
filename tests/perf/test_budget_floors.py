"""Every regression floor in ``perf-budget.json``, asserted in tier-1.

Each fast path the node relies on has a floor here, measured at one fixed
operating point against the slower shape it replaced:

- **Pipeline** (simulated time): batched execution with backup read
  offload vs serial execution on the closed-loop logging workload.
- **State transfer** (simulated time): delta snapshots vs a full
  serialize, and a warm dedup re-join vs full ledger replay.
- **Host clock**: the batched KV write path vs the persistent per-write
  shape, coalesced AEAD frames vs per-message seals, and ECDSA sign/verify
  on the fast paths vs the reference double-and-add ladder.

Every host-clock comparison first checks that both sides produce identical
bytes in the same run, so a speedup can never come from doing less work.
Host timings are best-of-N ratios of two paths run back to back, which keeps
them stable on a loaded machine.
"""

from __future__ import annotations

import functools
import json
import random
import time
from pathlib import Path

import pytest

from repro.app.logging_app import build_logging_app
from repro.crypto import ct_eq, ec, ecdsa, fastec
from repro.crypto.ecdsa import SigningKey, _rfc6979_nonce
from repro.crypto.hashing import sha256
from repro.kv.champ import ChampMap
from repro.kv.store import KVStore
from repro.kv.tx import WriteSet
from repro.ledger import statetransfer
from repro.ledger.secrets import LedgerSecret
from repro.node.config import NodeConfig
from repro.node.node import CCFNode
from repro.perf.costmodel import CostModel
from repro.service.client import ClosedLoopClient, ServiceClient
from repro.service.service import CCFService, ServiceSetup
from repro.sim.metrics import ThroughputRecorder
from tests.kv.test_transient import _persistent_apply, _reference_serialize

BUDGET = json.loads(
    (Path(__file__).resolve().parents[2] / "perf-budget.json").read_text(
        encoding="utf-8"
    )
)
MESSAGE = "payload-20-chars-xyz"  # the paper's 20-character private message


# ----------------------------------------------------------------------
# Pipeline: batched + read offload vs serial, simulated time

KEY_SPACE = 1000
SIGNATURE_INTERVAL = 100
READ_RATIOS = (0.0, 0.5, 0.95)


@functools.lru_cache(maxsize=None)
def _pipeline_cell(batch_execution: bool, read_ratio: float) -> dict:
    """One closed-loop operating point: 3 nodes, concurrency 800, warmup
    0.05 s, window 0.1 s, seed 42. Writes go to the primary; reads spread
    over every node. Deterministic, so each cell runs once per pytest run."""
    service = CCFService(
        ServiceSetup(
            n_nodes=3,
            node_config=NodeConfig(
                signature_interval=SIGNATURE_INTERVAL,
                batch_execution=batch_execution,
                read_offload=batch_execution,
            ),
            app_factory=build_logging_app,
            seed=42,
        )
    )
    service.bootstrap()
    primary = service.primary_node()
    user = service.users[0]
    credentials = {"certificate": user.certificate.to_dict()}
    concurrency = 800

    # Pre-populate the read key grid, then settle past the signature flush
    # so the grid is committed: offloaded reads serve the committed
    # snapshot, and an uncommitted key would (correctly) 403 as missing.
    read_stride = KEY_SPACE // 50
    seeder = ServiceClient(
        service.scheduler, service.network, name="floor-seeder", identity=user
    )
    for key in range(0, KEY_SPACE, read_stride):
        seeder.call(
            primary.node_id,
            "/app/write_message",
            {"id": key, "msg": MESSAGE},
            credentials=credentials,
        )
    service.run(0.12)

    writes = ThroughputRecorder()
    reads = ThroughputRecorder()

    def factory(kind: str, salt: int):
        def make(i: int):
            key = (i * 7 + salt) % KEY_SPACE
            if kind == "write":
                return "/app/write_message", {"id": key, "msg": MESSAGE}, credentials
            read_key = (key // read_stride) * read_stride
            return "/app/read_message", {"id": read_key}, credentials

        return make

    clients = []
    if read_ratio < 1.0:
        endpoint = ServiceClient(
            service.scheduler, service.network, name="floor-writer", identity=user
        )
        clients.append(
            ClosedLoopClient(
                endpoint,
                primary.node_id,
                factory("write", 0),
                concurrency=max(1, int(concurrency * (1 - read_ratio))),
                throughput=writes,
                retry_timeout=2.0,
            )
        )
    if read_ratio > 0.0:
        targets = [n.node_id for n in service.nodes.values() if not n.stopped]
        per_node = max(1, int(concurrency * read_ratio) // len(targets))
        for index, target in enumerate(targets):
            endpoint = ServiceClient(
                service.scheduler,
                service.network,
                name=f"floor-reader-{index}",
                identity=user,
            )
            clients.append(
                ClosedLoopClient(
                    endpoint,
                    target,
                    factory("read", index + 1),
                    concurrency=per_node,
                    throughput=reads,
                    retry_timeout=2.0,
                )
            )

    for client in clients:
        client.start()
    service.run(0.05)
    start = service.scheduler.now
    service.run(0.1)
    end = service.scheduler.now
    for client in clients:
        client.stop()
    return {
        "writes_per_second": writes.throughput(start, end),
        "total_per_second": writes.throughput(start, end)
        + reads.throughput(start, end),
        "errors": sum(client.errors for client in clients),
    }


class TestPipelineFloors:
    def test_batched_write_speedup_at_signature_interval_100(self):
        serial = _pipeline_cell(False, 0.0)["writes_per_second"]
        batched = _pipeline_cell(True, 0.0)["writes_per_second"]
        floor = BUDGET["pipeline_write_speedup_min"]
        assert serial > 0
        assert batched / serial >= floor, (
            f"batched {batched:,.0f}/s is {batched / serial:.2f}x serial "
            f"{serial:,.0f}/s; floor {floor}x"
        )

    def test_offload_total_throughput_rises_with_read_ratio(self):
        totals = [_pipeline_cell(True, ratio)["total_per_second"] for ratio in READ_RATIOS]
        assert all(later > earlier for earlier, later in zip(totals, totals[1:])), totals

    def test_pipeline_cells_see_no_request_errors(self):
        cells = [(False, 0.0)] + [(True, ratio) for ratio in READ_RATIOS]
        errors = {cell: _pipeline_cell(*cell)["errors"] for cell in cells}
        assert not any(errors.values()), errors


# ----------------------------------------------------------------------
# State transfer: delta snapshots and warm dedup re-join, simulated time


def _build_store(n_maps: int, rows_per_map: int) -> tuple[KVStore, int]:
    store = KVStore()
    version = 0
    for m in range(n_maps):
        ws = WriteSet()
        for r in range(rows_per_map):
            ws.put(f"map{m:03d}", f"key{r:05d}", {"value": r, "map": m})
        version += 1
        store.apply_write_set(ws, version)
    return store, version


def _loaded_service(entries: int, snapshots: bool) -> tuple[CCFService, int]:
    """A three-node batched service with ``entries`` committed writes."""
    service = CCFService(
        ServiceSetup(
            n_nodes=3,
            node_config=NodeConfig(
                signature_interval=100,
                snapshot_interval=2000 if snapshots else 0,
                batch_execution=True,
            ),
            app_factory=build_logging_app,
            seed=42,
        )
    )
    service.bootstrap()
    primary = service.primary_node()
    user = service.users[0]
    credentials = {"certificate": user.certificate.to_dict()}
    endpoint = ServiceClient(
        service.scheduler, service.network, name="floor-loader", identity=user
    )
    throughput = ThroughputRecorder()
    client = ClosedLoopClient(
        endpoint,
        primary.node_id,
        lambda i: ("/app/write_message", {"id": i, "msg": MESSAGE}, credentials),
        concurrency=50,
        throughput=throughput,
        retry_timeout=2.0,
    )
    client.start()
    service.run_until(lambda: throughput.count >= entries, timeout=60.0)
    client.stop()
    service.run(0.1)  # drain in-flight requests and the signature flush
    return service, throughput.count


def _join(service: CCFService, node_id: str, storage=None) -> tuple[CCFNode, float, int]:
    """Join one node and wait until it is caught up: an active consensus
    engine and a ledger at the service's commit point. Returns the node,
    the simulated join time and the number of chunks it fetched."""
    primary = service.primary_node()
    joiner = CCFNode(
        node_id=node_id,
        scheduler=service.scheduler,
        network=service.network,
        hardware=service.hardware,
        app=service._app_factory(),
        config=service.setup.node_config,
        code_id=service.code_id,
    )
    if storage is not None:
        joiner.storage = storage
    fetched = []
    install = joiner._complete_chunked_install

    def spying_install():
        fetched.append(joiner._pending_state_transfer["fetched"])
        install()

    joiner._complete_chunked_install = spying_install
    target_seqno = primary.consensus.commit_seqno
    start = service.scheduler.now
    joiner.request_join(primary.node_id, primary.service_certificate)
    service.run_until(
        lambda: joiner.consensus is not None
        and joiner.ledger.last_seqno >= target_seqno,
        timeout=60.0,
    )
    service.nodes[node_id] = joiner
    return joiner, service.scheduler.now - start, sum(fetched)


class TestStateTransferFloors:
    def test_delta_snapshot_at_10pct_dirty_maps(self):
        n_maps, rows_per_map = 50, 200
        cost = CostModel()
        secret = LedgerSecret.generate(b"floor-snapshot")
        chunk_bytes = NodeConfig().snapshot_chunk_bytes
        store, version = _build_store(n_maps, rows_per_map)
        full = statetransfer.build_chunked_snapshot(
            store, version, secret, {"base_seqno": version}, chunk_bytes=chunk_bytes
        )
        baseline = full.baseline(store.map_table_at(version))
        for m in range(n_maps // 10):
            ws = WriteSet()
            ws.put(f"map{m:03d}", "key00000", {"value": "touched"})
            version += 1
            store.apply_write_set(ws, version)
        delta = statetransfer.build_chunked_snapshot(
            store,
            version,
            secret,
            {"base_seqno": version},
            chunk_bytes=chunk_bytes,
            baseline=baseline,
        )
        assert delta.stats["maps_dirty"] == n_maps // 10
        ratio = cost.snapshot_production_cost(
            delta.stats["entries_serialized"]
        ) / cost.snapshot_production_cost(full.stats["entries_serialized"])
        ceiling = BUDGET["snapshot_dirty_cost_ratio_max"]
        assert ratio <= ceiling, f"10%-dirty delta costs {ratio:.3f}x full; max {ceiling}x"

    def test_warm_dedup_rejoin_beats_full_replay(self):
        entries = 10_000
        # Full ledger replay: no snapshot is ever produced, so the joiner
        # streams the whole ledger through raft catch-up.
        service, committed = _loaded_service(entries, snapshots=False)
        assert committed >= entries
        joiner, full_s, _ = _join(service, "floor-full")
        assert joiner.ledger.base_seqno == 0

        # Warm dedup re-join: a disk that already caches every chunk (a
        # prior cold joiner's storage), so only the manifest travels.
        service, committed = _loaded_service(entries, snapshots=True)
        assert committed >= entries
        cold, _, cold_fetched = _join(service, "floor-cold")
        assert cold.ledger.base_seqno > 0 and cold_fetched > 0
        _, warm_s, warm_fetched = _join(
            service, "floor-warm", storage=cold.storage.clone()
        )
        assert warm_fetched == 0
        floor = BUDGET["join_dedup_speedup_min"]
        assert full_s / warm_s >= floor, (
            f"warm re-join {warm_s * 1e3:.2f} ms is {full_s / warm_s:.2f}x faster "
            f"than full replay {full_s * 1e3:.2f} ms; floor {floor}x"
        )


# ----------------------------------------------------------------------
# Host clock: batched KV write path and coalesced frame sealing

REPEATS = 3


def _best_of(run, setup) -> float:
    """Best-of-``REPEATS`` host seconds of ``run(setup())``; only ``run``
    is timed."""
    best = float("inf")
    for _ in range(REPEATS):
        prepared = setup()
        start = time.perf_counter()
        run(prepared)
        best = min(best, time.perf_counter() - start)
    return best


class _PersistentApplyStore(KVStore):
    """The write path before transient builders: one persistent path copy
    per write, plus the same version and rollback-history bookkeeping. Its
    snapshots go through ``_reference_serialize``, the encode before
    per-map memoization."""

    def apply_write_set(self, write_set: WriteSet, seqno: int) -> None:
        for map_name, entries in write_set.updates.items():
            current = self._maps.get(map_name, ChampMap.empty())
            self._maps[map_name] = _persistent_apply(current, entries)
        self.version = seqno
        self._history[seqno] = dict(self._maps)
        self._history_order.append(seqno)


class TestHostClockFloors:
    # Write-path shape: many maps, two dirty per batch, a snapshot every
    # four batches. This is the CCF steady state: app tables plus rarely
    # written governance and system maps share one store.
    N_MAPS = 16
    ROWS_PER_MAP = 1500
    BATCHES = 48
    WRITES_PER_BATCH = 256
    SNAPSHOT_EVERY = 4

    def _seed_store(self, cls: type[KVStore]) -> KVStore:
        store = cls()
        store.apply_write_set(
            WriteSet(
                updates={
                    f"public:table{m:02d}": {
                        f"key{r:05d}": r * (m + 1) for r in range(self.ROWS_PER_MAP)
                    }
                    for m in range(self.N_MAPS)
                }
            ),
            1,
        )
        return store

    def _batches(self) -> list[WriteSet]:
        rng = random.Random(5)
        batches = []
        for i in range(self.BATCHES):
            hot = (i % self.N_MAPS, (i + 7) % self.N_MAPS)
            batches.append(
                WriteSet(
                    updates={
                        f"public:table{m:02d}": {
                            f"key{rng.randrange(self.ROWS_PER_MAP):05d}": rng.randrange(10**9)
                            for _ in range(self.WRITES_PER_BATCH // 2)
                        }
                        for m in hot
                    }
                )
            )
        return batches

    def _fast_store(self) -> KVStore:
        store = self._seed_store(KVStore)
        store.serialize()  # a prior snapshot's memo, as in steady state
        return store

    def _write_path(self, store: KVStore, batches: list[WriteSet]) -> bytes:
        """Apply every batch, snapshotting every ``SNAPSHOT_EVERY`` batches;
        returns the last snapshot."""
        fast = not isinstance(store, _PersistentApplyStore)
        for i, ws in enumerate(batches):
            store.apply_write_set(ws, store.version + 1)
            if (i + 1) % self.SNAPSHOT_EVERY == 0:
                last = store.serialize() if fast else _reference_serialize(store)
        return last

    def test_kv_batch_apply_speedup(self):
        batches = self._batches()
        assert len(batches) % self.SNAPSHOT_EVERY == 0
        slow_store = functools.partial(self._seed_store, _PersistentApplyStore)
        fast_store = self._fast_store()
        assert self._write_path(fast_store, batches) == self._write_path(
            slow_store(), batches
        )
        # The memoized encode alone clears the floor, so check that the
        # transient builder ran too: its nodes keep their (retired)
        # ownership token, while persistently built nodes have none.
        assert all(champ._root.owner is not None for champ in fast_store._maps.values())
        fast_s = _best_of(lambda store: self._write_path(store, batches), self._fast_store)
        slow_s = _best_of(lambda store: self._write_path(store, batches), slow_store)
        floor = BUDGET["kv_batch_apply_speedup_min"]
        assert slow_s / fast_s >= floor, (
            f"batched write path {fast_s * 1e3:.1f} ms is {slow_s / fast_s:.2f}x "
            f"the persistent shape {slow_s * 1e3:.1f} ms; floor {floor}x"
        )

    def test_frame_seal_amortization(self):
        from repro.crypto.x25519 import DHPrivateKey
        from repro.net.channels import NodeChannels

        # Consensus acks and heartbeats are small; a frame carries one
        # scheduler event's worth of messages for one peer.
        payloads = [bytes([i % 256]) * 64 for i in range(2048)]
        frame_size = 16
        pairs = iter(range(10**6))

        def channel_pair():
            tag = b"%d" % next(pairs)
            a = NodeChannels("alpha", DHPrivateKey.generate(b"floor-a-" + tag))
            b = NodeChannels("beta", DHPrivateKey.generate(b"floor-b-" + tag))
            a.establish("beta", b.public)
            b.establish("alpha", a.public)
            return a, b

        def per_message(pair) -> list[bytes]:
            a, b = pair
            return [b.open(a.seal("beta", payload)) for payload in payloads]

        def framed(pair) -> list[bytes]:
            a, b = pair
            out = []
            for i in range(0, len(payloads), frame_size):
                sealed = a.seal_frame("beta", payloads[i:i + frame_size])
                out.extend(b.open_frame("alpha", sealed.counter, sealed.box))
            return out

        assert framed(channel_pair()) == per_message(channel_pair()) == payloads
        per_message_s = _best_of(per_message, channel_pair)
        framed_s = _best_of(framed, channel_pair)
        floor = BUDGET["frame_seal_amortization_min"]
        assert per_message_s / framed_s >= floor, (
            f"framed sealing {framed_s * 1e3:.1f} ms amortizes only "
            f"{per_message_s / framed_s:.2f}x over per-message "
            f"{per_message_s * 1e3:.1f} ms; floor {floor}x"
        )


# ----------------------------------------------------------------------
# Host clock: ECDSA on the fast paths vs the reference ladder


def _reference_sign(scalar: int, message: bytes) -> bytes:
    """RFC 6979 ECDSA signing on the reference double-and-add ladder."""
    msg_hash = sha256(message)
    e = int.from_bytes(msg_hash, "big") % ec.N
    k = _rfc6979_nonce(scalar, bytes(msg_hash))
    point = ec.scalar_mult(k, ec.GENERATOR)
    r = point.x % ec.N
    s = (pow(k, -1, ec.N) * (e + r * scalar)) % ec.N
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def _reference_verify(public: ec.Point, signature: bytes, message: bytes) -> bool:
    """ECDSA verification as two full reference ladders."""
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    if not (1 <= r < ec.N and 1 <= s < ec.N):
        return False
    e = int.from_bytes(sha256(message), "big") % ec.N
    s_inv = pow(s, -1, ec.N)
    u1 = (e * s_inv) % ec.N
    u2 = (r * s_inv) % ec.N
    point = ec.point_add(ec.scalar_mult(u1, ec.GENERATOR), ec.scalar_mult(u2, public))
    return (not point.is_infinity) and point.x % ec.N == r


class TestEcdsaFloors:
    ITERATIONS = 40

    @pytest.fixture
    def key(self):
        return SigningKey.generate(b"floor-ecdsa")

    def _per_call(self, fn) -> float:
        start = time.perf_counter()
        for i in range(self.ITERATIONS):
            fn(i)
        return (time.perf_counter() - start) / self.ITERATIONS

    def test_sign_speedup(self, key):
        for i in range(8):
            message = b"diff-%d" % i
            assert ct_eq(_reference_sign(key.scalar, message), key.sign(message))
        reference_s = self._per_call(lambda i: _reference_sign(key.scalar, b"ref-%d" % i))
        fast_s = self._per_call(lambda i: key.sign(b"fast-%d" % i))
        floor = BUDGET["ecdsa_sign_speedup_min"]
        assert reference_s / fast_s >= floor, (
            f"sign {fast_s * 1e3:.3f} ms is {reference_s / fast_s:.2f}x the "
            f"reference {reference_s * 1e3:.3f} ms; floor {floor}x"
        )

    def test_verify_speedup_without_memo(self, key, monkeypatch):
        # Distinct signatures against one hot key, memo off: the follower
        # and auditor shape, where the per-key tables are warm but every
        # message is new.
        monkeypatch.setattr(ecdsa, "_verify_memo_store", lambda memo_key: None)
        public = key.public_key
        messages = [b"merkle-root-%d" % i for i in range(self.ITERATIONS)]
        signatures = [key.sign(m) for m in messages]
        for message, signature in zip(messages[:8], signatures[:8]):
            assert _reference_verify(public.point, signature, message)
        # Past comb promotion, so the one-time table build is not timed.
        for i in range(fastec.PROMOTE_AFTER + 1):
            public.verify(signatures[i % len(signatures)], messages[i % len(messages)])
        reference_s = self._per_call(
            lambda i: _reference_verify(public.point, signatures[i], messages[i])
        )
        fast_s = self._per_call(lambda i: public.verify(signatures[i], messages[i]))
        floor = BUDGET["ecdsa_verify_speedup_min"]
        assert reference_s / fast_s >= floor, (
            f"verify {fast_s * 1e3:.3f} ms is {reference_s / fast_s:.2f}x the "
            f"reference {reference_s * 1e3:.3f} ms; floor {floor}x"
        )

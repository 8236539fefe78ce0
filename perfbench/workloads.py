"""The four benchmark workloads, their load generator and their window.

Every workload drives a full 5-node ``CCFService`` running the logging
application (signature interval 20, ``signature_flush_time`` 0.01, default
link). The service, its clients and the load generator share one
single-threaded process: simulated clients are scheduler events, not
threads or sockets, so the host clock measures the program and not the OS
scheduler.

Two clocks are reported. *Sim* figures come from the scheduler's virtual
clock and depend only on the seed. *Host* figures are wall-clock seconds of
this process, scaled by the host's measured speed (hostclock.py). The
measurement window is a fixed amount of simulated work: ``--seconds`` times
a per-workload calibration constant, in sim seconds or, for
failover-rejoin, in fault cycles. So the simulation, and every sim figure,
is identical for a seed whatever the host speed or tracing; only the host
figures move.
"""

from __future__ import annotations

import math
import random
import resource
from dataclasses import dataclass, field

from hostclock import HostClock

from repro.node.config import NodeConfig
from repro.obs.metrics import nearest_rank
from repro.service.client import ServiceClient
from repro.service.service import CCFService, ServiceSetup

N_NODES = 5
N_USERS = 4
KEYS = 1000
PAYLOAD_CHARS = 20  # "messages are private and 20 characters" (section 7)
SIGNATURE_INTERVAL = 20
SIGNATURE_FLUSH = 0.01

# Sim seconds of fault-free traffic before each primary kill. Long enough
# that requests delayed by the outage stay well under half of a cycle's, so
# the median write is a fault-free one.
STEADY_BEFORE_KILL = 0.5

WRITE = "/app/write_message"
READ = "/app/read_message"


@dataclass(frozen=True)
class Spec:
    """One workload: traffic shape, warm-up and window calibration."""

    name: str
    # Simulated seconds of measurement window per requested host second,
    # calibrated so an untraced run measures about ``--seconds`` of host
    # time on a 2-core x86 host. Fixed here, never measured at run time,
    # so the simulated work of a run depends only on seed and seconds.
    sim_per_host_second: float = 0.0
    warmup: float = 0.0  # sim seconds of traffic before the window opens
    closed_loop: int = 0  # outstanding requests (closed loop)
    rate: float = 0.0  # arrivals per sim second (open loop)
    poisson: bool = True  # Poisson arrivals; else one every 1/rate seconds
    read_share: float = 0.0
    prepopulate: bool = False
    snapshot_interval: int = 0
    cycles_per_host_second: float = 0.0  # failover cycles per --seconds


# Why each workload exists is recorded beside its name in BENCHMARK.json.
SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="write-sat",
            sim_per_host_second=0.0096,
            warmup=0.02,
            closed_loop=800,
        ),
        Spec(
            name="write-paced",
            sim_per_host_second=0.029,
            warmup=0.05,
            rate=12_000.0,
        ),
        Spec(
            name="read-mostly",
            sim_per_host_second=0.0085,
            warmup=0.005,
            closed_loop=200,
            read_share=0.9,
            prepopulate=True,
        ),
        Spec(
            name="failover-rejoin",
            warmup=0.25,
            rate=400.0,
            poisson=False,
            snapshot_interval=200,
            cycles_per_host_second=1.4,
        ),
    )
}


def payload(serial: int) -> str:
    """A distinct 20-character message per write, so a read can be traced
    back to the write that stored it."""
    return f"m{serial:0{PAYLOAD_CHARS - 1}d}"


def build_service(seed: int, snapshot_interval: int = 0) -> CCFService:
    config = NodeConfig(
        signature_interval=SIGNATURE_INTERVAL,
        signature_flush_time=SIGNATURE_FLUSH,
        snapshot_interval=snapshot_interval,
    )
    service = CCFService(
        ServiceSetup(n_nodes=N_NODES, n_users=N_USERS, node_config=config, seed=seed)
    )
    service.bootstrap()
    return service


# ----------------------------------------------------------------------
# Load generator


class Op:
    """One logical request; with retries it may take several attempts."""

    __slots__ = ("kind", "key", "value", "user", "due", "tries", "timer", "done")

    def __init__(self, kind: str, key: int, value: str | None, user: int, due: float):
        self.kind = kind
        self.key = key
        self.value = value
        self.user = user
        self.due = due
        self.tries = 0
        self.timer = None
        self.done = False


@dataclass
class Window:
    """What completed or failed inside ``[start, end)`` of sim time."""

    start: float = math.inf
    end: float = math.inf
    write_latencies: list[float] = field(default_factory=list)
    read_latencies: list[float] = field(default_factory=list)
    failed: int = 0
    outstanding_at_close: int = 0

    def holds(self, now: float) -> bool:
        return self.start <= now < self.end

    @property
    def completed(self) -> int:
        return len(self.write_latencies) + len(self.read_latencies)

    @property
    def attempted(self) -> int:
        return self.completed + self.failed + self.outstanding_at_close


class LoadGenerator:
    """Closed- or open-loop clients as scheduler events.

    Writes go to the node the generator believes is primary; it learns the
    primary only from ``/node/network`` replies, and re-probes after a
    timeout or a 503. With ``retry`` on, a failed attempt is re-sent (same
    payload) until it is acknowledged, so a request due during an outage
    completes late instead of failing; latency is timed from the due time.
    """

    def __init__(
        self,
        service: CCFService,
        rng: random.Random,
        entry_nodes: list[str],
        read_share: float = 0.0,
        timeout: float = 2.0,
        retry: bool = False,
    ):
        self.scheduler = service.scheduler
        self.rng = rng
        self.read_share = read_share
        self.timeout = timeout
        self.retry = retry
        self.clients = [
            ServiceClient(service.scheduler, service.network, name=f"bench-u{i}", identity=user)
            for i, user in enumerate(service.users)
        ]
        self.credentials = [
            {"certificate": user.certificate.to_dict()} for user in service.users
        ]
        self.nodes = list(entry_nodes)
        self.write_target = self.nodes[0]
        self.window = Window()
        self.serial = 0
        self.issued = 0
        self.outstanding = 0
        self.running = False
        self.on_finish = None  # closed loop: issue the next request
        self.written: dict[int, set[str]] = {}
        self.acked: list[tuple[float, str]] = []  # (sim time, txid) per write
        self.bad_reads: list[tuple[int, object]] = []
        self.max_lateness = 0.0
        self.suspects: set[str] = set()  # nodes that stopped answering
        self._probe_inflight = False

    # -- discovery ------------------------------------------------------

    def discover(self) -> None:
        """Blocking first contact: ask an entry node who the primary is."""
        response = self.clients[0].call(self.nodes[0], "/node/network", {}, {})
        if not response.ok:
            raise RuntimeError(f"primary discovery failed: {response.error}")
        self._learn(response.body)

    def _learn(self, body: dict) -> None:
        nodes = body.get("nodes", {})
        live = sorted(
            n for n, info in nodes.items()
            if info.get("status") == "Trusted" and n not in self.suspects
        )
        if live:
            self.nodes = live
        primary = body.get("primary")
        if primary:
            self.write_target = primary

    def _usable(self) -> list[str]:
        return [n for n in self.nodes if n not in self.suspects] or self.nodes

    def _probe(self) -> None:
        """Ask a node who the primary is; while the answer is "none" or a
        suspect (an election is still running), ask again."""
        if self._probe_inflight:
            return
        self._probe_inflight = True
        usable = self._usable()
        target = usable[self.rng.randrange(len(usable))]
        done = [False]

        def finish(body: dict | None) -> None:
            if done[0]:
                return
            done[0] = True
            self._probe_inflight = False
            if body is not None and body.get("primary") not in self.suspects | {None}:
                self._learn(body)
            elif self.running:
                self.scheduler.after(0.05, self._probe)

        self.scheduler.after(self.timeout, lambda: finish(None))
        self.clients[0].send(
            target, "/node/network", {}, {},
            on_response=lambda response: finish(response.body if response.ok else None),
        )

    # -- requests -------------------------------------------------------

    def make_op(self, due: float) -> Op:
        rng = self.rng
        key = rng.randrange(KEYS)
        user = rng.randrange(len(self.clients))
        self.issued += 1
        # The mix is exact, not drawn: of every 10 requests, 10 * read_share
        # are reads, so the write count in a window does not vary by seed.
        if self.issued % 10 < round(10 * self.read_share):
            return Op("r", key, None, user, due)
        self.serial += 1
        value = payload(self.serial)
        self.written.setdefault(key, set()).add(value)
        return Op("w", key, value, user, due)

    def issue(self, op: Op) -> None:
        self.outstanding += 1
        self._send(op)

    def _send(self, op: Op) -> None:
        op.tries += 1
        attempt = op.tries
        if op.kind == "w":
            target = self.write_target
            path, body = WRITE, {"id": op.key, "msg": op.value}
        else:
            target = self.nodes[self.rng.randrange(len(self.nodes))]
            path, body = READ, {"id": op.key}
        op.timer = self.scheduler.after(
            self.timeout, lambda: self._on_timeout(op, attempt, target)
        )
        self.clients[op.user].send(
            target, path, body, self.credentials[op.user],
            on_response=lambda response: self._on_response(op, attempt, target, response),
        )

    def _on_response(self, op: Op, attempt: int, target: str, response) -> None:
        if op.done or attempt != op.tries:
            return
        op.timer.cancel()
        if response.ok:
            self._complete(op, response)
        elif self.retry and response.status == 503:
            self._probe()
            self.scheduler.after(0.01, lambda: self._resend(op))
        else:
            self._fail(op)

    def _on_timeout(self, op: Op, attempt: int, target: str) -> None:
        if op.done or attempt != op.tries:
            return
        if self.retry:
            # Users "simply retry with other nodes" (section 4.3): a backup
            # forwards the write once it knows the new primary.
            self.suspects.add(target)
            if self.write_target in self.suspects:
                usable = self._usable()
                self.write_target = usable[self.rng.randrange(len(usable))]
            self._probe()
            self._resend(op)
        else:
            self._fail(op)

    def _resend(self, op: Op) -> None:
        if not op.done:
            self._send(op)

    def _complete(self, op: Op, response) -> None:
        op.done = True
        self.outstanding -= 1
        now = self.scheduler.now
        if op.kind == "w":
            self.acked.append((now, response.txid))
            if self.window.holds(now):
                self.window.write_latencies.append(now - op.due)
        else:
            value = (response.body or {}).get("msg")
            if value not in self.written.get(op.key, ()):
                self.bad_reads.append((op.key, value))
            if self.window.holds(now):
                self.window.read_latencies.append(now - op.due)
        if self.on_finish is not None:
            self.on_finish()

    def _fail(self, op: Op) -> None:
        op.done = True
        self.outstanding -= 1
        if self.window.holds(self.scheduler.now):
            self.window.failed += 1
        if self.on_finish is not None:
            self.on_finish()

    # -- traffic shapes -------------------------------------------------

    def start_closed(self, concurrency: int) -> None:
        self.running = True

        def next_request() -> None:
            if self.running:
                self.issue(self.make_op(self.scheduler.now))

        self.on_finish = next_request
        for _ in range(concurrency):
            next_request()

    def start_open(self, rate: float, poisson: bool) -> None:
        """Arrivals at ``rate``/s, Poisson or evenly spaced. Each arrival is
        its own event at its due time, so the generator is never late in sim
        time; lateness is still measured and reported."""
        self.running = True

        def gap() -> float:
            return self.rng.expovariate(rate) if poisson else 1.0 / rate

        def arrive(due: float) -> None:
            if not self.running:
                return
            self.max_lateness = max(self.max_lateness, self.scheduler.now - due)
            self.issue(self.make_op(due))
            next_due = due + gap()
            self.scheduler.at(next_due, lambda: arrive(next_due))

        first = self.scheduler.now + gap()
        self.scheduler.at(first, lambda: arrive(first))

    def stop(self) -> None:
        self.running = False

    def open_window(self) -> None:
        self.window.start = self.scheduler.now

    def close_window(self) -> None:
        self.window.end = self.scheduler.now
        self.window.outstanding_at_close = self.outstanding


# ----------------------------------------------------------------------
# Running a workload
#
# Host time is taken in laps of a ``HostClock`` between simulation steps
# (see hostclock.py); laps never change what is simulated.

WINDOW_LAPS = 80
LAP_SIM_SECONDS = 0.005  # lap cadence while waiting on a condition


@dataclass
class RunResult:
    """Everything one run of one workload measured, before formatting."""

    setup: HostClock
    window: HostClock
    generator: LoadGenerator
    service: CCFService
    window_sim_s: float = 0.0
    events_in_window: int = 0
    cycles: list[dict] = field(default_factory=list)
    peak_rss_mb: float = 0.0


def run_for(service: CCFService, clock: HostClock, seconds: float, laps: int) -> None:
    """Advance ``seconds`` of sim time in ``laps`` equal steps."""
    start = service.scheduler.now
    for lap in range(1, laps + 1):
        service.scheduler.run_until(start + seconds * lap / laps)
        clock.lap()


def run_until(service: CCFService, clock: HostClock, predicate, timeout: float) -> None:
    """Step the simulation until ``predicate()`` holds, lapping every
    ``LAP_SIM_SECONDS`` of sim time."""
    scheduler = service.scheduler
    deadline = scheduler.now + timeout
    next_lap = scheduler.now + LAP_SIM_SECONDS
    while not predicate():
        if scheduler.now >= deadline or not scheduler.step():
            raise RuntimeError(f"condition not reached within {timeout}s of sim time")
        if scheduler.now >= next_lap:
            clock.lap()
            next_lap = scheduler.now + LAP_SIM_SECONDS
    clock.lap()


def _settled(service: CCFService):
    """Every live node has committed the primary's whole ledger (the
    signature flush timer closes the trailing batch)."""

    def settled() -> bool:
        primary = service.primary_node()
        if primary is None:
            return False
        last = primary.ledger.last_seqno
        return all(
            node.consensus.commit_seqno == last and node.ledger.last_seqno == last
            for node in service.nodes.values()
            if not node.stopped and node.consensus is not None
        )

    return settled


def _prepopulate(service: CCFService, gen: LoadGenerator, clock: HostClock) -> None:
    """Write every key once (so reads over all keys hit), 200 in flight."""
    keys = iter(range(KEYS))

    def next_key() -> None:
        key = next(keys, None)
        if key is None:
            return
        gen.serial += 1
        value = payload(gen.serial)
        gen.written.setdefault(key, set()).add(value)
        gen.issue(Op("w", key, value, 0, service.scheduler.now))

    gen.on_finish = next_key
    for _ in range(200):
        next_key()
    run_until(service, clock, lambda: gen.outstanding == 0, timeout=30.0)
    gen.on_finish = None
    run_until(service, clock, _settled(service), timeout=5.0)


def setup(spec: Spec, seed: int, on_service=None) -> tuple[CCFService, LoadGenerator, HostClock]:
    """Bootstrap, prepopulate and warm up, timed on a fresh clock.
    ``on_service(service)`` runs right after bootstrap (observers attach)."""
    clock = HostClock()
    service = build_service(seed, spec.snapshot_interval)
    if on_service is not None:
        on_service(service)
    clock.lap()
    rng = random.Random(f"perfbench|{spec.name}|{seed}")
    gen = LoadGenerator(
        service,
        rng,
        sorted(service.nodes),
        read_share=spec.read_share,
        timeout=0.1 if spec.cycles_per_host_second else 2.0,
        retry=bool(spec.cycles_per_host_second),
    )
    gen.discover()
    if spec.prepopulate:
        _prepopulate(service, gen, clock)
    if spec.closed_loop:
        gen.start_closed(spec.closed_loop)
    else:
        gen.start_open(spec.rate, spec.poisson)
    run_for(service, clock, spec.warmup, laps=8)
    return service, gen, clock


def run_workload(spec: Spec, seed: int, seconds: float, on_service=None,
                 on_window=None) -> RunResult:
    """Set up, measure one window, drain. ``on_window(opening, service)``
    is called as the window opens and closes (the tracer's switch)."""
    service, gen, setup_clock = setup(spec, seed, on_service)
    clock = HostClock()
    result = RunResult(setup=setup_clock, window=clock, generator=gen, service=service)
    scheduler = service.scheduler
    if on_window is not None:
        on_window(True, service)
    events_before = scheduler.events_processed
    gen.open_window()
    clock.restart()
    if spec.cycles_per_host_second:
        cycles = max(3, round(seconds * spec.cycles_per_host_second))
        for _ in range(cycles):
            result.cycles.append(failover_cycle(service, gen, clock))
        run_for(service, clock, 0.1, laps=4)
    else:
        run_for(service, clock, seconds * spec.sim_per_host_second, WINDOW_LAPS)
    gen.close_window()
    result.events_in_window = scheduler.events_processed - events_before
    if on_window is not None:
        on_window(False, service)
    result.window_sim_s = gen.window.end - gen.window.start
    gen.stop()
    drain = HostClock()
    run_until(service, drain, lambda: gen.outstanding == 0, timeout=10.0)
    run_until(service, drain, _settled(service), timeout=5.0)
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def failover_cycle(service: CCFService, gen: LoadGenerator, clock: HostClock) -> dict:
    """One Figure 9 cycle: kill the primary, join a replacement from a
    chunked snapshot through governance, retire the dead node."""
    scheduler = service.scheduler
    run_for(service, clock, STEADY_BEFORE_KILL, laps=8)
    primary = service.primary_node()
    dead = primary.node_id
    view_at_kill = primary.consensus.view
    killed_at = scheduler.now
    acks_before = len(gen.acked)
    service.kill_node(dead)

    def first_new_view_ack() -> float | None:
        for when, txid in gen.acked[acks_before:]:
            if int(txid.split(".")[0]) > view_at_kill:
                return when
        return None

    run_until(service, clock, lambda: first_new_view_ack() is not None, timeout=10.0)
    unavail = first_new_view_ack() - killed_at
    elections_view = service.primary_node().consensus.view - view_at_kill

    # The operator joins the replacement once the new primary's host disk
    # holds a chunked snapshot manifest, so the join is a snapshot join.
    run_until(
        service, clock,
        lambda: service.primary_node() is not None
        and bool(service.primary_node().storage.list_files("manifest_")),
        timeout=10.0,
    )
    target = service.primary_node().consensus.commit_seqno
    known = set(service.nodes)
    join_sim = scheduler.now
    host_before = clock.scaled
    caught_up: list[float] = []

    def poll() -> None:
        for node_id, node in service.nodes.items():
            if (
                node_id not in known
                and node.consensus is not None
                and node.consensus.commit_seqno >= target
            ):
                caught_up.append(scheduler.now)
                return
        scheduler.after(0.001, poll)

    poll()
    node = service.add_node()
    clock.lap()
    run_until(service, clock, lambda: bool(caught_up), timeout=10.0)
    rejoin_host = clock.scaled - host_before

    service.run_governance([{"name": "remove_node", "args": {"node_id": dead}}])
    clock.lap()
    run_until(
        service, clock,
        lambda: dead not in service.primary_node().consensus.configurations.current.nodes,
        timeout=10.0,
    )
    return {
        "killed_view": view_at_kill,
        "unavail_s": unavail,
        "views": elections_view,
        "rejoin_s": caught_up[0] - join_sim,
        "rejoin_host_s": rejoin_host,
        "joined": node.node_id,
        "removed": dead,
    }


def percentile(values: list[float], p: float) -> float:
    return nearest_rank(sorted(values), p)

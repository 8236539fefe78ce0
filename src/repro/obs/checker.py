"""Trace conformance checking: replay an exported trace against the model.

"Smart Casual Verification of CCF" (PAPERS.md) validates live execution
traces against the TLA+ spec. This is the reproduction's version of that
loop: every traced run emits ledger/consensus events (via
:mod:`repro.obs.collector`), and this module folds those events back into
the abstract states of :mod:`repro.verification.model`, checking the model's
safety invariants — election safety, commit agreement, committed-prefix
stability — after every event. A passing chaos run is therefore not just
"nothing crashed" but "every observed state transition was one the spec
allows".

Event vocabulary (span names; all zero-duration events with a ``node``):

- ``ledger.append``   attrs: view, seqno, kind, sig
- ``ledger.truncate`` attrs: seqno
- ``consensus.commit`` attrs: view, seqno
- ``consensus.become_primary`` / ``consensus.step_down`` /
  ``consensus.election`` attrs: view

A trace recorded from mid-run attachment (or from a node that joined via
snapshot) has *log gaps*: the entries below the snapshot base were never
observed. Gapped traces degrade gracefully — election safety is still
checked exactly, while log-prefix invariants (which need the full prefix)
are skipped and reported via ``has_gaps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.spans import Span, load_jsonl
from repro.verification import model

EVENT_NAMES = frozenset(
    (
        "ledger.append",
        "ledger.truncate",
        "consensus.commit",
        "consensus.become_primary",
        "consensus.step_down",
        "consensus.election",
    )
)


@dataclass
class CheckResult:
    """Outcome of one trace conformance check."""

    violation: str | None = None
    events_checked: int = 0
    states_checked: int = 0
    nodes: list[str] = field(default_factory=list)
    has_gaps: bool = False

    @property
    def ok(self) -> bool:
        return self.violation is None

    def describe(self) -> str:
        if self.ok:
            suffix = " (log invariants skipped: gapped trace)" if self.has_gaps else ""
            return (
                f"conformant: {self.events_checked} events over "
                f"{len(self.nodes)} nodes{suffix}"
            )
        return f"violation after {self.events_checked} events: {self.violation}"


class _NodeFold:
    """One node's abstract state, folded from its trace events."""

    __slots__ = ("view", "role", "log", "commit", "gapped")

    def __init__(self) -> None:
        self.view = 1
        self.role = model.BACKUP
        self.log: list[tuple[int, bool]] = []
        self.commit = 0
        self.gapped = False


class TraceChecker:
    """Feed trace events in order; every fold step is invariant-checked.

    The fold is incremental: an event changes one node, so only that node
    can break an invariant that held before it. Election safety compares
    the node against the other current primaries, and commit agreement
    compares its newly committed range against one global committed
    sequence (every node's committed prefix is a prefix of it). Each event
    therefore costs O(nodes + newly committed entries), not O(trace). When
    the cheap check flags a suspect, :func:`model.check_state` and
    :func:`model.check_edge` on the full abstract state give the verdict
    and its description, so the verdicts are exactly the model's.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, _NodeFold] = {}
        self._order: list[str] = []  # first-seen order (stable node indexing)
        # The longest committed prefix any node has reached.
        self._committed: list[tuple[int, bool]] = []
        # Whether the previous event's state is comparable to this one's;
        # edge checks compare node-wise, so a new node restarts the chain.
        self._chained = False
        self.result = CheckResult()

    def _node(self, node_id: str) -> _NodeFold:
        fold = self._nodes.get(node_id)
        if fold is None:
            fold = _NodeFold()
            self._nodes[node_id] = fold
            self._order.append(node_id)
            self.result.nodes.append(node_id)
            self._chained = False
        return fold

    @property
    def has_gaps(self) -> bool:
        return self.result.has_gaps

    def _abstract_state(self, gapped: bool) -> model.State:
        """The global abstract state. For gapped traces the logs and commits
        are zeroed: election safety still checks exactly, while the prefix
        invariants degrade to trivially-true (reported via has_gaps)."""
        nodes = []
        for node_id in self._order:
            fold = self._nodes[node_id]
            if gapped:
                nodes.append((fold.view, fold.role, (), 0))
            else:
                nodes.append((fold.view, fold.role, tuple(fold.log), fold.commit))
        return tuple(nodes)

    def feed(self, span: Span) -> str | None:
        """Fold one event span; returns a violation description (and records
        it) or None. Non-event spans are ignored."""
        if self.result.violation is not None:
            return self.result.violation
        if span.name not in EVENT_NAMES or span.node is None:
            return None
        fold = self._node(span.node)
        attrs = span.attrs
        self.result.events_checked += 1
        gapped_before = self.result.has_gaps
        commit_before = fold.commit

        if span.name == "ledger.append":
            seqno, view = attrs["seqno"], attrs["view"]
            expected = len(fold.log) + 1
            if fold.gapped or seqno > expected:
                # Snapshot-based ledger (or mid-run attach): prefix unseen.
                fold.gapped = True
                self.result.has_gaps = True
            elif seqno < expected:
                return self._fail(
                    span,
                    f"append at seqno {seqno} but log already has "
                    f"{len(fold.log)} entries (no truncate observed)",
                )
            else:
                fold.log.append((view, bool(attrs.get("sig", False))))
        elif span.name == "ledger.truncate":
            seqno = attrs["seqno"]
            if not fold.gapped:
                if seqno < fold.commit:
                    return self._fail(
                        span,
                        f"truncate to {seqno} below commit {fold.commit}",
                    )
                del fold.log[seqno:]
        elif span.name == "consensus.commit":
            seqno, view = attrs["seqno"], attrs["view"]
            fold.view = max(fold.view, view)
            if not fold.gapped and seqno > len(fold.log):
                return self._fail(
                    span,
                    f"commit {seqno} beyond observed log length {len(fold.log)}",
                )
            if seqno < fold.commit:
                return self._fail(
                    span, f"commit regressed {fold.commit} -> {seqno}"
                )
            fold.commit = seqno
        elif span.name == "consensus.become_primary":
            fold.role = model.PRIMARY
            fold.view = attrs["view"]
        elif span.name == "consensus.step_down":
            fold.role = model.BACKUP
            fold.view = max(fold.view, attrs["view"])
        elif span.name == "consensus.election":
            fold.role = model.BACKUP  # candidate: not a primary yet
            fold.view = max(fold.view, attrs["view"])

        self.result.states_checked += 1
        violation = self._violation(fold, commit_before, gapped_before)
        if violation is not None:
            return self._fail(span, violation)
        self._chained = True
        return None

    def _violation(
        self, fold: _NodeFold, commit_before: int, gapped_before: bool
    ) -> str | None:
        """Invariant check after ``fold`` changed; every other node is as it
        was when the previous event passed."""
        gapped = self.result.has_gaps
        suspect = fold.role == model.PRIMARY and any(
            other is not fold
            and other.role == model.PRIMARY
            and other.view == fold.view
            for other in self._nodes.values()
        )
        if not gapped:
            # Appends land past commit and truncates never cut below it, so
            # only a commit advance can change a committed prefix.
            committed = self._committed
            for index in range(commit_before, fold.commit):
                if index == len(committed):
                    committed.append(fold.log[index])
                elif committed[index] != fold.log[index]:
                    suspect = True
                    break
        if suspect:
            return model.check_state(self._abstract_state(gapped))
        if gapped and not gapped_before and self._chained:
            # The first gap zeroes every commit in the abstract state, which
            # the edge check sees as a regression of any positive commit.
            if any(other.commit > 0 for other in self._nodes.values()):
                return model.check_edge(
                    self._abstract_state(False), self._abstract_state(True)
                )
        return None

    def _fail(self, span: Span, description: str) -> str:
        violation = f"[span {span.index} {span.name} node={span.node}] {description}"
        self.result.violation = violation
        return violation


def check_trace(spans: list[Span]) -> CheckResult:
    """Replay a full trace (span list, creation order) through the checker."""
    checker = TraceChecker()
    for span in sorted(spans, key=lambda s: s.index):
        checker.feed(span)
        if checker.result.violation is not None:
            break
    return checker.result


def check_trace_text(jsonl: str) -> CheckResult:
    """Check a JSONL trace export (as produced by ``export_jsonl``)."""
    return check_trace(load_jsonl(jsonl))

"""Tests for the trace conformance checker (repro.obs.checker).

Synthetic traces pin the violation detectors one by one; the chaos test
replays a full fault-injected schedule's trace through the checker and
requires model conformance end to end. A reference checker that rebuilds
the full abstract state after every event pins the incremental fold to the
same verdicts.
"""

from __future__ import annotations

import pytest

from repro.obs import ObsCollector
from repro.obs.checker import EVENT_NAMES, TraceChecker, check_trace, check_trace_text
from repro.obs.spans import Span, export_jsonl
from repro.sim.chaos import ChaosEngine, ChaosSpec
from repro.verification import model


def _event(index: int, name: str, node: str, **attrs) -> Span:
    assert name in EVENT_NAMES
    span = Span(
        index=index,
        span_id=f"s{index:04d}",
        name=name,
        start=float(index),
        trace_id=f"s{index:04d}",
        node=node,
        attrs=attrs,
    )
    span.end = span.start
    return span


def _bootstrap_events(node: str = "n0", start: int = 0) -> list[Span]:
    return [
        _event(start, "consensus.become_primary", node, view=1),
        _event(start + 1, "ledger.append", node, view=1, seqno=1, kind="signature", sig=True),
        _event(start + 2, "consensus.commit", node, view=1, seqno=1),
    ]


class TestConformantTraces:
    def test_empty_trace_is_ok(self):
        result = check_trace([])
        assert result.ok
        assert result.events_checked == 0

    def test_simple_primary_lifecycle(self):
        spans = _bootstrap_events()
        spans += [
            _event(3, "ledger.append", "n0", view=1, seqno=2, kind="user", sig=False),
            _event(4, "ledger.append", "n0", view=1, seqno=3, kind="signature", sig=True),
            _event(5, "consensus.commit", "n0", view=1, seqno=3),
        ]
        result = check_trace(spans)
        assert result.ok, result.describe()
        assert result.events_checked == 6
        assert not result.has_gaps

    def test_rollback_after_election_is_allowed(self):
        spans = _bootstrap_events()
        spans += [
            _event(3, "ledger.append", "n0", view=1, seqno=2, kind="user", sig=False),
            # Uncommitted suffix rolled back on a new view: legal.
            _event(4, "ledger.truncate", "n0", seqno=1),
            _event(5, "consensus.election", "n0", view=2),
            _event(6, "consensus.step_down", "n0", view=2),
        ]
        result = check_trace(spans)
        assert result.ok, result.describe()

    def test_gapped_trace_degrades_gracefully(self):
        # Mid-run attach: first observed append is at seqno 100.
        spans = [
            _event(0, "ledger.append", "n3", view=2, seqno=100, kind="user", sig=False),
            _event(1, "consensus.commit", "n3", view=2, seqno=100),
        ]
        result = check_trace(spans)
        assert result.ok, result.describe()
        assert result.has_gaps
        assert "gapped" in result.describe()

    def test_non_event_spans_are_ignored(self):
        request = Span(index=0, span_id="r0", name="request", start=0.0, trace_id="r0")
        result = check_trace([request] + _bootstrap_events(start=1))
        assert result.ok
        assert result.events_checked == 3


def _two_primaries_trace() -> list[Span]:
    return _bootstrap_events("n0") + [
        _event(10, "consensus.become_primary", "n1", view=1),
    ]


def _commit_regression_trace() -> list[Span]:
    return _bootstrap_events() + [
        _event(3, "ledger.append", "n0", view=1, seqno=2, kind="signature", sig=True),
        _event(4, "consensus.commit", "n0", view=1, seqno=2),
        _event(5, "consensus.commit", "n0", view=1, seqno=1),
    ]


def _truncate_below_commit_trace() -> list[Span]:
    return _bootstrap_events() + [
        _event(3, "ledger.truncate", "n0", seqno=0),
    ]


def _commit_beyond_log_trace() -> list[Span]:
    return _bootstrap_events() + [
        _event(3, "consensus.commit", "n0", view=1, seqno=9),
    ]


def _append_without_truncate_trace() -> list[Span]:
    return _bootstrap_events() + [
        _event(3, "ledger.append", "n0", view=1, seqno=1, kind="user", sig=False),
    ]


def _prefix_divergence_trace() -> list[Span]:
    return _bootstrap_events("n0") + [
        # n1 commits a *different* entry at seqno 1 (sig=False).
        _event(10, "ledger.append", "n1", view=1, seqno=1, kind="user", sig=False),
        _event(11, "consensus.commit", "n1", view=1, seqno=1),
    ]


VIOLATION_TRACES = {
    "two_primaries": _two_primaries_trace,
    "commit_regression": _commit_regression_trace,
    "truncate_below_commit": _truncate_below_commit_trace,
    "commit_beyond_log": _commit_beyond_log_trace,
    "append_without_truncate": _append_without_truncate_trace,
    "prefix_divergence": _prefix_divergence_trace,
}


class TestViolations:
    def test_two_primaries_in_one_view(self):
        result = check_trace(_two_primaries_trace())
        assert not result.ok
        assert "two primaries in view 1" in result.violation

    def test_commit_regression(self):
        result = check_trace(_commit_regression_trace())
        assert not result.ok
        assert "commit regressed" in result.violation

    def test_truncate_below_commit(self):
        result = check_trace(_truncate_below_commit_trace())
        assert not result.ok
        assert "below commit" in result.violation

    def test_commit_beyond_observed_log(self):
        result = check_trace(_commit_beyond_log_trace())
        assert not result.ok
        assert "beyond observed log" in result.violation

    def test_append_without_truncate(self):
        result = check_trace(_append_without_truncate_trace())
        assert not result.ok
        assert "no truncate observed" in result.violation

    def test_committed_prefix_divergence_across_nodes(self):
        result = check_trace(_prefix_divergence_trace())
        assert not result.ok
        assert "disagree" in result.violation

    def test_violation_names_the_span(self):
        result = check_trace(_commit_beyond_log_trace())
        assert "[span 3 consensus.commit node=n0]" in result.violation


class TestRoundTrip:
    def test_check_trace_text_round_trips_through_jsonl(self):
        spans = _bootstrap_events() + [
            _event(3, "ledger.append", "n0", view=1, seqno=2, kind="signature", sig=True),
            _event(4, "consensus.commit", "n0", view=1, seqno=2),
        ]
        text = export_jsonl(spans)
        result = check_trace_text(text)
        assert result.ok, result.describe()
        assert result.events_checked == 5

    def test_empty_text_is_ok(self):
        assert check_trace_text("").ok


@pytest.fixture(scope="module")
def chaos_run():
    collector = ObsCollector(seed=2)
    spec = ChaosSpec(steps=4, p_crash=0.4, p_partition=0.3)
    report = ChaosEngine(spec).run_schedule(2, obs=collector)
    return report, collector.spans


class TestChaosConformance:
    @pytest.mark.slow
    def test_fault_injected_schedule_yields_conformant_trace(self, chaos_run):
        report, spans = chaos_run
        assert report.steps_run == 4
        assert len(spans) > 100

        result = check_trace(spans)
        assert result.ok, result.describe()
        assert result.events_checked > 50
        # Faults were actually injected and observed.
        assert report.fault_kinds, "schedule injected no faults"
        assert report.ok, report.fingerprint()


class _FullStateChecker(TraceChecker):
    """The reference fold: rebuild the whole abstract state after every
    event and run the model's state and edge checks on it. Quadratic in
    trace length, which is why the production checker folds incrementally."""

    def __init__(self) -> None:
        super().__init__()
        self._prev_state = None

    def _violation(self, fold, commit_before, gapped_before):
        state = self._abstract_state(self.result.has_gaps)
        violation = model.check_state(state)
        if violation is None and self._chained:
            violation = model.check_edge(self._prev_state, state)
        if violation is None:
            self._prev_state = state
        return violation


def _check_both(spans: list[Span]) -> tuple:
    reference = _FullStateChecker()
    for span in sorted(spans, key=lambda s: s.index):
        if reference.feed(span) is not None:
            break
    return check_trace(spans), reference.result


def _first_violation_index(result) -> int | None:
    if result.ok:
        return None
    return int(result.violation.split()[1])


def _assert_same_verdict(spans: list[Span]) -> None:
    incremental, reference = _check_both(spans)
    assert incremental.violation == reference.violation
    assert _first_violation_index(incremental) == _first_violation_index(reference)
    assert incremental.events_checked == reference.events_checked
    assert incremental.states_checked == reference.states_checked
    assert incremental.has_gaps == reference.has_gaps


class TestIncrementalFoldMatchesFullState:
    @pytest.mark.parametrize("name", sorted(VIOLATION_TRACES))
    def test_violation_cases(self, name):
        _assert_same_verdict(VIOLATION_TRACES[name]())

    def test_conformant_and_gapped_cases(self):
        _assert_same_verdict(_bootstrap_events())
        _assert_same_verdict(
            [
                _event(0, "ledger.append", "n3", view=2, seqno=100, kind="user", sig=False),
                _event(1, "consensus.commit", "n3", view=2, seqno=100),
            ]
        )
        # A known node's first gap while another node has committed.
        _assert_same_verdict(
            _bootstrap_events("n0")
            + [
                _event(3, "ledger.append", "n1", view=1, seqno=1, kind="signature", sig=True),
                _event(4, "ledger.append", "n1", view=1, seqno=9, kind="user", sig=False),
            ]
        )

    def test_chaos_trace(self, chaos_run):
        _report, spans = chaos_run
        _assert_same_verdict(spans)

    def test_chaos_trace_with_injected_faults(self, chaos_run):
        # Corrupt one event at a time across the trace: flip a committed
        # entry's signature bit, rewind a commit, or crown a second primary.
        # Both folds must flag the same span with the same description.
        _report, spans = chaos_run
        events = [s for s in spans if s.name in EVENT_NAMES]
        appends = [s for s in events if s.name == "ledger.append"]
        commits = [s for s in events if s.name == "consensus.commit"]
        primaries = [s for s in events if s.name == "consensus.become_primary"]
        cases = []
        for span in appends[:: max(1, len(appends) // 6)]:
            cases.append((span, {"sig": not span.attrs.get("sig", False)}))
        for span in commits[:: max(1, len(commits) // 6)]:
            cases.append((span, {"seqno": max(0, span.attrs["seqno"] - 1)}))
        for span in primaries:
            cases.append((span, {"view": 1}))
        verdicts = set()
        for target, change in cases:
            mutated = [
                _clone(span, **change) if span is target else span for span in spans
            ]
            incremental, reference = _check_both(mutated)
            assert incremental.violation == reference.violation, (target.index, change)
            verdicts.add(incremental.ok)
        assert False in verdicts  # at least one corruption was caught


def _clone(span: Span, **attrs) -> Span:
    copy = Span(
        index=span.index,
        span_id=span.span_id,
        name=span.name,
        start=span.start,
        trace_id=span.trace_id,
        node=span.node,
        attrs={**span.attrs, **attrs},
    )
    copy.end = span.end
    return copy

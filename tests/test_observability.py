"""Observability layer: tracer, JSONL trace, NCD attribution, stats snapshots.

The two load-bearing guarantees, each pinned by a regression test here:

* **conservation** — the site-attributed NCD histogram partitions the
  metric's global counter *exactly* (sum over sites == ``n_calls``), for
  BUBBLE, BUBBLE-FM, and wrapped metrics alike;
* **zero disabled-path overhead** — a scan with no ledger active makes
  exactly the distance calls a traced scan books, and (beyond a loose
  factor) takes no longer than a traced one.
"""

from __future__ import annotations

import io
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preclusterer import BUBBLE, BUBBLEFM
from repro.datasets import make_authority_dataset, make_ds2
from repro.exceptions import MetricBudgetExceededError, ParameterError
from repro.index import BruteForceIndex, VPTree
from repro.index.base import QUERY_KNN_SITE, QUERY_RANGE_SITE
from repro.metrics import EditDistance, EuclideanDistance
from repro.metrics.base import (
    UNATTRIBUTED_SITE,
    CallLedger,
    active_ledger,
    site,
)
from repro.metrics.cache import CachedDistance
from repro.observability import StatsSnapshot, Tracer, format_summary
from repro.pipelines import build_authority_file, cluster_dataset, map_first_cluster
from repro.robustness import FlakyMetric, GuardedMetric


def _ds2_objects(n=500, seed=13):
    return make_ds2(n_points=n, seed=seed).as_objects()


def _events(stream):
    """The events a tracer wrote to a ``jsonl=`` string stream."""
    return [json.loads(line) for line in stream.getvalue().splitlines()]


def _check_event_stream(events):
    """Assert the enter/exit events form a well-nested, monotone trace."""
    stack = []
    last_seq = -1
    last_ncd = 0
    for ev in events:
        if ev["ev"] == "summary":
            continue
        assert ev["ncd"] >= last_ncd, "ledger total must be monotone"
        last_ncd = ev["ncd"]
        if ev["ev"] == "enter":
            assert ev["seq"] > last_seq, "span seq must be strictly increasing"
            last_seq = ev["seq"]
            assert ev["depth"] == len(stack)
            stack.append((ev["span"], ev["seq"]))
        else:
            assert ev["ev"] == "exit"
            assert stack, f"exit {ev['span']!r} with no open span"
            name, seq = stack.pop()
            assert name == ev["span"], "exit must match the innermost open span"
            assert seq == ev["seq"]
            assert ev["dncd"] >= 0
            assert ev["dt"] >= 0
    assert not stack, f"spans left open: {[s for s, _ in stack]}"


# ----------------------------------------------------------------------
# Satellite 1: conservation — sites partition the global NCD counter
# ----------------------------------------------------------------------
class TestConservation:
    @pytest.mark.parametrize("cls", [BUBBLE, BUBBLEFM])
    def test_sites_sum_to_metric_counter(self, cls):
        metric = EuclideanDistance()
        tracer = Tracer()
        model = cls(metric, max_nodes=25, seed=3)
        with tracer:
            model.fit(_ds2_objects())
            model.assign(_ds2_objects(n=100, seed=14))
        by_site = tracer.by_site
        assert sum(by_site.values()) == tracer.total == metric.n_calls
        # The taxonomy actually fired: routing and maintenance sites exist.
        assert by_site["leaf-d0"] > 0
        assert by_site["redistribute"] > 0
        if cls is BUBBLEFM:
            assert by_site["fastmap-refit"] > 0

    def test_conservation_under_wrapped_metric(self):
        # CachedDistance counts through the inner metric's public API, so
        # attribution must conserve against the *wrapper's* counter too.
        metric = CachedDistance(EuclideanDistance(), key=lambda v: v.tobytes())
        tracer = Tracer()
        model = BUBBLE(metric, max_nodes=20, seed=5)
        with tracer:
            model.fit(_ds2_objects(n=300, seed=21))
        assert sum(tracer.by_site.values()) == metric.n_calls

    def test_untraced_metrics_do_not_leak_into_ledger(self):
        tracer = Tracer()
        outside = EuclideanDistance()
        with tracer:
            pass  # nothing measured while active
        outside.distance(np.zeros(2), np.ones(2))
        assert tracer.total == 0


# ----------------------------------------------------------------------
# Satellite 2: trace well-formedness under splits and rebuilds (property)
# ----------------------------------------------------------------------
class TestTraceProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=60, max_value=160),
        max_nodes=st.integers(min_value=5, max_value=12),
    )
    def test_events_always_well_nested(self, seed, n, max_nodes):
        # Tiny node budgets and branching force splits and repeated
        # rebuilds, the paths where span pairing could break.
        rng = np.random.default_rng(seed)
        objs = list(rng.uniform(0, 50, size=(n, 2)))
        stream = io.StringIO()
        tracer = Tracer(jsonl=stream)
        metric = EuclideanDistance()
        model = BUBBLE(metric, branching_factor=3, max_nodes=max_nodes, seed=seed)
        with tracer:
            model.fit(objs)
        tracer.close()
        _check_event_stream(_events(stream))
        assert sum(tracer.by_site.values()) == metric.n_calls

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_events_well_nested_for_bubble_fm(self, seed):
        rng = np.random.default_rng(seed)
        objs = list(rng.normal(size=(120, 2)))
        stream = io.StringIO()
        tracer = Tracer(jsonl=stream)
        model = BUBBLEFM(EuclideanDistance(), branching_factor=4, max_nodes=8, seed=seed)
        with tracer:
            model.fit(objs)
        tracer.close()
        _check_event_stream(_events(stream))


# ----------------------------------------------------------------------
# Satellite 3: the disabled path is free
# ----------------------------------------------------------------------
class TestOverheadGuard:
    def _build(self, tracer):
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=30, seed=9)
        start = time.perf_counter()
        if tracer is None:
            model.fit(_ds2_objects(n=2_000, seed=17))
        else:
            with tracer:
                model.fit(_ds2_objects(n=2_000, seed=17))
        return metric.n_calls, time.perf_counter() - start

    def test_untraced_scan_makes_exactly_the_traced_calls(self):
        untraced, t_plain = self._build(None)
        tracer = Tracer()
        traced, t_traced = self._build(tracer)
        assert untraced == traced == tracer.total == sum(tracer.by_site.values())
        # Loose wall-clock guard only: the untraced path must not be
        # pathologically slower than the traced one (catches accidental
        # O(n) work on the path with no ledger active).
        assert t_plain < 10 * max(t_traced, 1e-3)


# ----------------------------------------------------------------------
# Every library entry point names its phases on any ledger
# ----------------------------------------------------------------------
def _cluster(algorithm, global_method):
    def run():
        metric = EuclideanDistance()
        cluster_dataset(
            _ds2_objects(n=300, seed=41), metric, n_clusters=5, algorithm=algorithm,
            global_method=global_method, image_dim=2, max_nodes=12, seed=0,
        )
        return metric

    return run


def _map_first():
    # The image-space BIRCH and HAC run on a private ledger, so the
    # caller's ledger books only this metric's FastMap calls.
    metric = EuclideanDistance()
    map_first_cluster(
        _ds2_objects(n=300, seed=41), metric, 5, image_dim=2, max_nodes=12, seed=0,
    )
    return metric


def _authority():
    metric = EditDistance()
    records = make_authority_dataset(n_classes=6, n_strings=60, seed=3).strings
    build_authority_file(records, metric, max_nodes=12, seed=0)
    return metric


def _sharded_fit():
    metric = EuclideanDistance()
    BUBBLE(metric, max_nodes=12, seed=1, n_shards=3).fit(_ds2_objects(n=300, seed=41))
    return metric


def _index_queries():
    metric = EuclideanDistance()
    objs = _ds2_objects(n=300, seed=41)
    index = BUBBLE(metric, max_nodes=12, seed=0).fit(objs).index()
    for query in objs[:10]:
        index.nearest(query, k=3)
        index.within(query, radius=5.0)
    return metric


_ENTRY_POINTS = {
    **{
        f"cluster-{algorithm}-{method}": _cluster(algorithm, method)
        for algorithm in ("bubble", "bubble-fm")
        for method in ("hac", "clarans", "clara")
    },
    "map-first": _map_first,
    "authority": _authority,
    "sharded-fit": _sharded_fit,
    "index-queries": _index_queries,
}


def _on_ledger(ledger, run):
    with ledger:
        return run()


class TestEntryPointAttribution:
    """Without a tracer, a bare :class:`CallLedger` still books every call
    of every library entry point to a named site."""

    @pytest.mark.parametrize("name", list(_ENTRY_POINTS))
    def test_bare_ledger_books_no_unattributed_calls(self, name):
        ledger = CallLedger()
        metric = _on_ledger(ledger, _ENTRY_POINTS[name])
        assert UNATTRIBUTED_SITE not in ledger.by_site
        assert sum(ledger.by_site.values()) == ledger.total > 0
        if metric is not None:
            assert ledger.total == metric.n_calls

    @pytest.mark.parametrize("name", ["cluster-bubble-hac", "cluster-bubble-fm-clara"])
    def test_tracer_books_what_a_bare_ledger_books(self, name):
        ledger, tracer = CallLedger(), Tracer()
        _on_ledger(ledger, _ENTRY_POINTS[name])
        _on_ledger(tracer, _ENTRY_POINTS[name])
        assert tracer.by_site == ledger.by_site
        assert tracer.stack == ledger.stack == []
        # Every site is timed, routing sites included.
        spans = tracer.span_aggregates()
        assert spans.keys() >= ledger.by_site.keys()
        assert spans["leaf-d0"]["count"] > 0 and spans["leaf-d0"]["seconds"] > 0


# ----------------------------------------------------------------------
# Tracer / ledger mechanics
# ----------------------------------------------------------------------
class TestLedger:
    def test_site_is_a_noop_without_active_ledger(self):
        assert active_ledger() is None
        with site("anywhere"):
            assert active_ledger() is None
        assert active_ledger() is None

    def test_site_opened_without_ledger_pops_nothing(self):
        # Attribution was off at entry, so the exit must not pop a ledger
        # that was activated inside the block.
        ledger = CallLedger()
        ledger.stack.append("phase")
        with site("anywhere"):
            ledger.__enter__()
        try:
            assert ledger.stack == ["phase"]
        finally:
            ledger.__exit__(None, None, None)

    def test_ledger_switched_inside_a_site_leaves_both_stacks_clean(self):
        first, second = CallLedger(), CallLedger()
        second.stack.append("phase")  # a span open on the second ledger
        with first:
            with site("outer"):
                assert first.stack == ["outer"]
                second.__enter__()
            try:
                assert first.stack == []
                assert second.stack == ["phase"]
            finally:
                second.__exit__(None, None, None)

    def test_site_closes_when_its_block_raises(self):
        ledger = CallLedger()
        with ledger:
            with site("outer"):
                with pytest.raises(RuntimeError):
                    with site("inner"):
                        raise RuntimeError("fault inside the site")
                assert ledger.stack == ["outer"]
            assert ledger.stack == []

    def test_charge_books_to_innermost_site(self):
        ledger = CallLedger()
        ledger.charge(2)
        ledger.stack.append("outer")
        ledger.charge(3)
        ledger.stack.append("inner")
        ledger.charge(5)
        assert ledger.by_site == {"unattributed": 2, "outer": 3, "inner": 5}
        assert ledger.total == 10

    def test_activation_nests_and_restores_previous(self):
        first = CallLedger()
        second = CallLedger()
        with first:
            with second:
                assert active_ledger() is second
            assert active_ledger() is first
        assert active_ledger() is None

    def test_activation_is_reentrant(self):
        outer, ledger = CallLedger(), CallLedger()
        metric = EuclideanDistance()
        with outer:
            with ledger:
                with ledger:
                    assert active_ledger() is ledger
                # The inner exit was not the outermost: still active.
                assert active_ledger() is ledger
                metric.distance(np.zeros(2), np.ones(2))
            assert active_ledger() is outer
        assert active_ledger() is None
        assert ledger.total == 1 and outer.total == 0

    def test_over_deactivation_raises(self):
        ledger = CallLedger()
        with ledger:
            pass
        with pytest.raises(ParameterError):
            ledger.__exit__(None, None, None)
        assert active_ledger() is None


class TestSitesUnderFaults:
    """A fault raised inside a ledger site must close the site on its way
    out: afterwards the ledger stack holds only the sites still open, and
    the next counted call is charged to its own site."""

    @pytest.mark.parametrize("backend", [BruteForceIndex, VPTree])
    @pytest.mark.parametrize(
        "query, fault_site",
        [("nearest", QUERY_KNN_SITE), ("within", QUERY_RANGE_SITE)],
    )
    def test_budget_fault_inside_a_query(self, backend, query, fault_site):
        objs = _ds2_objects(n=200)
        build_calls = backend(EuclideanDistance()).build(objs).build_calls
        metric = GuardedMetric(EuclideanDistance(), max_calls=build_calls + 1)
        index = backend(metric).build(objs)
        probe = EuclideanDistance()
        tracer = Tracer()
        with tracer, site("serve"):
            with pytest.raises(MetricBudgetExceededError):
                if query == "nearest":
                    index.nearest(objs[0], k=5)
                else:
                    index.within(objs[0], radius=50.0)
            assert tracer.stack == ["serve"]
            charged = dict(tracer.by_site)
            probe.distance(objs[0], objs[1])
            with site("probe"):
                probe.distance(objs[0], objs[1])
        assert tracer.stack == []
        by_site = tracer.by_site
        assert by_site["serve"] == charged.get("serve", 0) + 1
        assert by_site["probe"] == 1
        assert by_site.get(fault_site, 0) == charged.get(fault_site, 0)

    @pytest.mark.parametrize("model_cls", [BUBBLE, BUBBLEFM])
    def test_flaky_fault_inside_a_quarantined_insert(self, model_cls):
        objs = _ds2_objects(n=800)
        # A poisoned object raises on its first routing call: at a root
        # leaf of 2 entries (the exhaustive leaf-d0 gather), at one of 10
        # (the pruned leaf walk), and at non-leaf routing once the tree
        # has grown.
        poisoned = (2, 10, 250, 600)
        for i in poisoned:
            objs[i] = np.array([1e6, 1e6])
        metric = FlakyMetric(
            EuclideanDistance(), failure_rate=0.0, poison=lambda o: o[0] > 1e5
        )
        stream = io.StringIO()
        tracer = Tracer(jsonl=stream)
        model = model_cls(metric, max_nodes=20, seed=0)
        with tracer:
            model.fit(objs, on_error="quarantine")
        assert [r.index for r in model.quarantine_] == list(poisoned)
        # A site leaked by a fault stays open in the event stream (every
        # later exit pairs with the tracer's innermost site) and on the
        # tracer's stack.
        events = _events(stream)
        assert events
        _check_event_stream(events)
        assert tracer.stack == []
        assert sum(tracer.by_site.values()) == metric.n_calls
        with tracer:
            charged = tracer.by_site.get("unattributed", 0)
            EuclideanDistance().distance(objs[0], objs[1])
        assert tracer.by_site["unattributed"] == charged + 1


class TestTracer:
    def test_span_aggregates_are_inclusive(self):
        tracer = Tracer()
        metric = EuclideanDistance()
        a, b = np.zeros(2), np.ones(2)
        with tracer:
            with site("outer"):
                metric.distance(a, b)
                with site("inner"):
                    metric.distance(a, b)
        spans = tracer.span_aggregates()
        assert spans["outer"]["ncd"] == 2  # includes the nested span's call
        assert spans["inner"]["ncd"] == 1
        assert tracer.by_site == {"outer": 1, "inner": 1}  # disjoint

    def test_close_is_idempotent_and_emits_summary(self):
        stream = io.StringIO()
        tracer = Tracer(jsonl=stream)
        with tracer, site("phase"):
            pass
        tracer.close()
        tracer.close()
        summaries = [e for e in _events(stream) if e["ev"] == "summary"]
        assert len(summaries) == 1
        assert summaries[0]["spans"]["phase"]["count"] == 1


class TestSinks:
    """Where a trace lands: the tracer's JSONL target and the summary table."""

    def test_jsonl_sink_round_trips_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(jsonl=str(path))
        metric = EuclideanDistance()
        with tracer, site("work"):
            metric.distance(np.zeros(2), np.ones(2))
        tracer.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        _check_event_stream(events)
        assert [e["ev"] for e in events] == ["enter", "exit", "summary"]
        assert list(events[0]) == ["ev", "span", "seq", "depth", "t", "ncd"]
        assert list(events[1]) == [
            "ev", "span", "seq", "depth", "t", "ncd", "dt", "dncd"
        ]
        assert list(events[2]) == [
            "ev", "elapsed_seconds", "ncd_total", "ncd_by_site", "spans"
        ]
        assert events[-1]["ncd_by_site"] == {"work": 1}

    def test_jsonl_sink_on_stream_does_not_close_it(self):
        stream = io.StringIO()
        tracer = Tracer(jsonl=stream)
        with tracer, site("x"):
            pass
        tracer.close()
        assert not stream.closed
        enter = json.loads(stream.getvalue().splitlines()[0])
        assert (enter["ev"], enter["span"]) == ("enter", "x")

    def test_summary_sink_prints_table(self):
        tracer = Tracer()
        metric = EuclideanDistance()
        with tracer, site("scan"):
            metric.distance(np.zeros(2), np.ones(2))
        text = format_summary(tracer.summary())
        assert "NCD by site" in text
        assert "scan" in text

    def test_format_summary_handles_empty_trace(self):
        assert "distance calls: 0" in format_summary({"ncd_total": 0})


class TestStatsSnapshot:
    def test_from_model_reports_tree_and_sites(self):
        tracer = Tracer()
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=20, seed=2)
        with tracer:
            model.fit(_ds2_objects(n=300, seed=23))
        snap = StatsSnapshot.from_model(model, ledger=tracer)
        assert snap.n_objects == 300
        assert snap.n_nodes == model.tree_.n_nodes
        assert snap.n_leaves >= 1
        assert snap.max_nodes == 20
        assert snap.m_pressure == pytest.approx(model.tree_.n_nodes / 20)
        assert snap.ncd_total == metric.n_calls
        assert sum(snap.ncd_by_site.values()) == metric.n_calls
        doc = snap.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        text = snap.format()
        assert "M-pressure" in text and "NCD by site" in text

    def test_cache_discovered_through_wrapper_chain(self):
        metric = CachedDistance(EuclideanDistance(), key=lambda v: v.tobytes())
        model = BUBBLE(metric, max_nodes=20, seed=2)
        model.fit(_ds2_objects(n=200, seed=29))
        snap = StatsSnapshot.from_model(model)
        assert snap.cache["misses"] == metric.n_calls
        assert snap.cache["hits"] == metric.n_hits

    def test_checkpoint_strips_live_tracer(self, tmp_path):
        # Trees and policies never hold a tracer, so a checkpoint of a
        # traced scan carries none.
        from repro.persistence import load_checkpoint, save_checkpoint

        tracer = Tracer(jsonl=str(tmp_path / "t.jsonl"))
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=15, seed=6)
        with tracer:
            model.partial_fit(_ds2_objects(n=150, seed=31))
        path = tmp_path / "scan.ckpt"
        save_checkpoint(path, model.tree_, cursor=150)
        tracer.close()
        ck = load_checkpoint(path, metric=EuclideanDistance())
        assert not hasattr(ck.tree, "tracer")
        assert not hasattr(ck.tree.policy, "tracer")

    def test_snapshot_reads_any_ledger(self):
        ledger = CallLedger()
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=20, seed=2)
        with ledger:
            model.fit(_ds2_objects(n=300, seed=23))
        snap = StatsSnapshot.from_model(model, ledger=ledger)
        assert snap.ncd_by_site == ledger.by_site
        assert snap.ncd_by_site["leaf-d0"] > 0
        assert sum(snap.ncd_by_site.values()) == metric.n_calls
        tree_snap = StatsSnapshot.from_tree(model.tree_, ledger=ledger)
        assert tree_snap.ncd_by_site == ledger.by_site
        # No ledger, no attribution.
        assert StatsSnapshot.from_model(model).ncd_by_site == {}

    def test_model_fitted_under_a_streaming_tracer_pickles(self, tmp_path):
        # The caller owns the tracer and its open trace file; the model
        # never holds either, so it pickles like an untraced one.
        import pickle

        tracer = Tracer(jsonl=str(tmp_path / "t.jsonl"))
        model = BUBBLE(EuclideanDistance(), max_nodes=15, seed=6)
        objs = _ds2_objects(n=150, seed=31)
        with tracer:
            model.fit(objs)
        clone = pickle.loads(pickle.dumps(model))
        tracer.close()
        assert (
            StatsSnapshot.from_model(clone).to_dict()
            == StatsSnapshot.from_model(model).to_dict()
        )
        assert list(clone.assign(objs[:20])) == list(model.assign(objs[:20]))

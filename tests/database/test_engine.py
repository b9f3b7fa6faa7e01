"""Tests for the database execution engine."""

from dataclasses import replace

import numpy as np
import pytest

from repro.database import engine as engine_module
from repro.database.engine import MIN_BATCH, DatabaseEngine
from repro.database.locks import HungTransaction
from repro.database.queries import rubis_query_templates


@pytest.fixture
def engine():
    return DatabaseEngine()


@pytest.fixture
def mix():
    return {
        "select_item_by_id": 300,
        "select_items_by_category": 40,
        "select_bids_by_item": 200,
        "insert_bid": 60,
        "select_user_by_id": 150,
        "update_item_price": 20,
    }


class TestTickProcessing:
    def test_baseline_is_fast_and_clean(self, engine, mix):
        result = engine.process_tick(mix, now=1)
        assert result.mean_service_ms < 2.0
        assert result.est_act_ratio_max == pytest.approx(1.0)
        assert result.deadlocks == 0
        assert result.timeouts == 0
        assert result.total_queries == sum(mix.values())

    def test_empty_mix(self, engine):
        result = engine.process_tick({}, now=1)
        assert result.total_queries == 0
        assert result.mean_service_ms == 0.0

    def test_unknown_queries_ignored(self, engine):
        result = engine.process_tick({"bogus_query": 50}, now=1)
        assert result.total_queries == 0

    def test_writes_grow_tables(self, engine, mix):
        rows_before = engine.tables["bids"].rows
        result = engine.process_tick(mix, now=1)
        assert engine.tables["bids"].rows == rows_before + 60
        assert result.rows_grown >= 60

    def test_phantom_skew_produces_divergence_and_regret(self, engine, mix):
        engine.statistics.statistics_for("bids").recorded_skew[
            "item_id"
        ] = 800.0
        result = engine.process_tick(mix, now=1)
        assert result.est_act_ratio_max > 100.0
        assert result.plan_regret_ms > 0.0
        assert result.full_scans >= 200  # bids queries flipped

    def test_update_statistics_restores_plans(self, engine, mix):
        engine.statistics.statistics_for("bids").recorded_skew[
            "item_id"
        ] = 800.0
        degraded = engine.process_tick(mix, now=1)
        engine.update_statistics(now=2)
        healed = engine.process_tick(mix, now=3)
        assert healed.mean_service_ms < degraded.mean_service_ms / 5
        assert healed.est_act_ratio_max == pytest.approx(1.0)

    def test_hung_transaction_times_out_statements(self, engine, mix):
        engine.locks.register_hung_transaction(
            HungTransaction("T1", "items", started_at=0)
        )
        result = engine.process_tick(mix, now=1)
        assert result.timeouts > 0
        assert result.lock_wait_ms > 500.0
        engine.kill_hung_query()
        clean = engine.process_tick(mix, now=2)
        assert clean.timeouts == 0


class TestFixEntryPoints:
    def test_repartition_table_multiplies_partitions(self, engine):
        assert engine.repartition_table("items", factor=4) == 4
        assert engine.tables["items"].partitions == 4
        with pytest.raises(ValueError):
            engine.repartition_table("items", factor=1)

    def test_most_contended_table_uses_traffic(self, engine, mix):
        engine.tables["items"].hot_fraction = 0.0005
        engine.process_tick(mix, now=1)
        assert engine.most_contended_table() == "items"

    def test_most_contended_without_traffic_falls_back(self, engine):
        name = engine.most_contended_table()
        assert name in engine.tables

    def test_repartition_memory_rebalances(self, engine):
        engine.buffers.set_shares({"data": 0.05, "index": 0.05, "log": 0.90})
        heavy = {"select_bids_by_item": 400, "select_item_by_id": 300}
        for now in range(6):
            engine.process_tick(heavy, now=now)
        shares = engine.repartition_memory()
        assert shares["data"] > 0.5

    def test_restart_clears_locks_and_degradation(self, engine):
        engine.locks.register_hung_transaction(
            HungTransaction("T1", "items", started_at=0)
        )
        engine.service_time_multiplier = 9.0
        engine.restart(now=1)
        assert engine.locks.hung_transactions == []
        assert engine.service_time_multiplier == 1.0
        assert engine.restart_count == 1

    def test_kill_hung_query_with_nothing_hung(self, engine):
        assert engine.kill_hung_query() is None


# ----------------------------------------------------------------------
# Width dispatch: the vector kernel against the scalar reference loop.
# ----------------------------------------------------------------------


def _twin_engines(width: int = 13):
    """Two identical engines with ``width`` query classes.

    Widths beyond the stock 13-class RUBiS mix replicate templates
    under fresh names, as the perf harness's width sweep does.
    """
    base = list(rubis_query_templates().values())
    templates = {}
    i = 0
    while len(templates) < width:
        template = base[i % len(base)]
        name = template.name if i < len(base) else f"c{i}_{template.name}"
        templates[name] = replace(template, name=name)
        i += 1
    return (
        DatabaseEngine(templates=dict(templates)),
        DatabaseEngine(templates=dict(templates)),
        list(templates),
    )


def _state_signature(engine: DatabaseEngine) -> tuple:
    """Every piece of engine state the tick loop reads or writes."""
    return (
        tuple(
            (name, table.rows, table.partitions, dict(table.skew))
            for name, table in sorted(engine.tables.items())
        ),
        tuple(
            (
                name,
                stats.recorded_rows,
                stats.analyzed_at,
                dict(stats.recorded_skew),
            )
            for name, stats in sorted(
                (n, engine.statistics.statistics_for(n))
                for n in engine.tables
            )
        ),
        engine._last_traffic,
        engine.statistics.analyze_count,
    )


def _random_counts(rng, names, p_unknown=0.1):
    counts = {
        name: int(count)
        for name, count in zip(
            names, rng.integers(0, 40, size=len(names))
        )
    }
    if rng.random() < p_unknown:
        counts["no_such_query_class"] = int(rng.integers(1, 5))
    return counts


def _count_scalar_ticks(engine: DatabaseEngine) -> list:
    """Record the ``now`` of every tick the scalar loop prices."""
    calls = []
    scalar = engine._process_tick_scalar

    def counting(counts, now):
        calls.append(now)
        return scalar(counts, now)

    engine._process_tick_scalar = counting
    return calls


@pytest.fixture
def every_tick_wide(monkeypatch):
    """Send every regular tick down the vector path, even at width 13."""
    monkeypatch.setattr(engine_module, "MIN_BATCH", 1)


class TestVectorKernel:
    @pytest.mark.parametrize("width", [13, 64])
    def test_healthy_ticks_bit_exact(self, width, every_tick_wide):
        vector, reference, names = _twin_engines(width)
        rng = np.random.default_rng(width)
        for tick in range(300):
            counts = _random_counts(rng, names)
            assert vector.process_tick(
                dict(counts), tick
            ) == reference._process_tick_scalar(dict(counts), tick), (
                f"tick {tick} diverged at width {width}"
            )
            assert _state_signature(vector) == _state_signature(
                reference
            ), f"state diverged after tick {tick}"

    def test_vector_path_actually_runs(self):
        # Guard against the differential silently comparing the scalar
        # loop with itself: wide regular ticks must never reach it.
        vector, reference, names = _twin_engines(max(64, MIN_BATCH + 8))
        scalar_ticks = _count_scalar_ticks(vector)
        rng = np.random.default_rng(3)
        for tick in range(50):
            counts = {
                name: int(count)
                for name, count in zip(
                    names, rng.integers(1, 30, size=len(names))
                )
            }
            assert vector.process_tick(
                dict(counts), tick
            ) == reference._process_tick_scalar(dict(counts), tick)
        assert scalar_ticks == [], "wide regular ticks must not delegate"

    def test_narrow_mix_delegates(self):
        engine, _, names = _twin_engines(13)
        scalar_ticks = _count_scalar_ticks(engine)
        engine.process_tick({name: 5 for name in names}, 0)
        assert scalar_ticks == [0], "13-class mixes sit below the crossover"
        assert engine._kernel is None

    def test_faulted_ticks_interleave_bit_exact(self, every_tick_wide):
        # Random walks through the irregular-state space: skew faults,
        # hung transactions, and the fix entry points that clear them.
        # Every tick must match, whichever path the dispatch picks,
        # and state must stay converged across path switches.
        vector, reference, names = _twin_engines(13)
        rng = np.random.default_rng(99)
        hung = 0
        for tick in range(400):
            roll = rng.random()
            if roll < 0.05:
                table = ["items", "bids", "users"][int(rng.integers(3))]
                for engine in (vector, reference):
                    engine.tables[table].skew["hot_key"] = 25.0
            elif roll < 0.10:
                for engine in (vector, reference):
                    for table in engine.tables.values():
                        table.skew.clear()
                    engine.update_statistics(tick)
            elif roll < 0.13:
                hung += 1
                for engine in (vector, reference):
                    engine.locks.register_hung_transaction(
                        HungTransaction(f"t{hung}", "items", tick)
                    )
            elif roll < 0.16:
                for engine in (vector, reference):
                    engine.kill_hung_query()
            elif roll < 0.18:
                for engine in (vector, reference):
                    engine.repartition_table("bids")
            counts = _random_counts(rng, names)
            assert vector.process_tick(
                dict(counts), tick
            ) == reference._process_tick_scalar(dict(counts), tick), (
                f"tick {tick} diverged"
            )
            assert _state_signature(vector) == _state_signature(
                reference
            ), f"state diverged after tick {tick}"

    def test_empty_and_zero_count_ticks(self, every_tick_wide):
        vector, reference, names = _twin_engines(13)
        zero = {name: 0 for name in names}
        for tick, counts in enumerate(({}, zero, {"unknown": 3})):
            assert vector.process_tick(
                dict(counts), tick
            ) == reference._process_tick_scalar(dict(counts), tick)

"""Per-tick database execution engine.

The engine receives a query mix (executions per query class this tick)
from the application tier and returns the database-side metrics the
monitoring layer records: per-class service times, buffer hit ratios,
lock waits, deadlocks, plan-quality signals (``Xest``/``Xact``
divergence, regret versus the hindsight-optimal plan), and timeout
errors caused by hung transactions.  All Table 1 database fixes are
exposed as methods so fix objects stay thin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.database.bufferpool import BufferManager
from repro.database.locks import LockManager
from repro.database.optimizer import Optimizer
from repro.database.queries import QueryTemplate, rubis_query_templates
from repro.database.schema import Table, rubis_schema
from repro.database.statistics import StatisticsCatalog

__all__ = ["MIN_BATCH", "DatabaseEngine", "DatabaseTickResult"]

# Bytes per index entry, for index working-set estimates.
_INDEX_ENTRY_BYTES = 20
# Log pages written per write statement.
_LOG_PAGES_PER_WRITE = 0.25
# Query classes a tick's mix must name before the vectorized kernel
# prices it: below this, NumPy's fixed per-call overhead loses to the
# scalar loop.  The crossover is measured by the perf harness's kernel
# width sweep (``python -m benchmarks.perf``); stock RUBiS (13 classes)
# sits below it, the ``wide_mix`` scenario far above it.
MIN_BATCH = 48


@dataclass(frozen=True, slots=True)
class _TemplateInfo:
    """Per-template invariants hoisted out of the per-tick loop.

    Everything here is fixed at engine construction (``row_bytes`` and
    the template fields never change at runtime); only ``table.rows``,
    skew, and statistics evolve, and those are read live each tick.
    """

    template: QueryTemplate
    table: Table
    table_name: str
    rows_per_page: int
    entries_per_page: int
    is_write: bool
    rows_inserted: int
    indexed: bool
    column: str | None
    selectivity: float
    cpu_ms_per_row: float
    # The live TableStatistics object: the catalog mutates these in
    # place (ANALYZE rewrites fields, never the object), so a direct
    # reference stays valid for the engine's lifetime.
    stats: object = None


@dataclass(slots=True)
class DatabaseTickResult:
    """Database metrics for one simulation tick."""

    per_class_ms: dict[str, float] = field(default_factory=dict)
    mean_service_ms: float = 0.0
    total_queries: int = 0
    buffer_hit: dict[str, float] = field(default_factory=dict)
    lock_wait_ms: float = 0.0
    deadlocks: int = 0
    timeouts: int = 0
    est_act_ratio_max: float = 1.0
    plan_regret_ms: float = 0.0
    full_scans: int = 0
    index_scans: int = 0
    rows_grown: int = 0
    max_staleness: float = 1.0
    connections_in_use: int = 0


class DatabaseEngine:
    """A MySQL-shaped database tier driven by analytical models.

    Args:
        tables: schema; defaults to the RUBiS schema.
        templates: query classes; defaults to the RUBiS templates.
        buffer_pages: total buffer memory in pages.
        max_connections: connection-pool ceiling; offered concurrency
            beyond it queues and inflates service time.
    """

    def __init__(
        self,
        tables: dict[str, Table] | None = None,
        templates: dict[str, QueryTemplate] | None = None,
        buffer_pages: int = 64_000,
        max_connections: int = 150,
    ) -> None:
        self.tables = tables if tables is not None else rubis_schema()
        self.templates = (
            templates if templates is not None else rubis_query_templates()
        )
        self.statistics = StatisticsCatalog(self.tables)
        self.optimizer = Optimizer(self.statistics)
        self.buffers = BufferManager(buffer_pages)
        self.locks = LockManager(self.tables)
        self.max_connections = max_connections
        # Multiplier applied to all service times; restart clears it.
        # Faults may raise it to model degradation not tied to one
        # component (e.g. a bad configuration push).
        self.service_time_multiplier = 1.0
        self.restart_count = 0
        # Most recent (reads, writes) per table, for contention-aware
        # fix targeting.
        self._last_traffic: tuple[dict[str, float], dict[str, float]] = (
            {},
            {},
        )
        # Per-template invariants for the hot tick loop (only for
        # templates whose table exists in the schema; others keep the
        # original lazy KeyError behaviour).
        self._tmpl_info: dict[str, _TemplateInfo] = {}
        for name, template in self.templates.items():
            table = self.tables.get(template.table)
            if table is None:
                continue
            self._tmpl_info[name] = _TemplateInfo(
                template=template,
                table=table,
                table_name=template.table,
                rows_per_page=max(1, table.PAGE_BYTES // table.row_bytes),
                entries_per_page=table.PAGE_BYTES // _INDEX_ENTRY_BYTES,
                is_write=template.is_write,
                rows_inserted=template.rows_inserted,
                indexed=template.indexed,
                column=template.column,
                selectivity=template.selectivity,
                cpu_ms_per_row=template.cpu_ms_per_row,
                stats=self.statistics.statistics_for(template.table),
            )
        # Vector-kernel arrays, built on the first wide tick.
        self._kernel: _VectorKernel | None = None

    # ------------------------------------------------------------------
    # Tick execution.
    # ------------------------------------------------------------------

    def process_tick(
        self, query_counts: dict[str, int], now: int
    ) -> DatabaseTickResult:
        """Execute one tick's query mix and report database metrics.

        A regular tick (no hung transactions, no skew) whose mix names
        at least :data:`MIN_BATCH` query classes is priced by the
        vectorized kernel; every other tick runs the scalar loop, which
        is the reference.  The two paths are bit-identical and mutate
        the same engine state, so they interleave freely tick by tick.
        """
        if len(query_counts) >= MIN_BATCH:
            kernel = self._kernel
            if kernel is None:
                kernel = self._kernel = _VectorKernel(self)
            if kernel.regular_tick():
                gathered = kernel.gather(query_counts)
                if gathered is not None:
                    return kernel.price(gathered, now)
        return self._process_tick_scalar(query_counts, now)

    def _process_tick_scalar(
        self, query_counts: dict[str, int], now: int
    ) -> DatabaseTickResult:
        """The reference per-class loop behind :meth:`process_tick`."""
        result = DatabaseTickResult()
        active = {
            name: count
            for name, count in query_counts.items()
            if count > 0 and name in self.templates
        }
        result.total_queries = sum(active.values())
        if result.total_queries == 0:
            result.buffer_hit = self.buffers.hit_ratios({})
            result.max_staleness = self.statistics.max_staleness()
            return result

        act_sel: dict[str, float] = {}
        reads_by_table: dict[str, float] = {}
        writes_by_table: dict[str, float] = {}
        demands = self._working_set_demand(
            active, act_sel, reads_by_table, writes_by_table
        )
        hit_ratios = self.buffers.hit_ratios(demands)
        result.buffer_hit = hit_ratios
        data_miss = 1.0 - hit_ratios.get("data", 0.0)
        index_miss = 1.0 - hit_ratios.get("index", 0.0)

        self._last_traffic = (reads_by_table, writes_by_table)
        locks = self.locks
        if locks.any_hung:
            hung_wait_ms = locks.block_waiters(now)
            hung_tables: set[str] | tuple = locks.hung_tables()
            result.deadlocks = len(locks.detect_deadlocks())
        else:
            # No hung transactions: nothing to block on, no possible
            # wait-for cycles (identical to the three calls above).
            hung_wait_ms = 0.0
            hung_tables = ()

        # Contention is a pure function of one table's tick traffic, so
        # each table is priced once and every query class on it reuses
        # the figure (the old loop recomputed it twice per class).
        # Plan costing is inlined from Optimizer.plan_numbers — the
        # per-class loop is the hottest scalar code in the simulator,
        # and the method-call + attribute-load overhead was measurable.
        # The golden-stats tests pin this block to plan_numbers: any
        # change to one must be mirrored in the other.
        info_map = self._tmpl_info
        opt = self.optimizer
        seq_page_ms = opt.seq_page_ms
        # Shared cost terms: descent and the random-I/O price do not
        # depend on the query class's cardinality.
        descent = opt.index_lookup_ms * (0.2 + 0.8 * index_miss)
        rand_miss_ms = opt.rand_page_ms * data_miss
        contention: dict[str, float] = {}
        # Cached per table for the tick: hindsight page term of the
        # full scan (invalidated with contention when a write grows the
        # table) and the estimated page term (statistics cannot change
        # mid-loop — auto-ANALYZE runs after it).
        act_page_ms: dict[str, float] = {}
        est_page_ms: dict[str, float] = {}
        queries_on: dict[str, int] = {}
        mult = self.service_time_multiplier
        total_time = 0.0
        per_class_ms = result.per_class_ms
        timeouts = 0
        plan_regret_ms = 0.0
        est_act_ratio_max = result.est_act_ratio_max
        index_scans = 0
        full_scans = 0
        lock_wait_ms = 0.0
        rows_grown = 0
        for name, count in active.items():
            info = info_map[name]
            table = info.table
            table_name = info.table_name
            stats = info.stats
            est_table_rows = stats.recorded_rows
            column = info.column
            est_skew = (
                1.0
                if column is None
                else stats.recorded_skew.get(column, 1.0)
            )
            est_selectivity = min(1.0, info.selectivity * est_skew)
            est_rows = max(est_table_rows * est_selectivity, 0.0)
            rows = table.rows
            act_rows = max(rows * act_sel[name], 0.0)
            cpu_ms = info.cpu_ms_per_row
            per_row = rand_miss_ms + cpu_ms + 0.0001
            est_index = descent + est_rows * per_row
            act_index = descent + act_rows * per_row
            est_pages = est_page_ms.get(table_name)
            if est_pages is None:
                est_pages = (
                    max(1.0, est_table_rows / info.rows_per_page)
                    * seq_page_ms
                    * data_miss
                )
                est_page_ms[table_name] = est_pages
            act_pages = act_page_ms.get(table_name)
            if act_pages is None:
                act_pages = (
                    max(1.0, rows / info.rows_per_page)
                    * seq_page_ms
                    * data_miss
                )
                act_page_ms[table_name] = act_pages
            est_full = est_pages + est_table_rows * cpu_ms
            act_full = act_pages + rows * cpu_ms
            if info.indexed and est_index <= est_full:
                is_index = True
                act_cost = act_index
            else:
                is_index = False
                act_cost = act_full
            optimal = min(act_full, act_index) if info.indexed else act_full
            wait_ms = contention.get(table_name)
            if wait_ms is None:
                wait_ms = self.locks.contention_wait_ms(
                    table_name,
                    reads_by_table.get(table_name, 0.0),
                    writes_by_table.get(table_name, 0.0),
                )
                contention[table_name] = wait_ms
            per_exec = act_cost * mult
            per_exec += wait_ms
            if table_name in hung_tables:
                queries_on_table = queries_on.get(table_name)
                if queries_on_table is None:
                    queries_on_table = sum(
                        c
                        for n, c in active.items()
                        if info_map[n].table_name == table_name
                    )
                    queries_on[table_name] = queries_on_table
                per_exec += hung_wait_ms / max(1, queries_on_table)
                timeouts += max(
                    1, count // 4
                )  # blocked statements hit the client timeout

            per_class_ms[name] = per_exec
            total_time += per_exec * count
            plan_regret_ms += max(0.0, act_cost - optimal) * count
            # Symmetric divergence: both over- and under-estimation of
            # cardinalities (Example 5's Xest vs Xact) should register.
            if est_rows <= 0:
                ratio = float("inf") if act_rows > 0 else 1.0
            else:
                ratio = act_rows / est_rows
            divergence = max(ratio, 1.0 / ratio) if ratio > 0 else 1e6
            if divergence > est_act_ratio_max:
                est_act_ratio_max = min(divergence, 1e6)
            if is_index:
                index_scans += count
            else:
                full_scans += count
            lock_wait_ms += wait_ms * count
            if info.is_write:
                grown = info.rows_inserted * count
                table.grow(grown)
                rows_grown += grown
                if grown:
                    # Growth changes the table's page count, which
                    # feeds the collision model and the hindsight scan
                    # cost — later query classes on this table must
                    # re-price both.
                    contention.pop(table_name, None)
                    act_page_ms.pop(table_name, None)

        result.timeouts = timeouts
        result.plan_regret_ms = plan_regret_ms
        result.est_act_ratio_max = est_act_ratio_max
        result.index_scans = index_scans
        result.full_scans = full_scans
        result.rows_grown = rows_grown
        result.lock_wait_ms = lock_wait_ms + hung_wait_ms
        result.mean_service_ms = total_time / result.total_queries
        result.connections_in_use = self._connections(result)
        if result.connections_in_use >= self.max_connections:
            # Saturated pool: waiting for a connection dominates.
            result.mean_service_ms *= 1.0 + (
                result.connections_in_use / self.max_connections
            )
        result.max_staleness = (
            self.statistics.auto_analyze_and_max_staleness(now)
        )
        return result

    def _working_set_demand(
        self,
        active: dict[str, int],
        act_sel: dict[str, float],
        reads_by_table: dict[str, float] | None = None,
        writes_by_table: dict[str, float] | None = None,
    ) -> dict[str, float]:
        """Pages each buffer pool must hold to absorb this tick's mix.

        One pass fills three per-tick side products the costing loop
        needs anyway: ``act_sel`` (each class's actual selectivity —
        pure skew, fixed within a tick), and the read/write traffic
        dicts formerly built by a separate ``_table_traffic`` pass.
        """
        data_pages = 0.0
        index_pages = 0.0
        log_pages = 0.0
        info_map = self._tmpl_info
        for name, count in active.items():
            info = info_map[name]
            table = info.table
            # Inlined Table.actual_selectivity (hot path).
            column = info.column
            if column is None:
                selectivity = info.selectivity
            else:
                selectivity = min(
                    1.0, info.selectivity * table.skew.get(column, 1.0)
                )
            act_sel[name] = selectivity
            act_rows = table.rows * selectivity
            rows = table.rows
            if info.indexed:
                # Random row fetches touch roughly one distinct page
                # per row until the whole table is hot.
                pages = max(1, -(-rows // info.rows_per_page))
                data_pages += min(act_rows * count, float(pages))
                index_pages += max(1.0, rows / info.entries_per_page) * 0.05
            else:
                data_pages += max(1, -(-rows // info.rows_per_page))
            if info.is_write:
                log_pages += _LOG_PAGES_PER_WRITE * count
                if writes_by_table is not None:
                    table_name = info.table_name
                    writes_by_table[table_name] = (
                        writes_by_table.get(table_name, 0.0) + count
                    )
            elif reads_by_table is not None:
                table_name = info.table_name
                reads_by_table[table_name] = (
                    reads_by_table.get(table_name, 0.0) + count
                )
        return {"data": data_pages, "index": index_pages, "log": log_pages}

    def _connections(self, result: DatabaseTickResult) -> int:
        """Little's-law estimate of concurrently open connections."""
        offered = result.total_queries * result.mean_service_ms / 1000.0
        return int(min(self.max_connections * 2, max(1.0, offered * 1.2)))

    # ------------------------------------------------------------------
    # Fix entry points (Table 1, database rows).
    # ------------------------------------------------------------------

    def update_statistics(self, now: int) -> None:
        """ANALYZE every table — fixes suboptimal plans from staleness."""
        self.statistics.analyze_all(now)

    def repartition_table(self, table_name: str, factor: int = 4) -> int:
        """Multiply a table's partitions — fixes block contention.

        Returns the new partition count.
        """
        if factor < 2:
            raise ValueError(f"factor must be >= 2, got {factor}")
        table = self.tables[table_name]
        table.partitions *= factor
        return table.partitions

    def most_contended_table(self) -> str:
        """Table with the highest observed contention pressure.

        Pressure follows the lock manager's collision model — write
        volume times concurrency over independent hot blocks — using
        the most recent tick's traffic, so the repartitioning fix
        lands on the table that is actually hurting.
        """
        reads, writes = self._last_traffic

        def pressure(table: Table) -> float:
            w = writes.get(table.name, 0.0)
            if w <= 0:
                return 0.0
            concurrency = w + reads.get(table.name, 0.0)
            hot_blocks = max(
                1.0, table.pages * table.hot_fraction * table.partitions
            )
            return w * concurrency / hot_blocks

        best = max(self.tables.values(), key=pressure)
        if pressure(best) <= 0.0:
            # No write traffic observed yet: fall back to the most
            # concentrated table.
            best = min(
                self.tables.values(),
                key=lambda t: t.pages * t.hot_fraction * t.partitions,
            )
        return best.name

    def repartition_memory(self) -> dict[str, float]:
        """Rebalance buffer pools by demand — fixes buffer contention."""
        return self.buffers.repartition_by_demand()

    def kill_hung_query(self) -> str | None:
        """Abort the oldest hung transaction, if any."""
        return self.locks.kill_longest_running()

    def restart(self, now: int) -> None:
        """Full database restart: locks released, degradation cleared.

        Statistics survive a restart (they are persistent catalog
        state), as do table partitions and buffer-pool shares.
        """
        self.locks.clear()
        self.service_time_multiplier = 1.0
        self.restart_count += 1


class _VectorKernel:
    """Bit-exact vectorized pricing of one engine's regular ticks.

    On a regular tick the scalar loop body is a pure expression tree
    over per-template constants and table cardinalities, so each cost
    term becomes one NumPy expression over the active-class axis.  The
    scalar loop's per-table memos (page and contention prices,
    invalidated when a write grows the table) are pure functions of
    the table's current row count, so the vector form needs no cache:
    each class sees its table's rows plus an exclusive prefix sum of
    the growth earlier write classes applied.  Sums reduce with
    Python's left-to-right ``sum`` over ``tolist()`` values — the
    scalar loop's accumulation order, hence the same bits.
    """

    def __init__(self, engine: DatabaseEngine) -> None:
        self._engine = engine
        info_map = engine._tmpl_info
        self._idx = {name: j for j, name in enumerate(info_map)}
        tables: list[Table] = []
        table_pos: dict[str, int] = {}
        tbl = []
        for info in info_map.values():
            pos = table_pos.get(info.table_name)
            if pos is None:
                pos = len(tables)
                table_pos[info.table_name] = pos
                tables.append(info.table)
            tbl.append(pos)
        self._tables = tables
        self._tnames = list(table_pos)
        self._table_pos = table_pos
        self._stats = [
            engine.statistics.statistics_for(name) for name in self._tnames
        ]
        infos = list(info_map.values())
        self._tbl = np.asarray(tbl, dtype=np.int64)
        self._tbl_list = tbl
        isw = np.asarray([i.is_write for i in infos], dtype=bool)
        self._isw_f = isw.astype(np.float64)
        self._isw_list = [bool(i.is_write) for i in infos]
        sel = np.asarray([i.selectivity for i in infos], np.float64)
        # Without skew, selectivities are template constants: the
        # estimated side clamps unconditionally, the actual side only
        # when a column is involved — exactly the scalar branches.
        est_sel = np.minimum(1.0, sel)
        act_sel = np.where(
            np.asarray([i.column is not None for i in infos], dtype=bool),
            est_sel,
            sel,
        )
        cpu = np.asarray([i.cpu_ms_per_row for i in infos], np.float64)
        # Packed per-template constants: one row gather per tick.
        self._const_f = np.column_stack((act_sel, est_sel, cpu, self._isw_f))
        self._const_i = np.column_stack(
            (
                np.asarray([i.rows_per_page for i in infos], np.int64),
                np.asarray([i.entries_per_page for i in infos], np.int64),
                np.asarray([i.rows_inserted for i in infos], np.int64),
            )
        )
        self._const_b = np.column_stack(
            (np.asarray([i.indexed for i in infos], dtype=bool), isw)
        )
        # Per-table scratch refreshed every tick: float columns
        # hot_fraction/partitions/writes/reads, int columns
        # rows/recorded_rows.
        self._tstate_f = np.zeros((len(tables), 4))
        self._tstate_i = np.zeros((len(tables), 2), dtype=np.int64)
        # Gather layout cached for the steady-state mix (the same key
        # tuple, every class active); built by the slow gather.
        self._fast: tuple | None = None

    def regular_tick(self) -> bool:
        """True when the vector form covers this tick exactly."""
        if self._engine.locks.any_hung:
            return False
        for table in self._tables:
            if table.skew:
                return False
        for stats in self._stats:
            if stats.recorded_skew:
                return False
        return True

    def _snapshot_tables(self) -> None:
        tstate_f = self._tstate_f
        tstate_i = self._tstate_i
        for t, table in enumerate(self._tables):
            tstate_f[t, 0] = table.hot_fraction
            tstate_f[t, 1] = table.partitions
            tstate_i[t, 0] = table.rows
        for t, stats in enumerate(self._stats):
            tstate_i[t, 1] = stats.recorded_rows

    def gather(self, query_counts: dict[str, int]) -> _GatheredTick | None:
        """Collect the tick's active-class state for :meth:`price`.

        Returns ``None`` when the mix names a template whose table is
        missing from the schema: the scalar loop's lazy KeyError, so
        the caller must delegate.
        """
        fast = self._fast
        if fast is not None and fast[0] == tuple(query_counts):
            counts = list(query_counts.values())
            if min(counts) > 0:
                return self._gather_fast(fast, counts)
        idx_of = self._idx
        templates = self._engine.templates
        tbl_list = self._tbl_list
        tnames = self._tnames
        isw_list = self._isw_list
        names: list[str] = []
        idx: list[int] = []
        counts: list[int] = []
        reads_by_table: dict[str, float] = {}
        writes_by_table: dict[str, float] = {}
        for name, count in query_counts.items():
            if count > 0:
                j = idx_of.get(name)
                if j is None:
                    # A template without a table delegates; a name the
                    # engine does not know is skipped, as in the loop.
                    if name in templates:
                        return None
                    continue
                names.append(name)
                idx.append(j)
                counts.append(count)
                table_name = tnames[tbl_list[j]]
                traffic = writes_by_table if isw_list[j] else reads_by_table
                traffic[table_name] = traffic.get(table_name, 0.0) + count
        gathered = _GatheredTick()
        gathered.names = names
        gathered.total_queries = sum(counts)
        if gathered.total_queries == 0:
            return gathered
        ia = np.asarray(idx, dtype=np.int64)
        gathered.ia = ia
        gathered.cnt = np.asarray(counts, dtype=np.int64)
        self._snapshot_tables()
        tstate_f = self._tstate_f
        tstate_f[:, 2] = 0.0
        tstate_f[:, 3] = 0.0
        table_pos = self._table_pos
        for table_name, total in writes_by_table.items():
            tstate_f[table_pos[table_name], 2] = total
        for table_name, total in reads_by_table.items():
            tstate_f[table_pos[table_name], 3] = total
        ta = self._tbl[ia]
        gathered.tbl_active = ta
        gathered.fdat = tstate_f[ta]
        gathered.idat = self._tstate_i[ta]
        gathered.reads_by_table = reads_by_table
        gathered.writes_by_table = writes_by_table
        if len(names) == len(query_counts):
            # Every key was an active known template: the layout is a
            # pure function of the key tuple, so cache it.
            wf = self._isw_f[ia]
            self._fast = (
                tuple(query_counts),
                names,
                ia,
                ta,
                [(tn, table_pos[tn]) for tn in writes_by_table],
                [(tn, table_pos[tn]) for tn in reads_by_table],
                wf,
                1.0 - wf,
            )
        return gathered

    def _gather_fast(self, fast: tuple, counts: list) -> _GatheredTick:
        """Gather under the cached layout (same keys, all positive).

        Counts are integers, so per-table traffic totals are exact in
        any summation order and the dict accumulation collapses to two
        bincounts; the cached first-appearance lists reproduce the
        scalar loop's dict insertion order.
        """
        _, names, ia, ta, w_order, r_order, wf, rf = fast
        gathered = _GatheredTick()
        gathered.names = names
        gathered.total_queries = sum(counts)
        cnt = np.asarray(counts, dtype=np.int64)
        gathered.ia = ia
        gathered.cnt = cnt
        cntf = cnt.astype(np.float64)
        n_tables = len(self._tables)
        w_t = np.bincount(ta, weights=cntf * wf, minlength=n_tables)
        r_t = np.bincount(ta, weights=cntf * rf, minlength=n_tables)
        self._snapshot_tables()
        tstate_f = self._tstate_f
        tstate_f[:, 2] = w_t
        tstate_f[:, 3] = r_t
        gathered.tbl_active = ta
        gathered.fdat = tstate_f[ta]
        gathered.idat = self._tstate_i[ta]
        gathered.writes_by_table = {tn: float(w_t[t]) for tn, t in w_order}
        gathered.reads_by_table = {tn: float(r_t[t]) for tn, t in r_order}
        return gathered

    def price(self, gathered: _GatheredTick, now: int) -> DatabaseTickResult:
        """Price one gathered regular tick and apply its state writes."""
        engine = self._engine
        result = DatabaseTickResult()
        result.total_queries = gathered.total_queries
        if gathered.total_queries == 0:
            result.buffer_hit = engine.buffers.hit_ratios({})
            result.max_staleness = engine.statistics.max_staleness()
            return result

        cnt = gathered.cnt
        cntf = cnt.astype(np.float64)
        fdat = gathered.fdat
        hot = fdat[:, 0]
        part = fdat[:, 1]
        w = fdat[:, 2]
        r = fdat[:, 3]
        rows0 = gathered.idat[:, 0]
        est_table_rows = gathered.idat[:, 1]
        ia = gathered.ia
        const_f = self._const_f[ia]
        act_sel = const_f[:, 0]
        est_sel = const_f[:, 1]
        cpu = const_f[:, 2]
        isw_f = const_f[:, 3]
        const_i = self._const_i[ia]
        rpp = const_i[:, 0]
        epp = const_i[:, 1]
        ri = const_i[:, 2]
        const_b = self._const_b[ia]
        ind = const_b[:, 0]
        isw = const_b[:, 1]

        # ---- working-set demand (pre-growth rows) ----
        pages0 = np.maximum(1, -(-rows0 // rpp))
        pages0f = pages0.astype(np.float64)
        data_contrib = np.where(
            ind, np.minimum(rows0 * act_sel * cntf, pages0f), pages0f
        )
        index_contrib = np.where(
            ind, np.maximum(1.0, rows0 / epp) * 0.05, 0.0
        )
        log_contrib = _LOG_PAGES_PER_WRITE * cntf * isw_f
        hit_ratios = engine.buffers.hit_ratios(
            {
                "data": float(sum(data_contrib.tolist())),
                "index": float(sum(index_contrib.tolist())),
                "log": float(sum(log_contrib.tolist())),
            }
        )
        result.buffer_hit = hit_ratios
        data_miss = 1.0 - hit_ratios.get("data", 0.0)
        index_miss = 1.0 - hit_ratios.get("index", 0.0)
        engine._last_traffic = (
            gathered.reads_by_table,
            gathered.writes_by_table,
        )

        # ---- plan costing ----
        opt = engine.optimizer
        seq_page_ms = opt.seq_page_ms
        descent = opt.index_lookup_ms * (0.2 + 0.8 * index_miss)
        growth = np.where(isw, ri * cnt, 0)
        growth_list = growth.tolist()
        tbl_active = gathered.tbl_active.tolist()
        rows = rows0
        if any(growth_list):
            # Exclusive per-table prefix of the growth: class k sees
            # the rows grown by earlier write classes on its table.
            prior = np.zeros(len(growth_list), dtype=np.int64)
            seen: dict[int, int] = {}
            for pos, t in enumerate(tbl_active):
                prior[pos] = seen.get(t, 0)
                g = growth_list[pos]
                if g:
                    seen[t] = seen.get(t, 0) + g
            rows = rows0 + prior
        est_rows = np.maximum(est_table_rows * est_sel, 0.0)
        act_rows = np.maximum(rows * act_sel, 0.0)
        per_row = opt.rand_page_ms * data_miss + cpu + 0.0001
        est_index = descent + est_rows * per_row
        act_index = descent + act_rows * per_row
        est_pages = (
            np.maximum(1.0, est_table_rows / rpp) * seq_page_ms * data_miss
        )
        act_pages = np.maximum(1.0, rows / rpp) * seq_page_ms * data_miss
        est_full = est_pages + est_table_rows * cpu
        act_full = act_pages + rows * cpu
        is_index = ind & (est_index <= est_full)
        act_cost = np.where(is_index, act_index, act_full)
        optimal = np.where(ind, np.minimum(act_full, act_index), act_full)

        # Contention: LockManager.contention_wait_ms elementwise, each
        # class priced at its position's current row count.
        pages_now = np.maximum(1, -(-rows // rpp))
        hot_blocks = np.maximum(1.0, pages_now * hot * part)
        collision = np.minimum(1.0, w * (r + w) / (hot_blocks * 3200.0))
        wait = np.where(w > 0, collision * engine.locks.HOLD_MS, 0.0)

        per_exec = act_cost * engine.service_time_multiplier
        per_exec = per_exec + wait
        # Symmetric Xest/Xact divergence, clamped like the scalar loop.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                est_rows <= 0,
                np.where(act_rows > 0, np.inf, 1.0),
                act_rows / est_rows,
            )
            divergence = np.where(
                ratio > 0, np.maximum(ratio, 1.0 / ratio), 1e6
            )
        divergence = np.minimum(divergence, 1e6)

        # ---- reductions and state writes ----
        result.per_class_ms = dict(zip(gathered.names, per_exec.tolist()))
        total_time = float(sum((per_exec * cntf).tolist()))
        result.plan_regret_ms = float(
            sum((np.maximum(0.0, act_cost - optimal) * cntf).tolist())
        )
        result.est_act_ratio_max = max(1.0, max(divergence.tolist()))
        result.index_scans = sum(np.where(is_index, cnt, 0).tolist())
        result.full_scans = result.total_queries - result.index_scans
        result.lock_wait_ms = float(sum((wait * cntf).tolist())) + 0.0
        rows_grown = sum(growth_list)
        result.rows_grown = rows_grown
        if rows_grown:
            totals: dict[int, int] = {}
            for pos, t in enumerate(tbl_active):
                g = growth_list[pos]
                if g:
                    totals[t] = totals.get(t, 0) + g
            for t, total in totals.items():
                self._tables[t].grow(total)

        result.mean_service_ms = total_time / result.total_queries
        result.connections_in_use = engine._connections(result)
        if result.connections_in_use >= engine.max_connections:
            result.mean_service_ms *= 1.0 + (
                result.connections_in_use / engine.max_connections
            )
        result.max_staleness = (
            engine.statistics.auto_analyze_and_max_staleness(now)
        )
        return result


class _GatheredTick:
    """One tick's active-class arrays, as :meth:`_VectorKernel.gather`
    collects them."""

    __slots__ = (
        "names",
        "total_queries",
        "ia",
        "cnt",
        "fdat",
        "idat",
        "tbl_active",
        "reads_by_table",
        "writes_by_table",
    )

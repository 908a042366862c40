"""The row engine (:mod:`repro.core.rows`) against small references.

* the two elementwise functions — :func:`initial_gains` and
  :func:`refresh_contrib` — against their documented semantics and a
  per-row scalar transcription;
* the engine's array scan state, driven over hypothesis-drawn worlds,
  against the per-UG sorted-list scan its arrays replaced (``_ListScan``),
  double for double — refreshes computed one peering at a time and in
  batches with drawn stale heap tops alike, with learned rows masked out
  of the unlearned reduction;
* on real worlds: the layout built once, volume patches against fresh
  marginals with learned rows, and the growth of the kept-ingress tables.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.benefit import BenefitEvaluator, SlotStore
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.core.routing_model import _OUTCOME_BUCKETS, DominanceTable
from repro.core.rows import INITIAL_SCAN_WIDTH, RowEngine, initial_gains, refresh_contrib
from repro.scenario import prototype_scenario, tiny_scenario
from repro.telemetry import METRICS
from repro.topology.geo import haversine_km
from tests.test_eq2_pass import store_latency


def _hex(values):
    return [float(v).hex() for v in values]


# ---------------------------------------------------------------------------
# the elementwise functions
# ---------------------------------------------------------------------------


def test_initial_gains_nan_and_clamp_semantics() -> None:
    base = np.array([10.0, 10.0, 10.0, np.inf])
    lat = np.array([4.0, 25.0, np.nan, 3.0])
    out = initial_gains(base, lat)
    np.testing.assert_array_equal(out, [6.0, 0.0, 0.0, np.inf])


def test_refresh_contrib_shrink_and_kept_semantics() -> None:
    # Row 0: closer than everything kept, passed the way ``RowEngine._scan``
    # passes a shrinking window: ``d0 = dist`` and the kept set re-read at
    # ``dist + d_reuse`` (here: empty) -> the candidate alone.
    # Row 1: within the reuse window, measurable -> joins the kept set.
    # Row 2: beyond the window -> kept set unchanged, contrib from old best.
    # Row 3: nothing kept yet (``d0 = inf``) -> the candidate alone.
    dist = np.array([100.0, 500.0, 5000.0, 700.0])
    lat = np.array([3.0, 5.0, 2.0, 4.0])
    vol = np.array([1.0, 2.0, 4.0, 8.0])
    d0 = np.array([100.0, 400.0, 400.0, np.inf])
    csum = np.array([0.0, 10.0, 10.0, 0.0])
    ccnt = np.array([0.0, 1.0, 1.0, 0.0])
    ob = np.array([20.0, 20.0, 20.0, 20.0])
    base = np.array([30.0, 30.0, 30.0, 30.0])
    contrib = refresh_contrib(dist, lat, vol, d0, csum, ccnt, ob, base, 1000.0)
    assert contrib[0] == 1.0 * (20.0 - 3.0)
    # Row 1: kept mean (10+5)/2 = 7.5, new best 7.5, gain 2*(20-7.5).
    assert contrib[1] == 2.0 * (20.0 - 7.5)
    # Row 2: not added; kept mean 10, best min(30,10)=10, gain 4*(20-10).
    assert contrib[2] == 4.0 * (20.0 - 10.0)
    assert contrib[3] == 8.0 * (20.0 - 4.0)

    # Shrunk rows with kept counts 0, 1, 3 x measurable / unmeasurable
    # latency: each is evaluated like any other row.
    dist = np.full(6, 100.0)
    lat = np.array([3.0, np.nan, 3.0, np.nan, 3.0, np.nan])
    vol = np.full(6, 2.0)
    csum = np.array([0.0, 0.0, 12.0, 12.0, 30.0, 30.0])
    ccnt = np.array([0.0, 0.0, 1.0, 1.0, 3.0, 3.0])
    ob = np.full(6, 20.0)
    base = np.full(6, 25.0)
    contrib = refresh_contrib(dist, lat, vol, dist.copy(), csum, ccnt, ob, base, 0.0)
    assert contrib.tolist() == [
        2.0 * (20.0 - 3.0),  # singleton: the ingress's own latency
        0.0,  # nothing measurable kept: no path, no improvement
        2.0 * (20.0 - (12.0 + 3.0) / 2.0),
        2.0 * (20.0 - 12.0),  # unmeasurable: kept mean unchanged
        2.0 * (20.0 - (30.0 + 3.0) / 4.0),
        2.0 * (20.0 - 10.0),
    ]


class TestRefreshContrib:
    """The vector expression agrees with a per-row scalar transcription."""

    def _scalar_reference(self, dist, lat, vol, d0, csum, ccnt, ob, base, d_reuse):
        n = len(dist)
        contrib = np.zeros(n)
        for i in range(n):
            limit = min(dist[i], d0[i]) + d_reuse
            add = dist[i] <= limit and not np.isnan(lat[i])
            cnt = ccnt[i] + add
            total = csum[i] + (lat[i] if add else 0.0)
            mean = total / max(cnt, 1)
            best = min(base[i], mean) if cnt > 0 else ob[i]
            contrib[i] = vol[i] * (ob[i] - best)
        return contrib

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        n = 64
        dist = rng.uniform(0, 9000, n)
        lat = rng.uniform(5, 300, n)
        lat[rng.random(n) < 0.2] = np.nan  # unmeasurable
        vol = rng.uniform(0.1, 10, n)
        d0 = rng.uniform(0, 9000, n)
        # A shrinking row comes with ``d0 = dist`` (``RowEngine._scan``).
        d0 = np.where(dist < d0, dist, d0)
        d0[rng.random(n) < 0.3] = np.inf  # nothing kept yet
        csum = rng.uniform(0, 500, n)
        ccnt = rng.integers(0, 4, n).astype(float)
        ob = rng.uniform(5, 300, n)
        base = rng.uniform(5, 300, n)
        contrib = refresh_contrib(dist, lat, vol, d0, csum, ccnt, ob, base, 3000.0)
        ref_contrib = self._scalar_reference(dist, lat, vol, d0, csum, ccnt, ob, base, 3000.0)
        assert np.array_equal(contrib, ref_contrib)


# ---------------------------------------------------------------------------
# the array scan state against the sorted-list scan
# ---------------------------------------------------------------------------


class _ListScan:
    """The oracle: the per-UG sorted-list scan the engine's arrays replaced
    (``PrefixScan``'s fast path at fb0f0fc, ported line for line; rows
    stand in for UGs, ``None`` latency = unmeasurable)."""

    def __init__(self, d_reuse):
        self.d_reuse = d_reuse
        self.states = {}

    def accept(self, row, dist, lat):
        state = self.states.get(row)
        if state is None:
            self.states[row] = [
                [dist],
                [0.0, lat if lat is not None else 0.0],
                [0, 1 if lat is not None else 0],
            ]
            return
        dists, sums, cnts = state
        idx = bisect_right(dists, dist)
        dists.insert(idx, dist)
        measurable = lat is not None
        sums.insert(idx + 1, sums[idx] + (lat if measurable else 0.0))
        cnts.insert(idx + 1, cnts[idx] + (1 if measurable else 0))
        if measurable:
            for j in range(idx + 2, len(sums)):
                sums[j] += lat
                cnts[j] += 1

    def kept_stats(self, row):
        """``(closest km, kept latency sum, kept count, expected)``."""
        if row not in self.states:
            return float("inf"), 0.0, 0, None
        dists, sums, cnts = self.states[row]
        idx = bisect_right(dists, dists[0] + self.d_reuse)
        total, count = sums[idx], cnts[idx]
        return dists[0], total, count, (total / count if count else None)

    def query(self, row, dist_p, lat_p):
        """Expected latency of the accepted set plus one more ingress."""
        state = self.states.get(row)
        if state is None:
            return lat_p
        dists, sums, cnts = state
        closest = dists[0]
        if dist_p < closest:
            closest = dist_p
        limit = closest + self.d_reuse
        idx = bisect_right(dists, limit)
        total, count = sums[idx], cnts[idx]
        if dist_p <= limit and lat_p is not None:
            total += lat_p
            count += 1
        return total / count if count else None

    def term(self, row, dist_p, lat_p, vol, base):
        """One row's marginal contribution, as the scalar solve computed it."""
        value = self.kept_stats(row)[3]
        old_best = base if value is None or base < value else value
        new_p = self.query(row, dist_p, lat_p)
        if new_p is None:
            return 0.0
        return vol * (old_best - (new_p if new_p < base else base))


#: Few distinct distances, so ties (insert-after) and equal-to-limit cases
#: are the norm rather than the exception.
_DISTANCES = st.sampled_from([40.0, 250.0, 250.0, 900.0, 1150.0, 4000.0])
_LATENCIES = st.one_of(st.none(), st.floats(min_value=1.0, max_value=300.0))


@st.composite
def _scan_worlds(draw):
    n_rows = draw(st.integers(min_value=2, max_value=6))
    # Row 0 complies with every peering and every peering gets accepted, so
    # one row outgrows the initial table width at least twice.
    n_pids = draw(st.integers(min_value=2 * INITIAL_SCAN_WIDTH + 1, max_value=14))
    cells = {}
    for row in range(n_rows):
        for pid in range(n_pids):
            # The last row complies with nothing: never touched.
            if row == 0 or (row < n_rows - 1 and draw(st.booleans())):
                cells[row, pid] = (draw(_DISTANCES), draw(_LATENCIES))
    reals = st.floats(min_value=5.0, max_value=300.0)
    return SimpleNamespace(
        n_rows=n_rows,
        n_pids=n_pids,
        cells=cells,
        vol=[draw(st.floats(min_value=0.0, max_value=10.0)) for _ in range(n_rows)],
        base=np.array([draw(reals) for _ in range(n_rows)]),
        d_reuse=draw(st.sampled_from([0.0, 210.0, 3000.0])),
        accepts=draw(st.permutations(range(n_pids))),
        # Per peering, the stale heap top shown with its refresh (served in
        # ``order``), so some pieces come out of another peering's batch.
        stale=[draw(st.lists(st.integers(0, n_pids - 1), max_size=9)) for _ in range(n_pids)],
        order=draw(st.permutations(range(n_pids))),
        learned=draw(st.sets(st.integers(min_value=1, max_value=n_rows - 1), max_size=1)),
    )


def _unlearned_tables(k):
    """A stub of :meth:`RoutingModel.dominance_table`: the compiled state of
    UGs that learned nothing (peering ids below ``k``)."""

    def dominance_table(ug_ids):
        n = len(ug_ids)
        return DominanceTable(
            k, np.zeros(k, dtype=np.intp), np.zeros(k, dtype=np.uint64),
            np.zeros((n, k), dtype=np.uint8),
            np.zeros((n, 1, 1), dtype=np.uint8),
            np.zeros((n, 1, 1), dtype=bool),
            np.zeros((n, 0, 1), dtype=np.uint64),
            np.zeros((n, _OUTCOME_BUCKETS + 1), dtype=np.intp),
            np.empty(0, dtype=np.intp),
            np.zeros((0, 1), dtype=bool),
            np.empty(0, dtype=np.intp),
        )

    return dominance_table


def _synthetic_engine(world) -> RowEngine:
    """A :class:`RowEngine` over stub objects and a store of ``world``'s
    cells (``None`` latency = unmeasurable), readied for a one-prefix solve with
    the ``learned`` rows masked."""
    ugs = [
        SimpleNamespace(ug_id=100 + row, volume=world.vol[row])
        for row in range(world.n_rows)
    ]
    # The cells in (row, pid) order are the store's CSR order.
    cells = sorted(world.cells.items())
    store = SlotStore.layout(
        [
            np.array([pid for (r, pid), _ in cells if r == row], dtype=np.intp)
            for row in range(world.n_rows)
        ]
    )
    store.distance[store.at] = [dist_km for _, (dist_km, _) in cells]
    store.latency[store.at] = [lat_ms for _, (_, lat_ms) in cells]  # None: nan
    scenario = SimpleNamespace(
        user_groups=ugs,
        anycast_latency_ms=lambda ug: float(world.base[ug.ug_id - 100]),
    )
    model = SimpleNamespace(
        d_reuse_km=world.d_reuse,
        dominance_table=_unlearned_tables(world.n_pids + 1),
    )
    evaluator = BenefitEvaluator(scenario, model)
    evaluator.store = store
    engine = RowEngine(scenario, evaluator, model)
    # The learned rows' own evaluation (Eq. 2 against a real routing
    # model's table) is out of this oracle's scope; what it pins is that
    # they add nothing to the unlearned reduction.
    return engine.begin_solve(
        1, list(range(world.n_pids)), [100 + row for row in world.learned]
    )


def _reduction(contrib, learned):
    """The marginal of a recorded vector: the unlearned slots' pairwise
    sum, then the learned terms one at a time in row order."""
    total = float(contrib[~learned].sum())
    for term in contrib[learned].tolist():
        total += term
    return total


class TestArrayScanAgainstListScan:
    """The engine's array scan state vs the sorted lists it replaced."""

    @settings(max_examples=80)
    @given(world=_scan_worlds())
    def test_every_float_matches_the_list_scan(self, world):
        engine = _synthetic_engine(world)
        engine.begin_round(0)
        oracle = _ListScan(world.d_reuse)
        mine = [row for row in range(world.n_rows) if row not in world.learned]
        spans = {
            pid: engine.arrays[pid][0].tolist() for pid in range(world.n_pids)
        }
        masks = {pid: engine.learned[slice(*engine._spans[pid])] for pid in spans}
        for pid, span in spans.items():
            assert span == [row for row in range(world.n_rows) if (row, pid) in world.cells]
            assert masks[pid].tolist() == [row in world.learned for row in span]
        fast = METRICS.counter("evaluator.scan_fast_queries")
        slow = METRICS.counter("evaluator.scan_slow_queries")
        for accepted in world.accepts:
            engine.accept(accepted)
            assert not engine._ahead  # the accept dropped what was computed ahead
            rows = [row for row in spans[accepted] if row in mine]
            for row in rows:
                oracle.accept(row, *world.cells[row, accepted])
            stats = [oracle.kept_stats(row) for row in mine]
            expected = {row: s[3] for row, s in zip(mine, stats)}
            assert _hex(engine._exp[rows, 0]) == _hex(
                float("inf") if expected[row] is None else expected[row]
                for row in rows
            )
            assert _hex(engine.d0_arr[mine]) == _hex(s[0] for s in stats)
            assert _hex(engine.csum_arr[mine]) == _hex(s[1] for s in stats)
            assert _hex(engine.ccnt_arr[mine]) == _hex(s[2] for s in stats)
            assert _hex(engine.ob_arr[mine]) == _hex(
                base if s[3] is None or base < s[3] else s[3]
                for base, s in zip(world.base[mine], stats)
            )
            oracle_terms = {}
            for pid, span in spans.items():
                oracle_terms[pid] = terms = [
                    oracle.term(
                        row, *world.cells[row, pid], world.vol[row],
                        float(world.base[row]),
                    )
                    for row in span
                    if row in mine
                ]
                contrib = engine.contrib([pid])[0][0]
                assert _hex(contrib[~masks[pid]]) == _hex(terms)
                # A single-row patch recomputes exactly that element — of a
                # vector that is otherwise left alone; a learned row's
                # element is not the scan's to patch.
                blank = np.full(len(span), -1.0)
                for pos, row in enumerate(span):
                    patched = engine._patch_contrib(
                        pid, blank, engine.patch_sites(pid, {row})
                    )
                    if row in world.learned:
                        assert np.array_equal(patched, blank)
                        continue
                    assert patched[pos].hex() == contrib[pos].hex()
                    assert np.count_nonzero(patched != blank) <= 1
            # Refreshes with a stale heap top: each peering computed in one
            # batch with some others, or served from an earlier batch — the
            # same doubles.  A marginal's fast scan queries are its
            # unlearned rows plus their shrink-row re-reads, its slow ones
            # its learned rows, counted as each is served.
            d0 = {row: s[0] for row, s in zip(mine, stats)}
            queries = sum(
                1 + (world.cells[row, pid][0] < d0[row] < float("inf"))
                for pid in world.order
                for row in spans[pid]
                if row in mine
            )
            before = fast.value, slow.value
            for pid in world.order:
                value, contrib = engine.marginal(pid, lambda: world.stale[pid])
                assert _hex(contrib[~masks[pid]]) == _hex(oracle_terms[pid])
                assert value.hex() == _reduction(contrib, masks[pid]).hex()
            assert fast.value - before[0] == queries
            assert slow.value - before[1] == sum(
                np.count_nonzero(masks[pid]) for pid in world.order
            )
        # The tables themselves: the oracle's lists, then padding that
        # repeats the row total (whatever widening happened in between).
        for row in mine:
            dists, sums, cnts = oracle.states.get(row, ([], [0.0], [0]))
            n = len(dists)
            assert _hex(engine.kd[row, :n]) == _hex(dists)
            assert np.isinf(engine.kd[row, n:]).all()
            assert _hex(engine.ks[row, : n + 1]) == _hex(sums)
            assert _hex(engine.kc[row, : n + 1]) == _hex(cnts)
            assert (engine.ks[row, n:] == sums[-1]).all()
            assert (engine.kc[row, n:] == cnts[-1]).all()
        # Row 0 took every accept: the table grew, twice.
        assert engine.kd.shape[1] >= 4 * INITIAL_SCAN_WIDTH
        assert np.isfinite(engine.kd[0]).sum() == world.n_pids
        assert engine.kd.shape[0] == world.n_rows


# ---------------------------------------------------------------------------
# real worlds
# ---------------------------------------------------------------------------


def _learned_rows(orchestrator):
    return {orchestrator._ug_index[ug_id] for ug_id in orchestrator.model.learned_ug_ids}


def test_layout_is_built_once_per_world() -> None:
    scenario = tiny_scenario(seed=3)
    orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=3))
    engine = orchestrator._row_source()
    layout = engine._layout
    rows, lat, dist = layout
    # Every compliant (row, peering) slot once, ascending peering then row,
    # the spans end to end.
    slots = [(pid, row) for pid in sorted(engine._spans) for row in engine.arrays[pid][0].tolist()]
    assert slots == sorted(
        (pid, row)
        for row, ug in enumerate(scenario.user_groups)
        for pid in scenario.catalog.ingress_ids(ug)
    )
    assert [engine._spans[pid] for pid in sorted(engine._spans)] == [
        (sum(1 for p, _ in slots if p < pid), sum(1 for p, _ in slots if p <= pid))
        for pid in sorted(engine._spans)
    ]
    assert len(rows) == len(lat) == len(dist) == len(slots)
    # The engine reads the evaluator's store itself: no copy, no gather.
    store = orchestrator.evaluator.store
    assert rows is store.rows and lat is store.latency and dist is store.distance
    assert engine._spans is store.spans
    ugs = scenario.user_groups
    assert _hex(dist) == _hex([
        haversine_km(ugs[row].location, scenario.deployment.peering(pid).pop.location)
        for pid, row in slots
    ])
    measured = [store_latency(orchestrator.evaluator, ugs[row], pid) for pid, row in slots]
    assert _hex(lat) == _hex([np.nan if ms is None else ms for ms in measured])
    assert not engine.learned.any()

    orchestrator.execute_and_observe(orchestrator.solve())
    learned = _learned_rows(orchestrator)
    assert learned
    assert orchestrator._row_source() is engine
    assert all(after is before for after, before in zip(engine._layout, layout))
    assert engine.learned.tolist() == [row in learned for row in rows.tolist()]


class _OddUGsMissing:
    """Observation faults withholding every odd UG's samples, so one round
    leaves learned and unlearned rows side by side."""

    def outcome(self, iteration, ug_id, prefix):
        return "missing" if ug_id % 2 else "ok"


def test_patch_equals_a_fresh_marginal_with_learned_rows() -> None:
    scenario = tiny_scenario(seed=3)
    orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=3))
    config = orchestrator.solve()
    orchestrator.execute_and_observe(config, faults=_OddUGsMissing())
    learned = sorted(_learned_rows(orchestrator))
    engine = orchestrator._row_source()
    unlearned = sorted(set(engine._layout[0].tolist()) - set(learned))
    shifted = learned[::4][:4] + unlearned[::4][:4]
    assert len(shifted) == 8
    order = sorted(config.peerings_for(0))[:4]
    pids = engine.peering_ids

    def states():
        """Each accept state of ``order``'s prefix: the open peerings."""
        engine.begin_round(0)
        for step in range(len(order) + 1):
            yield [pid for pid in pids if pid not in order[:step]]
            if step < len(order):
                engine.accept(order[step])

    recorded = [{pid: engine.marginal(pid)[1] for pid in open_} for open_ in states()]
    for row in shifted:
        ug = scenario.user_groups[row]
        orchestrator.apply_volume_shift(ug.ug_id, ug.volume * 2.5 + 1.0)
    engine = orchestrator._row_source()
    patched_learned = 0
    for details, open_ in zip(recorded, states()):
        for pid in open_:
            span = set(engine.arrays[pid][0].tolist())
            changed = {row for row in shifted if row in span}
            gain, vector = engine.patch(pid, details[pid], engine.patch_sites(pid, changed))
            fresh_gain, fresh = engine.marginal(pid)
            assert gain.hex() == fresh_gain.hex(), pid
            assert _hex(vector) == _hex(fresh), pid
            patched_learned += len(changed & set(learned))
    assert patched_learned


def test_prototype_solve_outgrows_the_initial_width() -> None:
    golden = json.loads(
        (Path(__file__).parent / "data" / "golden_solve_configs.json").read_text()
    )["prototype_seed0"]
    orchestrator = PainterOrchestrator(
        prototype_scenario(seed=0),
        OrchestratorConfig(prefix_budget=golden["budget"]),
    )
    config = orchestrator.solve()
    pairs = sorted(
        [prefix, pid]
        for prefix in config.prefixes
        for pid in config.peerings_for(prefix)
    )
    assert pairs == golden["pairs"]
    assert orchestrator._engine.kd.shape[1] > INITIAL_SCAN_WIDTH

"""Differential verification: warm-start re-solve vs a cold solve.

``PainterOrchestrator.solve_warm`` promises results **bit-identical** to a
from-scratch solve of the same (mutated) world, for every delta the
controller can apply: volume shifts, peering toggles, and PoP outages.
This suite is the proof:

* every mutation path is applied to a live orchestrator and warm-solved,
  then replayed onto a *fresh* orchestrator (no memo) and cold-solved —
  the configurations must match exactly;
* the volume-patch fast path (bit-exact memoized-summation patching, see
  ``patch_marginal``) must actually engage for volume-only dirt, and its
  reuse accounting must be visible in ``last_warm_stats``;
* an interrupted solve (an exception mid-``_solve``) must not swallow the
  dirty state it consumed — the retry still sees every pending delta.
"""

from __future__ import annotations

import pytest

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.scenario import prototype_scenario, tiny_scenario


def config_pairs(config):
    return sorted(
        [prefix, pid]
        for prefix in config.prefixes
        for pid in config.peerings_for(prefix)
    )


def fresh_reference(make_scenario, mutate, budget):
    """Cold-solve a brand-new orchestrator on an identically mutated world."""
    scenario = make_scenario()
    orch = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=budget))
    mutate(orch)
    try:
        return config_pairs(orch.solve_warm())
    finally:
        orch.close()


@pytest.fixture
def warm_orch():
    orch = PainterOrchestrator(
        tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=4)
    )
    yield orch
    orch.close()


class TestWarmEqualsCold:
    def test_noop_resolve_is_identical_and_fully_reused(self, warm_orch):
        first = warm_orch.solve_warm()
        assert warm_orch.last_warm_stats.mode == "cold"
        second = warm_orch.solve_warm()
        stats = warm_orch.last_warm_stats
        assert stats.mode == "warm"
        assert config_pairs(second) == config_pairs(first)
        assert stats.fresh_evals == 0
        assert stats.reused_evals > 0
        assert not stats.diverged

    @pytest.mark.parametrize("multiplier", [0.0, 0.3, 1.7, 10.0])
    def test_volume_shift_matches_fresh_cold_solve(self, warm_orch, multiplier):
        warm_orch.solve_warm()
        scenario = warm_orch._scenario
        ug = scenario.user_groups[len(scenario.user_groups) // 2]
        new_volume = ug.volume * multiplier

        def mutate(orch):
            orch.apply_volume_shift(ug.ug_id, new_volume)

        mutate(warm_orch)
        warm = config_pairs(warm_orch.solve_warm())
        assert warm_orch.last_warm_stats.mode == "warm"
        assert warm == fresh_reference(
            lambda: tiny_scenario(seed=3), mutate, budget=4
        )

    def test_peering_down_and_up_match_fresh_cold_solve(self, warm_orch):
        base = config_pairs(warm_orch.solve_warm())
        victim = base[0][1]  # a peering the solution actually uses

        warm_orch.set_peering_enabled(victim, False)
        down = config_pairs(warm_orch.solve_warm())
        assert warm_orch.last_warm_stats.mode == "warm"
        assert all(pid != victim for _, pid in down)
        assert down == fresh_reference(
            lambda: tiny_scenario(seed=3),
            lambda orch: orch.set_peering_enabled(victim, False),
            budget=4,
        )

        warm_orch.set_peering_enabled(victim, True)
        restored = config_pairs(warm_orch.solve_warm())
        assert restored == base

    def test_mixed_delta_stream_stays_identical(self, warm_orch):
        """Interleaved shifts and toggles across several warm re-solves."""
        warm_orch.solve_warm()
        scenario = warm_orch._scenario
        ugs = scenario.user_groups
        mutations = []

        def apply_and_check(mutate):
            mutations.append(mutate)
            mutate(warm_orch)
            warm = config_pairs(warm_orch.solve_warm())

            def replay_all(orch):
                for m in mutations:
                    m(orch)

            assert warm == fresh_reference(
                lambda: tiny_scenario(seed=3), replay_all, budget=4
            )

        # Capture target volumes eagerly: volume shifts mutate the shared
        # UserGroup in place, so re-reading ``.volume`` at replay time
        # would compound the shift.
        v_first = ugs[0].volume * 2.5
        v_last = ugs[-1].volume * 0.1
        apply_and_check(lambda o: o.apply_volume_shift(ugs[0].ug_id, v_first))
        some_pid = sorted(warm_orch._candidates)[0]
        apply_and_check(lambda o: o.set_peering_enabled(some_pid, False))
        apply_and_check(lambda o: o.apply_volume_shift(ugs[-1].ug_id, v_last))
        apply_and_check(lambda o: o.set_peering_enabled(some_pid, True))

    def test_prototype_volume_shift_matches(self):
        orch = PainterOrchestrator(
            prototype_scenario(seed=1), OrchestratorConfig(prefix_budget=6)
        )
        try:
            orch.solve_warm()
            ug = orch._scenario.user_groups[7]
            target = ug.volume * 3.0  # captured before the in-place shift
            orch.apply_volume_shift(ug.ug_id, target)
            warm = config_pairs(orch.solve_warm())
            stats = orch.last_warm_stats
        finally:
            orch.close()
        assert stats.mode == "warm"
        assert warm == fresh_reference(
            lambda: prototype_scenario(seed=1),
            lambda o: o.apply_volume_shift(ug.ug_id, target),
            budget=6,
        )


class TestWarmEqualsColdLearned:
    """After an observation round every observed UG is a learned row, and
    a volume shift on one patches its learned terms in the warm memo."""

    @pytest.mark.parametrize(
        "factory,budget",
        [
            pytest.param(tiny_scenario, 4, id="tiny"),
            pytest.param(prototype_scenario, 6, id="prototype", marks=pytest.mark.slow),
        ],
    )
    def test_shifts_on_learned_ugs_match_cold(self, factory, budget):
        orch = PainterOrchestrator(
            factory(seed=3), OrchestratorConfig(prefix_budget=budget)
        )
        try:
            orch.execute_and_observe(orch.solve_warm())
            ugs = orch._scenario.user_groups
            learned = [
                ug for ug in ugs if ug.ug_id in orch.model.learned_ug_ids
            ]
            assert len(learned) >= 18
            patched = 0
            for step in range(6):
                for ug in learned[3 * step : 3 * step + 3]:
                    orch.apply_volume_shift(
                        ug.ug_id, ug.volume * (0.4 if step % 2 else 2.5)
                    )
                warm = config_pairs(orch.solve_warm())
                stats = orch.last_warm_stats
                assert stats.mode == "warm", f"step {step}"
                patched += stats.patched_evals
                assert warm == config_pairs(orch.solve()), f"step {step}"
        finally:
            orch.close()
        assert patched > 0


class TestVolumePatchPath:
    def test_patch_path_engages_for_volume_only_dirt(self):
        orch = PainterOrchestrator(
            prototype_scenario(seed=1), OrchestratorConfig(prefix_budget=6)
        )
        try:
            orch.solve_warm()
            ug = orch._scenario.user_groups[5]
            orch.apply_volume_shift(ug.ug_id, ug.volume * 1.5)
            orch.solve_warm()
            stats = orch.last_warm_stats
        finally:
            orch.close()
        assert stats.mode == "warm"
        # Volume-only dirt must ride the memoized-summation patch, not the
        # fresh path: refreshes of dirtied peerings are patched.
        assert stats.patched_evals > 0

    def test_structural_dirt_disables_patching_for_that_peering(self):
        orch = PainterOrchestrator(
            tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=4)
        )
        try:
            orch.solve_warm()
            ug = orch._scenario.user_groups[0]
            pids = orch._scenario.catalog.ingress_ids(ug)
            target = ug.volume * 2.0  # captured before the in-place shift
            orch.apply_volume_shift(ug.ug_id, target)
            victim = sorted(pids)[0]
            orch.set_peering_enabled(victim, False)
            orch.set_peering_enabled(victim, True)
            # The toggled peering is structurally dirty: it must not be
            # counted twice in the dirty accounting.
            assert victim in orch.dirty_peerings
            config = config_pairs(orch.solve_warm())
        finally:
            orch.close()
        assert config == fresh_reference(
            lambda: tiny_scenario(seed=3),
            lambda o: o.apply_volume_shift(ug.ug_id, target),
            budget=4,
        )

    def test_chained_shifts_patch_patched_details(self):
        """A patched refresh's detail must itself be patchable next round."""
        orch = PainterOrchestrator(
            prototype_scenario(seed=1), OrchestratorConfig(prefix_budget=6)
        )
        try:
            orch.solve_warm()
            ugs = orch._scenario.user_groups
            shifts = []
            for step, (index, mult) in enumerate(
                [(5, 1.5), (5, 0.5), (11, 4.0), (5, 2.0)]
            ):
                ug = ugs[index]
                shifts.append((ug.ug_id, ug.volume * mult))
                orch.apply_volume_shift(ug.ug_id, ug.volume * mult)
                warm = config_pairs(orch.solve_warm())
                assert orch.last_warm_stats.mode == "warm", f"step {step}"

                def replay(o, upto=list(shifts)):
                    for ug_id, vol in upto:
                        o.apply_volume_shift(ug_id, vol)

                assert warm == fresh_reference(
                    lambda: prototype_scenario(seed=1), replay, budget=6
                ), f"step {step}"
        finally:
            orch.close()


class TestDirtStateRobustness:
    def test_interrupted_solve_restores_dirty_state(self, monkeypatch):
        orch = PainterOrchestrator(
            tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=4)
        )
        try:
            orch.solve_warm()
            ug = orch._scenario.user_groups[0]
            target = ug.volume * 2.0  # captured before the in-place shift
            orch.apply_volume_shift(ug.ug_id, target)
            dirty_before = set(orch.dirty_peerings)
            assert dirty_before

            def boom(*args, **kwargs):
                raise RuntimeError("interrupted mid-solve")

            monkeypatch.setattr(orch, "_solve", boom)
            with pytest.raises(RuntimeError):
                orch.solve_warm()
            monkeypatch.undo()
            # The failed attempt must not have eaten the dirt: the retry
            # still sees it and produces the correct (mutated) result.
            assert set(orch.dirty_peerings) == dirty_before
            retry = config_pairs(orch.solve_warm())
        finally:
            orch.close()
        assert retry == fresh_reference(
            lambda: tiny_scenario(seed=3),
            lambda o: o.apply_volume_shift(ug.ug_id, target),
            budget=4,
        )

    def test_budget_change_invalidates_memo(self):
        scenario = tiny_scenario(seed=3)
        orch = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=4))
        try:
            orch.solve_warm()
            orch._budget = 3  # simulate an operator reconfiguration
            orch.solve_warm()
            assert orch.last_warm_stats.mode == "cold"
        finally:
            orch.close()

    def test_volume_shift_validates_inputs(self):
        orch = PainterOrchestrator(
            tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=4)
        )
        try:
            with pytest.raises(ValueError):
                orch.apply_volume_shift(orch._scenario.user_groups[0].ug_id, -1.0)
            with pytest.raises(KeyError):
                orch.apply_volume_shift(10**9, 5.0)
        finally:
            orch.close()

    @pytest.mark.parametrize("volume", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_volume_shift_changes_nothing(self, volume):
        scenario = tiny_scenario(seed=0)
        orch = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=3))
        before = orch.solve_warm()
        benefit = orch.evaluator.expected_benefit(before)
        ug = scenario.user_groups[0]
        old_volume = ug.volume
        with pytest.raises(ValueError, match="finite"):
            orch.apply_volume_shift(ug.ug_id, volume)
        with pytest.raises(ValueError, match="finite"):
            scenario.set_ug_volume(ug.ug_id, volume)
        assert ug.volume == old_volume
        assert not orch.dirty_peerings
        after = orch.solve_warm()
        assert config_pairs(after) == config_pairs(before)
        assert orch.evaluator.expected_benefit(after) == benefit


class _RecordingEngine:
    """The row engine with every ``marginal`` request recorded, under a
    chosen ``lookahead``."""

    def __init__(self, engine, lookahead):
        self._engine = engine
        self.lookahead = lookahead
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def marginal(self, pid, stale=tuple):
        self.calls.append((pid, list(stale())))
        return self._engine.marginal(pid, stale)


class TestWarmSourceLookahead:
    """The warm-start memo forwards the engine's lookahead, passing on only
    stale peerings the engine will be asked for."""

    def _replay(self, monkeypatch, lookahead):
        """A warm re-solve after deltas that leave the world as it was:
        the first prefix's peerings toggled down and up (structural dirt)
        and one UG's volume "shifted" to itself (volume dirt)."""
        orch = PainterOrchestrator(
            tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=4)
        )
        config = orch.solve_warm()
        toggled = set(config.peerings_for(0))
        for pid in toggled:
            orch.set_peering_enabled(pid, False)
            orch.set_peering_enabled(pid, True)
        ug = orch._scenario.user_groups[0]
        orch.apply_volume_shift(ug.ug_id, ug.volume)
        patchable = set(orch._scenario.catalog.ingress_ids(ug)) - toggled
        build = orch._row_source
        engines = []

        def recording_source():
            engines.append(_RecordingEngine(build(), lookahead))
            return engines[-1]

        monkeypatch.setattr(orch, "_row_source", recording_source)
        pairs = config_pairs(orch.solve_warm())
        orch.close()
        (engine,) = engines
        return pairs, orch.last_warm_stats, engine.calls, toggled, patchable

    def test_only_dirty_peerings_are_computed_ahead(self, monkeypatch):
        pairs, stats, calls, toggled, patchable = self._replay(monkeypatch, 7)
        assert stats.mode == "warm" and not stats.diverged
        assert stats.patched_evals > 0 and patchable
        # Intact all along: reusable and patchable peerings are never asked
        # for, so never passed on; the dirty ones are, near the heap top.
        for pid, stale in calls:
            assert pid in toggled
            assert set(stale) <= toggled
        assert any(stale for _pid, stale in calls)
        pairs0, stats0, calls0, _, _ = self._replay(monkeypatch, 0)
        assert not any(stale for _pid, stale in calls0)
        assert [pid for pid, _ in calls0] == [pid for pid, _ in calls]
        assert (pairs0, stats0) == (pairs, stats)

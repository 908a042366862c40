"""Every marginal the row engine serves, against a per-peering reference.

Solves of tiny, prototype and azure-120 worlds — cold, then warm after
volume shifts, each with and without learned rows — run through the one
lazy-greedy driver with every value the source hands it checked, as
``float.hex``, against a reference computed one peering at a time:

* each initial-heap gain against :func:`_reference_initial`, the
  per-peering formula (one ``vol @ gain`` dot over the peering's
  unlearned rows, then its learned singleton terms in row order);
* each refreshed marginal against the same peering's marginal computed
  alone (a batch of one), so no value depends on the batch it was
  computed in;
* each volume patch, vector and value, against a fresh marginal.
"""

from __future__ import annotations

import pytest

import repro.core.orchestrator as orchestrator_module
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.core.rows import initial_gains
from repro.scenario import azure_scenario, prototype_scenario, tiny_scenario


def _reference_initial(engine, pid: int) -> float:
    """A peering's initial-heap gain, computed on its own: the volumes of
    its unlearned rows dotted with their ``max(0, base - latency)``, then
    each learned row's singleton term added in row order."""
    rows, lat, _dist = engine.arrays[pid]
    held = engine._held.get(pid)
    if held is not None:
        rows, lat = rows[~held], lat[~held]
    total = float(engine.vol[rows] @ initial_gains(engine._base[rows], lat))
    if held is not None:
        for term in engine._first[engine._learned_at[pid]].tolist():
            total += term
    return total


def _alone(engine, pid: int):
    """``pid``'s fresh marginal and vector, computed in a batch of one: the
    unlearned terms' sum, then the learned terms one at a time in row
    order."""
    vector = engine.contrib([pid])[0][0]
    held = engine._held.get(pid)
    if held is None:
        return float(vector.sum()), vector
    total = float(vector[~held].sum())
    for term in vector[held].tolist():
        total += term
    return total, vector


class _Checked:
    """A marginal source whose every answer is checked against the
    per-peering references before the driver sees it."""

    def __init__(self, source, engine, seen) -> None:
        self._source = source
        self._engine = engine
        self._seen = seen
        self.lookahead = source.lookahead

    def begin_prefix(self, prefix):
        gains = self._source.begin_prefix(prefix)
        pids = self._engine.peering_ids
        assert len(gains) == len(pids)
        for pid, gain in zip(pids, gains):
            assert float(gain).hex() == _reference_initial(self._engine, pid).hex(), pid
        self._seen["initial"] += len(gains)
        return gains

    def refresh(self, pid, stale):
        gain = self._source.refresh(pid, stale)
        assert float(gain).hex() == _alone(self._engine, pid)[0].hex(), pid
        self._seen["refresh"] += 1
        return gain

    def accept(self, pid) -> None:
        self._source.accept(pid)

    def end_prefix(self) -> None:
        self._source.end_prefix()


class _OddUGsMissing:
    """Observation faults withholding every odd UG's samples, so one round
    leaves learned and unlearned rows side by side."""

    def outcome(self, iteration, ug_id, prefix):
        return "missing" if ug_id % 2 else "ok"


#: World -> (scenario, prefix budget unlearned, prefix budget learned); the
#: learned budgets are smaller because Eq.-2 queries cost more per slot.
WORLDS = {
    "tiny": (lambda: tiny_scenario(seed=3), 5, 5),
    "prototype": (lambda: prototype_scenario(seed=0), 6, 3),
    "azure-120": (lambda: azure_scenario(seed=0, n_ugs=120), 8, 3),
}


def _check_every_solve(monkeypatch):
    """Route every later solve's source through :class:`_Checked`, and
    every volume patch through a comparison with a fresh marginal; returns
    the counts of what was checked."""
    seen = {"initial": 0, "refresh": 0, "patch": 0}
    real = orchestrator_module.lazy_greedy

    def lazy_greedy(source, *args, **kwargs):
        engine = getattr(source, "_inner", source)
        if "patch" not in vars(engine):
            real_patch = engine.patch

            def patch(pid, recorded, *args):
                gain, vector = real_patch(pid, recorded, *args)
                fresh_gain, fresh = _alone(engine, pid)
                assert gain.hex() == fresh_gain.hex(), pid
                assert [v.hex() for v in vector.tolist()] == [
                    v.hex() for v in fresh.tolist()
                ], pid
                seen["patch"] += 1
                return gain, vector

            monkeypatch.setattr(engine, "patch", patch)
        return real(_Checked(source, engine, seen), *args, **kwargs)

    monkeypatch.setattr(orchestrator_module, "lazy_greedy", lazy_greedy)
    return seen


@pytest.mark.parametrize("learned", [False, True], ids=["unlearned", "learned"])
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_every_marginal_matches_the_per_peering_reference(monkeypatch, world, learned):
    build, budget, learned_budget = WORLDS[world]
    scenario = build()
    orchestrator = PainterOrchestrator(
        scenario, OrchestratorConfig(prefix_budget=learned_budget if learned else budget)
    )
    ugs = scenario.user_groups
    volumes = [ug.volume for ug in ugs]
    if learned:
        config = orchestrator.solve()
        orchestrator.execute_and_observe(config, faults=_OddUGsMissing())
        assert orchestrator.model.learned_ug_ids
    checked = _check_every_solve(monkeypatch)
    try:
        orchestrator.solve_warm()  # cold: records the memo
        # Shifts small enough that the replayed accept order mostly holds,
        # so the warm solve reuses and patches before it diverges (if it
        # does).
        for row in range(0, len(ugs), max(1, len(ugs) // 6)):
            orchestrator.apply_volume_shift(ugs[row].ug_id, volumes[row] * 1.0001)
        orchestrator.solve_warm()
        stats = orchestrator.last_warm_stats
        assert stats.mode == "warm" and stats.patched_evals > 0
    finally:
        for ug, volume in zip(ugs, volumes):
            scenario.set_ug_volume(ug.ug_id, volume)
    assert checked["initial"] and checked["refresh"]
    assert checked["patch"] == stats.patched_evals

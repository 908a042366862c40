"""The row engine's learned slots against the evaluator's Eq.-2 pass.

A solve evaluates every learned (row, peering) query — the accepted set
plus one peering — in one batch of array operations
(:meth:`repro.core.rows.RowEngine.kept` / :meth:`~repro.core.rows.
RowEngine.expected`, over the routing model's compiled
:class:`DominanceTable`).  Each query's kept set must equal the full-scan
reference ``_naive_candidates`` and the sorted-key table's mask
(``tests.test_dominance_table``), and its value, every marginal built from
such values and the per-prefix expected latency an accept leaves behind
must be the floats of the evaluator's per-prefix Eq.-2 pass
(:meth:`BenefitEvaluator._eq2 <repro.core.benefit.BenefitEvaluator._eq2>`,
pinned to the scalar chain in ``tests/test_eq2_pass.py``), bit for bit.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.scenario import tiny_scenario
from tests.test_core_routing_model import _naive_candidates
from tests.test_dominance_table import oracle_kept


def _hex(value):
    """A latency as an exact, comparable string (``None``: unmeasurable)."""
    return None if value is None or value == np.inf else float(value).hex()


def _unmeasurable(ug_id: int, pid: int) -> bool:
    return (ug_id * 7 + pid * 3) % 11 == 0


def _orchestrator(scenario) -> PainterOrchestrator:
    latency_model = scenario.latency_model
    deployment = scenario.deployment

    def latency_of(ug, pid):
        if _unmeasurable(ug.ug_id, pid):
            return None
        return latency_model.latency_ms(ug, deployment.peering(pid))

    return PainterOrchestrator(
        scenario, OrchestratorConfig(prefix_budget=2, latency_of=latency_of)
    )


#: Per orchestrator: ``{advertised set: every row's expected latency}``,
#: valid while its model learns nothing (as within each test below).
_PASSES = weakref.WeakKeyDictionary()


def _eq2(orch, ug, advertised):
    """The evaluator's Eq. 2 of one UG under ``advertised`` (``None``:
    nothing measurable), one pass per advertised set."""
    passes = _PASSES.setdefault(orch, {})
    key = frozenset(advertised)
    if key not in passes:
        evaluator = orch.evaluator
        learned = evaluator.learned_table(orch.model.learned_ug_ids)
        passes[key] = evaluator._eq2(evaluator.store, key, learned)[2].tolist()
    value = passes[key][orch._ug_index[ug.ug_id]]
    return None if value == np.inf else value


def _reference_marginal(orch, source, pid, accepted):
    """``pid``'s marginal with every learned term from the Eq.-2 pass,
    added one at a time in row order after the unlearned rows' sum."""
    held = source.learned[slice(*source._spans[pid])]
    total = float(source.contrib([pid])[0][0][~held].sum())
    ugs = orch._scenario.user_groups
    for row in source.arrays[pid][0][held].tolist():
        ug = ugs[row]
        base = float(source._base[row])
        compliant = orch._scenario.catalog.compliant_subset(ug, accepted)
        old = _eq2(orch, ug, compliant) if compliant else None
        new = _eq2(orch, ug, compliant | {pid})
        old_best = base if old is None or base < old else old
        new_best = old_best if new is None else (new if new < base else base)
        total += float(source.vol[row]) * (old_best - new_best)
    return total


class TestQueriesAgainstOracle:
    @given(st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_kept_sets_values_and_accepts(self, data):
        scenario = tiny_scenario(seed=3)
        orch = _orchestrator(scenario)
        model = orch.model
        catalog = scenario.catalog
        ugs = scenario.user_groups[:6]
        # A small shared pool makes repeated contexts (matching and not),
        # same-AS pairs and outcome-memory hits likely; strays may be
        # non-compliant for a UG.
        common = sorted(set.intersection(*(set(catalog.ingress_ids(ug)) for ug in ugs)))
        pool = common[:7]
        every_id = sorted(p.peering_id for p in scenario.deployment.peerings)
        observed = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
            ug = data.draw(st.sampled_from(ugs))
            own = data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=6))
            stray = data.draw(st.sets(st.sampled_from(every_id), max_size=1))
            advertised = frozenset(own | stray)
            actual = data.draw(st.sampled_from(sorted(advertised)))
            model.observe(ug, advertised, actual, stale=data.draw(st.booleans()))
            observed.append(sorted(own))
        if data.draw(st.booleans()):
            model.restore_preferences(model.snapshot_preferences())

        source = orch._row_source()
        if not source.learned.any():
            return  # only pair-less stale observations, dropped by restore
        source.begin_round(0)
        order = data.draw(
            st.one_of(
                st.sampled_from(observed).flatmap(st.permutations),
                st.lists(st.sampled_from(pool), unique=True, max_size=6),
            )
        )
        accepted = set()
        for step in range(len(order) + 1):
            # One batch over every open peering, as a speculative refresh
            # evaluates them.
            open_pids = [
                pid for pid in pool if pid not in accepted and pid in source._held
            ]
            if open_pids:
                queries = [(pid, source._learned_at[pid]) for pid in open_pids]
                cand, kept = source.kept(queries)
                dist = source._layout[2].take(cand, mode="clip")
                cand = source._pid[cand]  # layout slots -> peering ids
                rows = source._layout[0][np.concatenate([at for _, at in queries])]
                learned_ids = [
                    scenario.user_groups[row].ug_id for row in source._learned_rows.tolist()
                ]
                np.testing.assert_array_equal(
                    kept,
                    oracle_kept(
                        model, learned_ids, source._slot_of[rows], cand,
                        source._table.asn_bits(cand), dist,
                    ),
                )
                values = source.expected(queries)
                i = 0
                for pid, at in queries:
                    advertised = frozenset(accepted | {pid})
                    for row in source._layout[0][at].tolist():
                        ug = scenario.user_groups[row]
                        got = frozenset(
                            c for c, k in zip(cand[i].tolist(), kept[i].tolist()) if k
                        )
                        assert got == _naive_candidates(model, scenario, ug, advertised)
                        assert _hex(values[i]) == _hex(_eq2(orch, ug, advertised))
                        i += 1
            for n, pid in enumerate(open_pids):
                marginal = source.marginal(pid, lambda: open_pids[n + 1 :])[0]
                assert marginal.hex() == _reference_marginal(
                    orch, source, pid, frozenset(accepted)
                ).hex()
            if step == len(order):
                break
            pid = order[step]
            source.accept(pid)
            accepted.add(pid)
            column = source._exp[:, 0]
            for row in source._learned_rows.tolist():
                ug = scenario.user_groups[row]
                compliant = catalog.compliant_subset(ug, accepted)
                expected = _eq2(orch, ug, compliant) if compliant else None
                assert _hex(column[row]) == _hex(expected)


class TestSolveAgainstOracle:
    """Every marginal a whole learned solve computes, against the Eq.-2 pass."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_every_refresh_and_accept(self, seed, monkeypatch):
        scenario = tiny_scenario(seed=seed)
        orch = _orchestrator(scenario)
        orch._budget = 3
        orch.learn(iterations=2)
        assert orch.model.learned_ug_ids
        source = orch._row_source()
        checked = {"refresh": 0, "accept": 0}
        accepted = set()
        real_marginal, real_accept = source.marginal, source.accept
        real_begin = source.begin_round

        def begin_round(prefix):
            accepted.clear()
            real_begin(prefix)

        def marginal(pid, stale=()):
            gain, detail = real_marginal(pid, stale)
            if pid in source._held:
                reference = _reference_marginal(orch, source, pid, frozenset(accepted))
                assert gain.hex() == reference.hex()
                checked["refresh"] += 1
            return gain, detail

        def accept(pid):
            real_accept(pid)
            accepted.add(pid)
            column = source._exp[:, source._prefix]
            for row in source._learned_rows.tolist():
                ug = scenario.user_groups[row]
                compliant = scenario.catalog.compliant_subset(ug, accepted)
                expected = _eq2(orch, ug, compliant) if compliant else None
                assert _hex(column[row]) == _hex(expected)
            checked["accept"] += 1

        monkeypatch.setattr(source, "begin_round", begin_round)
        monkeypatch.setattr(source, "marginal", marginal)
        monkeypatch.setattr(source, "accept", accept)
        orch._solve(source)
        assert checked["refresh"] > 10 and checked["accept"] > 3

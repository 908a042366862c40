"""Every figure experiment runs on a tiny world and keeps the paper's shape.

These are fast sanity versions of the claims ``repro report`` checks (each
experiment module's claim functions, at the registry's ``claims_at``): each
experiment gets a small scenario, and the assertions check the
*qualitative* claims — who wins, which direction curves move — not
absolute numbers.
"""

import math

import pytest

from repro.experiments.fig3 import run_fig3
from repro.experiments.fig6 import run_fig6a, run_fig6b, run_fig6c
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig9 import run_fig9a, run_fig9b
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11a, run_fig11b
from repro.experiments.fig12 import run_fig12
from repro.experiments.fig14 import run_fig14
from repro.experiments.fig15 import run_fig15a, run_fig15b


@pytest.fixture(scope="module")
def world():
    from repro.scenario import tiny_scenario

    return tiny_scenario(seed=3)


class TestFig3:
    def test_shape(self):
        result = run_fig3(n_flows=1200, seed=0)
        clouds = set(result.column("cloud"))
        assert clouds == {"cloud-a", "cloud-b", "cloud-c"}
        rows = {(r[0], r[1]): r[2] for r in result.rows}
        # Cloud A keeps most bytes past 5 minutes; others far less.
        assert rows[("cloud-a", 300.0)] > 0.6
        assert rows[("cloud-b", 300.0)] < 0.4
        # Curves decrease with offset.
        assert rows[("cloud-a", -60.0)] >= rows[("cloud-a", 3600.0)]


class TestFig6:
    def test_fig6a_painter_dominates(self, world):
        result = run_fig6a(scenario=world, painter_max_budget=5, learning_iterations=1)
        by_strategy = {}
        for row in result.rows:
            strategy, budget, _pct, benefit = row[0], row[1], row[2], row[3]
            by_strategy.setdefault(strategy, {})[budget] = benefit
        painter = by_strategy["painter"]
        opp = by_strategy["one_per_peering"]
        shared = sorted(set(painter) & set(opp))
        assert shared
        assert all(painter[b] >= opp[b] - 0.05 for b in shared)
        # Benefit fractions are valid.
        for benefit in result.column("benefit_frac"):
            assert -1e-9 <= benefit <= 1.0 + 1e-9

    def test_fig6b_improvement_grows_with_budget(self, world):
        result = run_fig6b(scenario=world, painter_max_budget=5, learning_iterations=2)
        painter = [
            (row[1], row[3]) for row in result.rows if row[0] == "painter"
        ]
        budgets = [b for b, _v in painter]
        values = [v for _b, v in painter]
        assert budgets == sorted(budgets)
        assert values[-1] >= values[0]

    def test_fig6c_learning_helps(self, world):
        result = run_fig6c(scenario=world, painter_max_budget=4, iterations=3)
        full_budget = max(result.column("budget_prefixes"))
        per_iter = {
            row[0]: row[2] for row in result.rows if row[1] == full_budget
        }
        # Exploratory iterations can dip on this tiny world; the best
        # measured iteration must stay close to (or beat) the first, and the
        # table must cover every iteration.
        assert set(per_iter) == {0, 1, 2}
        assert max(per_iter.values()) >= 0.9 * per_iter[0]


class TestFig7:
    def test_static_never_beats_dynamic(self, world):
        result = run_fig7(scenario=world, budgets=(2, 4), days=(0, 7, 14), learning_iterations=1)
        table = {}
        for budget, day, mode, benefit in result.rows:
            table[(budget, day, mode)] = benefit
        for (budget, day, mode), benefit in table.items():
            assert 0.0 <= benefit <= 1.0 + 1e-9
            if mode == "static":
                assert benefit <= table[(budget, day, "dynamic")] + 1e-9


class TestFig9:
    def test_granularity_table(self, world):
        result = run_fig9a(scenario=world, top_pops=3)
        mechanisms = set(result.column("mechanism"))
        assert mechanisms == {"bgp", "dns", "painter"}
        for row in result.rows:
            assert sum(row[2:]) == pytest.approx(1.0, abs=1e-6)

    def test_dns_loses_benefit(self, world):
        result = run_fig9b(scenario=world, painter_max_budget=4, learning_iterations=1)
        for fraction in result.column("dns_fraction_of_painter"):
            assert fraction <= 1.0 + 1e-9


class TestFig10:
    def test_notes_capture_timescales(self):
        result = run_fig10()
        notes = " ".join(result.notes)
        assert "PAINTER downtime" in notes
        assert "DNS failover" in notes
        actives = [row[1] for row in result.rows]
        assert "2.2.2.0/24" in actives and "3.3.3.0/24" in actives


class TestFig11:
    def test_exposure_positive(self, world):
        result = run_fig11a(scenario=world)
        rows = {row[0]: row[1:] for row in result.rows}
        # Median difference (index 2 = p50) positive for best paths.
        assert rows["best_paths_diff"][2] > 0
        assert rows["all_paths_diff"][2] >= rows["best_paths_diff"][2]

    def test_avoidance_ordering(self, world):
        result = run_fig11b(scenario=world)
        rows = {row[0]: row for row in result.rows}
        assert rows["painter"][4] >= rows["sdwan"][4] - 0.05


class TestFig12:
    def test_coverage_monotone(self, world):
        result = run_fig12(scenario=world, uncertainties_km=(100, 300, 600))
        coverage = result.column("coverage_frac")
        assert coverage == sorted(coverage)
        for value in coverage:
            assert 0.0 <= value <= 1.0


class TestFig14:
    def test_ranges_ordered(self, world):
        result = run_fig14(scenario=world, painter_max_budget=4)
        for row in result.rows:
            _strategy, _budget, lower, mean, estimated, upper = row
            assert lower <= mean <= upper + 1e-9
            assert lower <= estimated <= upper + 1e-9

    def test_one_per_peering_no_uncertainty(self, world):
        result = run_fig14(scenario=world, painter_max_budget=3)
        for row in result.rows:
            if row[0] == "one_per_peering":
                assert row[2] == pytest.approx(row[5], abs=1e-9)


class TestFig15:
    def test_scaling_runs(self):
        result = run_fig15a(scales=(0.3, 0.6), max_budget=6, seed=1)
        assert len(result.rows) == 2
        peerings = result.column("n_peerings")
        assert peerings[1] > peerings[0]

    def test_d_reuse_tradeoff(self, world):
        result = run_fig15b(scenario=world, d_reuse_sweep_km=(500, 3000), max_budget=5)
        reuse = result.column("reuse_factor")
        needed = result.column("prefixes_99pct")
        # Reuse always happens (that is the point of Algorithm 1)...
        assert all(r >= 1.0 for r in reuse)
        # ...but a larger D_reuse treats more co-advertised ingresses as
        # plausible destinations, which dilutes each prefix's expected
        # benefit and spreads the gains across more prefixes: reaching 99%
        # of the final benefit must not get *cheaper* as D_reuse grows.
        assert needed[0] <= needed[-1]


class TestChaos:
    @pytest.fixture(scope="class")
    def chaos(self):
        from repro.experiments.chaos import run_chaos

        return run_chaos(storms=3, duration_s=100.0, seed=0)

    def test_shape(self, chaos):
        assert chaos.experiment_id == "chaos"
        assert len(chaos.rows) == 3
        assert "painter_downtime_ms" in chaos.columns
        assert "dns_downtime_s" in chaos.columns

    def test_metrics_sane(self, chaos):
        by_col = dict(zip(chaos.columns, zip(*chaos.rows)))
        assert all(v >= 0.0 for v in by_col["painter_downtime_ms"])
        assert all(v >= 0.0 for v in by_col["anycast_downtime_s"])
        assert all(v >= 0.0 for v in by_col["dns_downtime_s"])
        # Across the storm set, RTT-timescale failover accumulates far less
        # downtime than TTL-bound DNS steering facing identical weather.
        painter_s = sum(by_col["painter_downtime_ms"]) / 1000.0
        assert painter_s < sum(by_col["dns_downtime_s"])

    def test_deterministic(self, chaos):
        from repro.experiments.chaos import run_chaos

        again = run_chaos(storms=3, duration_s=100.0, seed=0)
        assert again.rows == chaos.rows

    def test_render_mentions_damping(self, chaos):
        rendered = chaos.render()
        assert "route-flap-damped" in rendered

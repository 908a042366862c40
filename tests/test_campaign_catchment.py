"""Anycast catchment analysis: where each UG lands and how far it is hauled."""

import pytest

from repro.steering.catchment import CatchmentAnalysis


class TestCatchment:
    @pytest.fixture(scope="class")
    def analysis(self, scenario):
        return CatchmentAnalysis(scenario)

    def test_every_ug_lands_somewhere(self, scenario, analysis):
        assert len(analysis.entries) == len(scenario.user_groups)

    def test_volumes_conserved(self, scenario, analysis):
        total = sum(analysis.catchment_volumes().values())
        assert total == pytest.approx(sum(ug.volume for ug in scenario.user_groups))

    def test_inflation_nonnegative(self, analysis):
        for entry in analysis.entries:
            assert entry.inflation_km >= -1e-9
            if entry.landed_at_closest:
                assert entry.inflation_km == pytest.approx(0.0)

    def test_fraction_within_monotone(self, analysis):
        fractions = [analysis.fraction_within_km(km) for km in (0, 500, 1000, 20000)]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_inflated_tail_exists(self, analysis):
        """Some UGs are hauled far past their closest PoP — the Fig. 1
        pathology PAINTER exists to fix."""
        percentiles = analysis.inflation_percentiles((0.5, 0.99))
        assert percentiles[0.99] > percentiles[0.5]
        worst = analysis.worst_entries(3)
        assert worst[0].inflation_km >= worst[-1].inflation_km

    def test_most_ugs_land_reasonably_close(self, analysis):
        # The anycast-works-for-most-users observation [21, 54].
        assert analysis.fraction_within_km(3000) > 0.5

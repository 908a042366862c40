"""The lazy-greedy driver against a naive full-re-evaluation greedy.

``lazy_greedy`` knows nothing about UGs or latencies, so it is checked on
the smallest monotone-submodular objective there is — weighted coverage —
through a dict-backed ``MarginalSource``, against an argmax loop that
re-evaluates every candidate at every step.  The naive loop is the oracle:
short enough to audit by eye, and kept here beside the test.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.greedy import EPSILON_BENEFIT, lazy_greedy
from repro.telemetry import METRICS


class CoverageSource:
    """Weighted coverage: a peering's gain is the weight it newly covers.

    Every ``stale`` list the driver shows it is recorded, with whether
    each listed peering really was stale then: evaluated before the
    prefix's latest accept, and neither accepted nor the peering being
    refreshed.
    """

    def __init__(self, cover, weight, lookahead=0):
        self.cover, self.weight = cover, weight
        self.lookahead = lookahead
        self.covered, self.accepts, self.prefixes = set(), [], []
        self.stale_lists = []

    def gain(self, pid):
        return float(sum(self.weight[e] for e in self.cover[pid] - self.covered))

    def begin_prefix(self, prefix):
        self.prefixes.append(prefix)
        self.version, self.seen, self.chosen = 0, dict.fromkeys(self.cover, 0), set()
        return [self.gain(pid) for pid in sorted(self.cover)]

    def refresh(self, pid, stale):
        stale = list(stale())
        self.stale_lists.append(stale)
        for other in stale:
            assert other != pid and other not in self.chosen
            assert self.seen[other] != self.version
        self.seen[pid] = self.version
        return self.gain(pid)

    def accept(self, pid):
        self.accepts.append((self.prefixes[-1], pid))
        self.covered |= self.cover[pid]
        self.version += 1
        self.chosen.add(pid)

    def end_prefix(self):
        pass


def naive_greedy(cover, weight, budget, allow_reuse=True):
    """Exact greedy: every remaining candidate re-evaluated at every step.

    Returns ``(accepts, evaluations, tied)``; ``tied`` reports whether two
    candidates ever shared the best positive gain (the one situation where
    a lazy loop may legitimately accept either).
    """
    covered, accepts, evaluations, tied = set(), [], 0, False
    for prefix in range(budget):
        chosen = set()
        while True:
            gains = {
                pid: float(sum(weight[e] for e in cover[pid] - covered))
                for pid in sorted(cover)
                if pid not in chosen
            }
            evaluations += len(gains)
            best = min(gains, key=lambda pid: (-gains[pid], pid), default=None)
            if best is None or gains[best] <= EPSILON_BENEFIT:
                break
            tied |= list(gains.values()).count(gains[best]) > 1
            accepts.append((prefix, best))
            chosen.add(best)
            covered |= cover[best]
            if not allow_reuse:
                break
        if not chosen:
            break
    return accepts, evaluations, tied


def run_lazy(cover, weight, budget, allow_reuse=True):
    source = CoverageSource(cover, weight)
    config, curve = lazy_greedy(
        source, sorted(cover), budget, allow_reuse=allow_reuse
    )
    assert curve == []  # no evaluate callback, no curve
    assert sorted(config.pairs()) == sorted(source.accepts)
    return source.accepts


@st.composite
def coverage_tables(draw):
    """Elements weigh distinct powers of two, so two candidates gain the
    same only if they newly cover the same elements — and distinct gains
    differ by far more than ``EPSILON_BENEFIT``."""
    n_elements = draw(st.integers(1, 9))
    weight = {e: float(2**e) for e in range(n_elements)}
    pids = draw(
        st.lists(st.integers(0, 40), min_size=1, max_size=7, unique=True)
    )
    cover = {
        pid: draw(st.frozensets(st.sampled_from(sorted(weight)), max_size=5))
        for pid in pids
    }
    return cover, weight


class TestAgainstNaiveGreedy:
    @settings(max_examples=300, deadline=None)
    @given(coverage_tables(), st.integers(1, 5), st.booleans())
    def test_same_accepts_in_the_same_order(self, table, budget, allow_reuse):
        cover, weight = table
        expected, evaluations, tied = naive_greedy(
            cover, weight, budget, allow_reuse
        )
        assume(not tied)
        naive_counter = METRICS.counter("orchestrator.naive_marginal_evals")
        lazy_counter = METRICS.counter("orchestrator.marginal_evals")
        naive_before, lazy_before = naive_counter.value, lazy_counter.value
        assert run_lazy(cover, weight, budget, allow_reuse) == expected
        # The driver's account of what the naive loop would have spent is
        # what the naive loop did spend, and laziness never costs more.
        assert naive_counter.value - naive_before == evaluations
        if allow_reuse:
            assert lazy_counter.value - lazy_before <= evaluations

    @settings(max_examples=200, deadline=None)
    @given(coverage_tables(), st.integers(1, 5), st.booleans())
    def test_lookahead_changes_no_decision(self, table, budget, allow_reuse):
        """A lookahead only shows the source stale peerings (checked in
        :class:`CoverageSource`); accepts and work counters stay the same."""
        cover, weight = table
        counters = [
            METRICS.counter("orchestrator.marginal_evals"),
            METRICS.counter("orchestrator.heap_repushes"),
        ]
        runs = []
        for lookahead in (0, 7):
            source = CoverageSource(cover, weight, lookahead)
            before = [counter.value for counter in counters]
            lazy_greedy(source, sorted(cover), budget, allow_reuse=allow_reuse)
            spent = [c.value - b for c, b in zip(counters, before)]
            runs.append((source.accepts, spent, source.stale_lists))
        (accepts0, spent0, stale0), (accepts7, spent7, stale7) = runs
        assert accepts7 == accepts0
        assert spent7 == spent0
        assert not any(stale0)
        assert len(stale7) == len(stale0)  # one list per refresh
        assert all(len(stale) <= 7 + 1 for stale in stale7)

    def test_lookahead_lists_the_stale_heap_top(self):
        """After the first accept every other entry is stale: the first
        refresh (of 8) is shown the eight left, best first; the second (of
        7) the same minus 7 itself and 8, which its refresh made fresh."""
        cover = {pid: {"shared", pid} for pid in range(10)}
        weight = {"shared": 100.0, **{pid: float(pid + 1) for pid in range(10)}}
        source = CoverageSource(cover, weight, lookahead=7)
        lazy_greedy(source, sorted(cover), 1)
        assert source.accepts[0] == (0, 9)
        assert source.stale_lists[:2] == [
            [7, 6, 5, 4, 3, 2, 1, 0],
            [6, 5, 4, 3, 2, 1, 0],
        ]

    def test_one_accept_per_prefix_without_reuse(self):
        cover = {1: {"a"}, 2: {"b"}, 3: {"c"}}
        weight = {"a": 4.0, "b": 2.0, "c": 1.0}
        assert run_lazy(cover, weight, 2, allow_reuse=False) == [(0, 1), (1, 2)]
        assert run_lazy(cover, weight, 5, allow_reuse=False) == [
            (0, 1), (1, 2), (2, 3),
        ]

    def test_stops_at_the_first_prefix_that_accepts_nothing(self):
        cover = {1: {"a"}, 2: {"a", "b"}}
        weight = {"a": 1.0, "b": 1.0}
        source = CoverageSource(cover, weight)
        lazy_greedy(source, [1, 2], 10)
        # Prefix 0 takes 2, after which 1 has nothing left to add; prefix 1
        # finds nothing, and prefixes 2..9 are never started.
        assert source.accepts == [(0, 2)]
        assert source.prefixes == [0, 1]

    def test_epsilon_cutoff(self):
        cover = {1: {"a"}, 2: {"b"}, 3: {"c"}}
        weight = {"a": 1.0, "b": EPSILON_BENEFIT, "c": 2 * EPSILON_BENEFIT}
        assert run_lazy(cover, weight, 3) == [(0, 1), (0, 3)]


class TestTieBreak:
    """Heap entries are ``(-gain, version, pid)``."""

    def test_equal_initial_gains_go_to_the_lower_pid(self):
        cover = {7: {"a"}, 3: {"b"}, 5: {"c"}}
        weight = {"a": 1.0, "b": 1.0, "c": 1.0}
        assert run_lazy(cover, weight, 1) == [(0, 3), (0, 5), (0, 7)]

    def test_equal_gains_go_to_the_entry_refreshed_earlier(self):
        """9 and 1 both end up worth 5.0, but 9's entry was refreshed (and
        re-pushed) one accept earlier, so it is reconsidered — and, being
        no worse than the heap top, accepted — first.  The naive loop would
        take 1 first; this is the documented difference under exact ties."""
        cover = {
            5: {"z", "s", "t"},
            9: {"x", "s"},
            4: {"v", "u", "q"},
            1: {"y", "u"},
            7: {"w", "t", "q"},
        }
        weight = {
            "z": 100.0, "s": 3.5, "t": 3.0, "x": 5.0, "v": 2.0,
            "u": 1.0, "q": 5.0, "y": 5.0, "w": 1.0,
        }
        assert [pid for _, pid in run_lazy(cover, weight, 1)] == [5, 4, 9, 1, 7]
        naive, _, tied = naive_greedy(cover, weight, 1)
        assert tied and [pid for _, pid in naive] == [5, 4, 1, 9, 7]

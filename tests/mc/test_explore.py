"""Explorer determinism, reduction accounting, and fault coverage."""

from repro.mc import McModel, explore

_COUNTS = (
    "states",
    "transitions",
    "terminals",
    "sleep_skips",
    "stutter_commits",
    "cache_hits",
    "delay_prunes",
)

#: Exact counts of the n=3, one-task explores below, in ``_COUNTS``
#: order, all with zero violations.  A lost reduction or a reordered
#: frontier changes them, so any drift fails here rather than merely
#: running slower.
PINNED = {
    "default": (601, 632, 11, 683, 237, 32, 3161),
    "no-stutter": (873, 1027, 11, 2054, 0, 120, 8902),
    "delays-0": (43, 42, 1, 0, 22, 0, 259),
    "executor:equivocate-chunks": (592, 639, 9, 683, 187, 48, 3317),
    "verifier:bogus-digest": (589, 615, 11, 611, 217, 27, 3034),
    "executor:silent": (2071, 2119, 17, 327, 851, 48, 2718),
}


def counts(stats) -> tuple:
    return tuple(getattr(stats, name) for name in _COUNTS)


class TestDeterminism:
    def test_same_counts_across_two_runs(self):
        model = McModel(n=3, tasks=1)
        first = explore(model)
        second = explore(model)
        assert first.stats.to_dict() == second.stats.to_dict()
        assert first.ok and second.ok
        assert counts(first.stats) == PINNED["default"]

    def test_exploration_is_complete_within_budget(self):
        result = explore(McModel(n=3, tasks=1))
        assert result.stats.complete
        assert result.stats.terminals > 1  # delay budget branches exist


class TestReduction:
    def test_reduction_ratio_beats_two_x(self):
        stats = explore(McModel(n=3, tasks=1)).stats
        assert stats.reduction_ratio > 2.0
        assert stats.tree_size > stats.transitions
        assert stats.interleavings >= stats.terminals

    def test_sleep_sets_and_stutter_both_fire(self):
        stats = explore(McModel(n=3, tasks=1)).stats
        assert stats.sleep_skips > 0
        assert stats.stutter_commits > 0
        assert stats.cache_hits > 0

    def test_disabling_stutter_only_grows_the_space(self):
        base = explore(McModel(n=3, tasks=1)).stats
        full = explore(McModel(n=3, tasks=1, stutter=False)).stats
        assert full.states >= base.states
        assert full.stutter_commits == 0
        assert full.violations == base.violations == 0
        assert counts(full) == PINNED["no-stutter"]

    def test_delay_budget_bounds_the_space(self):
        tight = explore(McModel(n=3, tasks=1, delays=0)).stats
        loose = explore(McModel(n=3, tasks=1, delays=1)).stats
        assert tight.terminals == 1  # canonical schedule only
        assert loose.states > tight.states
        assert counts(tight) == PINNED["delays-0"]
        assert counts(loose) == PINNED["default"]


class TestFaultModels:
    def test_registry_faults_explore_clean(self):
        # spot-check the two most race-prone faults; the full registry
        # sweep is the mc-smoke CI job's territory
        for role, kind in [
            ("executor", "equivocate-chunks"),
            ("verifier", "bogus-digest"),
        ]:
            result = explore(
                McModel(n=3, tasks=1, fault_role=role, fault_kind=kind)
            )
            assert result.stats.complete
            assert result.ok, (role, kind, result.violations)
            assert counts(result.stats) == PINNED[f"{role}:{kind}"]

    def test_silent_executor_exercises_timers(self):
        # a silent executor produces nothing: progress needs suspect
        # timers to fire, which the timer budget must allow
        result = explore(
            McModel(n=3, tasks=1, fault_role="executor", fault_kind="silent")
        )
        assert result.stats.complete
        assert result.ok
        timer_keys = [
            k
            for v in result.violations
            for k in v.trace
            if k[0] == "t"
        ]
        # no violations, so inspect stats instead: the space is larger
        # than the fault-free one because timer branches exist
        base = explore(McModel(n=3, tasks=1)).stats
        assert result.stats.states > base.states
        assert not timer_keys
        assert counts(result.stats) == PINNED["executor:silent"]

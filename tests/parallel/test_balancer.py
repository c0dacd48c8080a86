"""Tests for the walker load-balance plan."""

from hypothesis import given, settings, strategies as st

from repro.parallel.cluster import balance_plan


class TestPlan:
    def test_already_balanced_empty_plan(self):
        assert balance_plan([4, 4, 4]) == []

    def test_simple_transfer(self):
        plan = balance_plan([6, 2])
        assert plan == [(0, 1, 2)]

    def test_remainder_distribution(self):
        counts = [5, 0, 2]
        plan = balance_plan(counts)
        final = list(counts)
        for s, d, n in plan:
            final[s] -= n
            final[d] += n
        assert sorted(final) == [2, 2, 3]

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=12))
    def test_plan_equalizes(self, counts):
        plan = balance_plan(counts)
        final = list(counts)
        for s, d, n in plan:
            assert n > 0
            final[s] -= n
            final[d] += n
        total = sum(counts)
        base = total // len(counts)
        assert all(c in (base, base + 1) for c in final)
        assert sum(final) == total

    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=10))
    def test_plan_minimal_movement(self, counts):
        """Total moved equals total surplus above targets (no shuffling)."""
        plan = balance_plan(counts)
        moved = sum(n for _, _, n in plan)
        total = sum(counts)
        size = len(counts)
        base, extra = divmod(total, size)
        order = sorted(range(size), key=lambda r: -counts[r])
        target = [base] * size
        for r in order[:extra]:
            target[r] = base + 1
        surplus = sum(max(0, counts[r] - target[r]) for r in range(size))
        assert moved == surplus

"""Tests for the per-bank row-buffer state machine."""

import math

import pytest

from repro.arch.dram import DramMacroTiming
from repro.memsys import Bank


class TestStateMachine:
    def test_first_access_is_a_miss_paying_activation(self):
        bank = Bank()
        access = bank.access(7)
        assert access.outcome == "miss"
        assert access.latency_ns == pytest.approx(20.0 + 2.0)
        assert bank.open_row == 7

    def test_same_row_hits_at_page_rate(self):
        bank = Bank()
        bank.access(7)
        access = bank.access(7)
        assert access.outcome == "hit"
        assert access.latency_ns == pytest.approx(2.0)

    def test_row_switch_is_a_conflict(self):
        bank = Bank(precharge_ns=10.0)
        bank.access(7)
        access = bank.access(8)
        assert access.outcome == "conflict"
        assert access.latency_ns == pytest.approx(10.0 + 20.0 + 2.0)
        assert bank.open_row == 8

    def test_precharge_closes_the_row(self):
        bank = Bank()
        bank.access(7)
        bank.precharge()
        assert bank.open_row is None
        assert bank.access(7).outcome == "miss"

    def test_is_hit_does_not_mutate(self):
        bank = Bank()
        bank.access(3)
        assert bank.is_hit(3)
        assert not bank.is_hit(4)
        assert bank.accesses == 1


class TestSharedAccessResults:
    """``Bank.access`` returns one prebuilt result per outcome."""

    def test_same_outcome_same_object(self):
        bank = Bank()
        miss = bank.access(1)
        hit = bank.access(1)
        assert bank.access(1) is hit
        conflict = bank.access(2)
        bank.precharge()
        assert bank.access(2) is miss
        assert bank.access(3) is conflict
        assert len({id(miss), id(hit), id(conflict)}) == 3
        assert (bank.hits, bank.misses, bank.conflicts) == (2, 2, 2)

    def test_closed_policy_shares_its_miss(self):
        bank = Bank(row_policy="closed")
        first = bank.access(1)
        assert bank.access(1) is first
        assert bank.access(9) is first
        assert (bank.hits, bank.misses, bank.conflicts) == (0, 3, 0)

    def test_results_are_frozen_and_per_bank(self):
        import dataclasses

        bank = Bank()
        access = bank.access(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            access.latency_ns = 0.0
        other = Bank(precharge_ns=5.0)
        other.access(1)
        assert other.access(2).latency_ns == pytest.approx(5.0 + 22.0)
        bank.access(1)
        assert bank.access(2).latency_ns == pytest.approx(22.0)


class TestCounters:
    def test_hit_rate(self):
        bank = Bank()
        bank.access(1)              # miss
        for _ in range(7):
            bank.access(1)          # hits
        bank.access(2)              # conflict
        assert bank.hits == 7
        assert bank.misses == 1
        assert bank.conflicts == 1
        assert bank.row_hit_rate == pytest.approx(7 / 9)

    def test_empty_hit_rate_nan(self):
        assert math.isnan(Bank().row_hit_rate)

    def test_closed_policy_every_access_is_a_miss(self):
        bank = Bank(row_policy="closed")
        miss_ns = (
            bank.timing.row_access_ns + bank.timing.page_access_ns
        )
        for row in (5, 5, 7, 5):  # repeats would hit under open policy
            access = bank.access(row)
            assert access.outcome == "miss"
            assert access.latency_ns == miss_ns
        assert bank.open_row is None
        assert bank.hits == 0 and bank.conflicts == 0
        assert bank.misses == 4
        assert not bank.is_hit(5)

    def test_rejects_unknown_row_policy(self):
        with pytest.raises(ValueError, match="row_policy"):
            Bank(row_policy="adaptive")

    def test_rejects_negative_precharge(self):
        with pytest.raises(ValueError):
            Bank(precharge_ns=-1.0)

    def test_custom_timing(self):
        timing = DramMacroTiming(
            row_bits=1024, page_bits=128,
            row_access_ns=10.0, page_access_ns=1.0,
        )
        bank = Bank(timing)
        assert bank.access(0).latency_ns == pytest.approx(11.0)
        assert bank.access(0).latency_ns == pytest.approx(1.0)

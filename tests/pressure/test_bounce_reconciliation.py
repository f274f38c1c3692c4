"""Satellite: BouncePool occupancy/frees reconcile with the meter.

A seeded random walk of allocations and releases — including refusals
from both the fixed pool and the budget (the RNR-backpressure escapes)
— must keep the meter's ``bounce`` account exactly equal to
``in_use * buffer_bytes`` at every step, and end balanced at zero.
"""

import pytest

from repro.pressure.budget import PressureBudget, PressureMeter
from repro.rdma.bounce import BounceBufferPool, BouncePoolExhausted
from repro.util.rng import make_rng


def reconciled(pool: BounceBufferPool, meter: PressureMeter) -> bool:
    return meter.accounts["bounce"] == pool.in_use * pool.buffer_bytes


class TestReconciliation:
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_random_walk_stays_reconciled(self, seed):
        meter = PressureMeter(PressureBudget(budget_bytes=6 * 512))
        pool = BounceBufferPool(8, 512, pressure=meter)
        rng = make_rng(seed)
        held = []
        refusals = 0
        for _ in range(400):
            if held and rng.random() < 0.45:
                pool.release(held.pop(int(rng.integers(len(held)))))
            else:
                try:
                    held.append(pool.allocate())
                except BouncePoolExhausted:
                    refusals += 1
            assert reconciled(pool, meter)
            assert meter.charged <= 6 * 512
        for buf in held:
            pool.release(buf)
        assert reconciled(pool, meter)
        assert meter.accounts["bounce"] == 0
        # The budget (6 buffers) is tighter than the pool (8): the walk
        # must actually have been refused by the budget at least once.
        assert refusals > 0

    def test_budget_refusal_is_pool_exhaustion(self):
        """The budget escape is the same exception RNR backpressure
        already handles — no new failure mode for callers."""
        meter = PressureMeter(PressureBudget(budget_bytes=1024))
        pool = BounceBufferPool(4, 512, pressure=meter)
        a = pool.allocate()
        pool.allocate()
        with pytest.raises(BouncePoolExhausted, match="budget"):
            pool.allocate()
        # A release restores exactly one buffer of headroom.
        pool.release(a)
        pool.allocate()

    def test_pressure_gauges_mirror_occupancy(self):
        meter = PressureMeter(PressureBudget(budget_bytes=4096))
        pool = BounceBufferPool(4, 512, pressure=meter)
        bufs = [pool.allocate() for _ in range(3)]
        assert meter.snapshot()["account.bounce"] == 3 * 512.0
        pool.release(bufs[0])
        assert meter.snapshot()["account.bounce"] == 2 * 512.0
        assert pool.high_water == 3

    def test_unmetered_pool_unchanged(self):
        pool = BounceBufferPool(2, 512)
        a = pool.allocate()
        pool.allocate()
        with pytest.raises(BouncePoolExhausted):
            pool.allocate()
        pool.release(a)
        assert pool.slots.available == 1

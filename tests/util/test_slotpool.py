"""The first-touch slot pool against the eager free list it replaced.

``DescriptorTable`` and ``BounceBufferPool`` used to build
``list(range(capacity - 1, -1, -1))`` up front and pop from it. Slot
numbers are simulated output (descriptor slots reach match events,
bounce indices the ledger), so the first-touch pool must hand out the
identical sequence, report identical occupancy, and exhaust at the
identical call, under any allocate / release script.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.descriptor import DescriptorTable, DescriptorTableFull
from repro.core.envelope import ReceiveRequest
from repro.rdma.bounce import BounceBufferPool, BouncePoolExhausted
from repro.util.slotpool import SlotPool

COMMON = settings(max_examples=120, deadline=None)


class EagerFreeList:
    """The free list as it was: every slot materialised, LIFO reuse."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.free = list(range(capacity - 1, -1, -1))
        self.high_water = 0

    @property
    def in_use(self) -> int:
        return self.capacity - len(self.free)

    def take(self) -> int | None:
        if not self.free:
            return None
        slot = self.free.pop()
        self.high_water = max(self.high_water, self.in_use)
        return slot

    def give(self, slot: int) -> None:
        self.free.append(slot)


class RecordingMeter:
    """A pressure meter that fits everything and logs what it is charged."""

    def __init__(self) -> None:
        self.log: list[tuple[str, str, int]] = []

    def would_fit(self, nbytes: int) -> bool:
        return True

    def headroom(self) -> int:
        return 1 << 30

    def charge(self, account: str, nbytes: int) -> None:
        self.log.append(("charge", account, nbytes))

    def release(self, account: str, nbytes: int) -> None:
        self.log.append(("release", account, nbytes))


#: A script step: allocate, release the k-th oldest live object, or
#: release an object that is not allocated (the foreign release).
steps = st.one_of(
    st.just(("allocate", 0)),
    st.just(("allocate", 0)),
    st.tuples(st.just("release"), st.integers(0, 1000)),
    st.tuples(st.just("foreign"), st.integers(0, 1000)),
)
scripts = st.lists(steps, max_size=80)
capacities = st.integers(1, 6)


class TableDriver:
    """``DescriptorTable`` behind the pool vocabulary of the script."""

    full = DescriptorTableFull

    def __init__(self, capacity: int) -> None:
        self.pool = DescriptorTable(capacity, 2)
        self.labels = 0

    def allocate(self):
        self.labels += 1
        return self.pool.allocate(ReceiveRequest(source=0, tag=0), self.labels, 0)

    def slot_of(self, descr) -> int:
        return descr.slot

    def check(self, model: EagerFreeList) -> None:
        assert self.pool.in_use == model.in_use
        assert self.pool.high_water == model.high_water
        assert self.pool.capacity == model.capacity


class BounceDriver:
    """``BounceBufferPool`` (with a meter attached) likewise."""

    full = BouncePoolExhausted
    BYTES = 512

    def __init__(self, capacity: int) -> None:
        self.meter = RecordingMeter()
        self.pool = BounceBufferPool(capacity, self.BYTES, pressure=self.meter)
        self.expected_log: list[tuple[str, str, int]] = []

    def allocate(self):
        buf = self.pool.allocate()
        self.expected_log.append(("charge", "bounce", self.BYTES))
        return buf

    def slot_of(self, buf) -> int:
        assert buf.in_use and buf.capacity == self.BYTES
        return buf.index

    def check(self, model: EagerFreeList) -> None:
        assert self.pool.in_use == model.in_use
        assert self.pool.slots.available == len(model.free)
        assert self.pool.high_water == model.high_water
        assert self.pool.capacity == model.capacity
        releases = [entry for entry in self.meter.log if entry[0] == "release"]
        assert [e for e in self.meter.log if e[0] == "charge"] == self.expected_log
        assert len(self.expected_log) - len(releases) == model.in_use


@pytest.mark.parametrize("driver_cls", [TableDriver, BounceDriver])
@COMMON
@given(capacity=capacities, script=scripts)
def test_same_slots_occupancy_and_exhaustion_as_eager(driver_cls, capacity, script):
    driver, model = driver_cls(capacity), EagerFreeList(capacity)
    live: list = []
    dead: list = []
    for action, pick in script:
        if action == "allocate":
            expected = model.take()
            if expected is None:
                with pytest.raises(driver.full):
                    driver.allocate()
            else:
                obj = driver.allocate()
                assert driver.slot_of(obj) == expected
                live.append(obj)
        elif action == "release" and live:
            obj = live.pop(pick % len(live))
            model.give(driver.slot_of(obj))
            driver.pool.release(obj)
            dead.append(obj)
        elif action == "foreign":
            # Bounce buffers are reused objects: a released one may be live again.
            foreign = [obj for obj in dead if not getattr(obj, "in_use", False)]
            if foreign:
                with pytest.raises(ValueError):
                    driver.pool.release(foreign[pick % len(foreign)])
        driver.check(model)


@COMMON
@given(capacity=capacities, script=scripts)
def test_slot_pool_itself(capacity, script):
    pool, model = SlotPool(capacity), EagerFreeList(capacity)
    live: list[int] = []
    for action, pick in script:
        if action == "allocate":
            expected = model.take()
            slot = pool.take()
            assert slot == (-1 if expected is None else expected)
            if expected is not None:
                live.append(slot)
        elif action == "release" and live:
            slot = live.pop(pick % len(live))
            model.give(slot)
            pool.give(slot)
        assert pool.in_use == model.in_use
        assert pool.available == len(model.free)
        assert pool.high_water == model.high_water


def test_untouched_capacity_costs_nothing():
    table = DescriptorTable(1 << 20, 1)
    pool = BounceBufferPool(1 << 20)
    first = table.allocate(ReceiveRequest(source=0, tag=0), 0, 0)
    buf = pool.allocate()
    assert first.slot == 0 and buf.index == 0
    assert len(table._slots) == 1 and len(pool._buffers) == 1
    assert table.footprint_bytes == (1 << 20) * 64  # the model still is full-size


def test_bounce_buffer_objects_are_reused_per_index():
    pool = BounceBufferPool(2)
    first = pool.allocate()
    pool.release(first)
    assert pool.allocate() is first
    second = pool.allocate()
    assert second.index == 1 and second is not first
    with pytest.raises(BouncePoolExhausted):
        pool.allocate()


@pytest.mark.parametrize("capacity", [0, -3])
def test_nonpositive_capacity_rejected(capacity):
    with pytest.raises(ValueError):
        SlotPool(capacity)
    with pytest.raises(ValueError):
        BounceBufferPool(capacity)

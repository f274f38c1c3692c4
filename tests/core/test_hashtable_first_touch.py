"""First-touch ``HashTable`` against the eager table it replaced.

The table used to build all ``bins`` chains up front. Now a chain
exists only once its bucket has been addressed; every aggregate the
analyzer and the engine read — ``depths()``, ``empty_fraction()``,
``total_live()``, iteration — must read an untouched bin as the empty
chain it used to be, on any insert / consume / sweep script.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indexes import HashTable
from repro.util.intrusive import IntrusiveList

COMMON = settings(max_examples=150, deadline=None)


class EagerTable:
    """``HashTable`` as it was: one chain per bin from the start."""

    def __init__(self, bins: int) -> None:
        self.bins = bins
        self.buckets = [IntrusiveList() for _ in range(bins)]

    def bucket(self, hash_word: int) -> IntrusiveList:
        return self.buckets[hash_word % self.bins]

    def __iter__(self):
        return iter(self.buckets)

    def total_live(self) -> int:
        return sum(len(b) for b in self.buckets)

    def depths(self) -> list[int]:
        return [len(b) for b in self.buckets]

    def empty_fraction(self) -> float:
        return sum(1 for b in self.buckets if b.is_empty()) / self.bins


#: insert under a hash word / lazily mark, or eagerly unlink, the k-th
#: linked node / only look a bucket up / sweep every chain.
steps = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 2**64 - 1)),
    st.tuples(st.just("insert"), st.integers(0, 7)),
    st.tuples(st.just("mark"), st.integers(0, 1000)),
    st.tuples(st.just("unlink"), st.integers(0, 1000)),
    st.tuples(st.just("lookup"), st.integers(0, 2**64 - 1)),
    st.just(("sweep", 0)),
)


def _contents(table) -> list[list[int]]:
    """Payloads of every chain that physically holds a node, in bin order."""
    return [
        [node.payload for node in chain.iter_nodes(include_marked=True)]
        for chain in table
        if chain.physical_length
    ]


@COMMON
@given(bins=st.sampled_from([1, 2, 8, 128]), script=st.lists(steps, max_size=60))
def test_reads_equal_the_eager_table(bins, script):
    lazy, eager = HashTable(bins), EagerTable(bins)
    linked: list[tuple] = []  # (lazy node, eager node), still in a chain
    addressed: set[int] = set()
    for payload, (action, value) in enumerate(script):
        if action == "insert":
            addressed.add(value % bins)
            linked.append((lazy.bucket(value).append(payload), eager.bucket(value).append(payload)))
        elif action == "lookup":
            addressed.add(value % bins)
            assert len(lazy.bucket(value)) == len(eager.bucket(value))
        elif action == "mark" and linked:
            for node in linked[value % len(linked)]:
                node.owner.mark(node)
        elif action == "unlink" and linked:
            for node in linked.pop(value % len(linked)):
                node.owner.unlink(node)
        elif action == "sweep":
            assert [c.sweep() for c in lazy if c.physical_length] == [
                c.sweep() for c in eager if c.physical_length
            ]
            linked = [pair for pair in linked if pair[0].owner is not None]
        assert lazy.depths() == eager.depths()
        assert lazy.empty_fraction() == eager.empty_fraction()
        assert lazy.total_live() == eager.total_live()
        assert _contents(lazy) == _contents(eager)
        # No chain for a bin nothing has addressed — reads included.
        assert set(lazy._buckets) == addressed


def test_untouched_table_is_all_empty_and_holds_no_chain():
    table = HashTable(128)
    assert table.depths() == [0] * 128
    assert table.empty_fraction() == 1.0
    assert table.total_live() == 0
    assert list(table) == []
    assert not table._buckets


def test_iteration_is_in_bucket_order():
    table = HashTable(8)
    for index in (5, 1, 7):
        table.bucket_at(index).append(index)
    assert [list(chain) for chain in table] == [[1], [5], [7]]


def test_bucket_at_checks_its_range():
    table = HashTable(4)
    assert table.bucket_at(3) is table.bucket(7)
    for index in (4, -1):
        with pytest.raises(IndexError):
            table.bucket_at(index)
    assert set(table._buckets) == {3}

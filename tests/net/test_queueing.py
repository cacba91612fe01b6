"""Unit tests for drop-tail queues and the queue band classifier."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import FlowKey, Packet, PacketQueue, QueueBands


def make_packet(index: int = 0) -> Packet:
    return Packet(FlowKey("10.0.0.1", "10.0.0.2", 1000 + index, 80))


class TestPacketQueue:
    def test_fifo_order(self):
        queue = PacketQueue(capacity=10)
        packets = [make_packet(i) for i in range(3)]
        for packet in packets:
            assert queue.enqueue(packet)
        assert [queue.dequeue() for _ in range(3)] == packets

    def test_capacity_enforced(self):
        queue = PacketQueue(capacity=2)
        assert queue.enqueue(make_packet(0))
        assert queue.enqueue(make_packet(1))
        assert not queue.enqueue(make_packet(2))
        assert queue.dropped == 1
        assert len(queue) == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PacketQueue(capacity=0)

    def test_dequeue_empty(self):
        assert PacketQueue().dequeue() is None

    def test_head_peeks(self):
        queue = PacketQueue()
        packet = make_packet()
        queue.enqueue(packet)
        assert queue.head() is packet
        assert len(queue) == 1

    def test_peak_length_tracked(self):
        queue = PacketQueue(capacity=10)
        for i in range(5):
            queue.enqueue(make_packet(i))
        for _ in range(5):
            queue.dequeue()
        assert queue.peak_length == 5
        assert len(queue) == 0

    def test_sample_records_series(self):
        queue = PacketQueue(name="q")
        queue.enqueue(make_packet())
        assert queue.sample(1.0) == 1
        queue.enqueue(make_packet(1))
        assert queue.sample(2.0) == 2
        assert queue.occupancy.values == [1, 2]

    def test_bytes_queued(self):
        queue = PacketQueue()
        queue.enqueue(Packet(FlowKey("a", "b", 1, 2), size_bytes=500))
        queue.enqueue(Packet(FlowKey("a", "b", 1, 2), size_bytes=700))
        assert queue.bytes_queued() == 1200

    def test_flush_counts_discarded_packets(self):
        queue = PacketQueue(capacity=10)
        for i in range(3):
            queue.enqueue(make_packet(i))
        queue.dequeue()
        queue.flush()
        assert len(queue) == 0
        assert (queue.dequeued, queue.flushed) == (1, 2)
        assert queue.dequeue() is None

    @given(st.lists(st.sampled_from(["enq", "deq", "flush"]), max_size=60))
    def test_accounting_invariant(self, operations):
        """enqueued == dequeued + flushed + len(queue), always; drops
        counted separately; length never exceeds capacity."""
        queue = PacketQueue(capacity=5)
        for op in operations:
            if op == "enq":
                queue.enqueue(make_packet())
            elif op == "deq":
                queue.dequeue()
            else:
                queue.flush()
            assert len(queue) <= queue.capacity
            assert queue.enqueued == queue.dequeued + queue.flushed + len(queue)


class TestQueueBands:
    def test_paper_thresholds(self):
        bands = QueueBands()  # 25 / 75
        assert bands.classify(0) == "low"
        assert bands.classify(24) == "low"
        assert bands.classify(25) == "medium"
        assert bands.classify(75) == "medium"
        assert bands.classify(76) == "high"
        assert bands.classify(150) == "high"

    def test_validation(self):
        with pytest.raises(ValueError):
            QueueBands(low=0, high=10)
        with pytest.raises(ValueError):
            QueueBands(low=50, high=50)

    @given(st.integers(min_value=0, max_value=1000))
    def test_total_classification(self, length):
        assert QueueBands().classify(length) in ("low", "medium", "high")

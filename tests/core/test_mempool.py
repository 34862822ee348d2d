"""Tests for transactions and the mempool."""

from repro.core.mempool import TX_METADATA_BYTES, Transaction, payload_digest
from repro.mempool import PriorityMempool


def test_tx_wire_size_includes_metadata():
    assert Transaction(0, 1, payload_bytes=256).wire_size() == 256 + TX_METADATA_BYTES
    assert Transaction(0, 1, payload_bytes=0).wire_size() == 40  # paper Section 8


def test_payload_digest_depends_on_contents():
    txs1 = (Transaction(0, 1, 0), Transaction(0, 2, 0))
    txs2 = (Transaction(0, 1, 0), Transaction(0, 3, 0))
    assert payload_digest(txs1) != payload_digest(txs2)
    assert payload_digest(txs1) == payload_digest(txs1)


def test_payload_digest_cache_evicts_oldest_half():
    """The digest memo is bounded and the newest tuples stay resident.

    Regression: an unbounded (or wholesale-cleared) memo either grows
    without limit under synthetic open-loop load or drops the hot recent
    tuples a live chain keeps re-hashing.  Overflowing the bound by half
    must shed exactly the oldest half.
    """
    payload_digest.cache_clear()
    bound = payload_digest.cache_info().maxsize
    tuples = [(Transaction(0, i, 0),) for i in range(bound + bound // 2)]
    for txs in tuples:
        payload_digest(txs)
    assert payload_digest.cache_info().currsize == bound
    hits = payload_digest.cache_info().hits
    for txs in tuples[bound // 2:]:  # the newest ``bound`` tuples: all hits
        payload_digest(txs)
    assert payload_digest.cache_info().hits == hits + bound
    misses = payload_digest.cache_info().misses
    payload_digest(tuples[0])  # the oldest was evicted: recomputed
    assert payload_digest.cache_info().misses == misses + 1
    payload_digest.cache_clear()


def test_payload_digest_differs_by_fee():
    assert payload_digest((Transaction(0, 1, 0, fee=1),)) != payload_digest(
        (Transaction(0, 1, 0, fee=2),)
    )


def test_open_loop_blocks_are_full():
    pool = PriorityMempool(payload_bytes=16, block_size=7, open_loop=True)
    block = pool.take_block(now=0.0)
    assert len(block) == 7
    assert all(tx.payload_bytes == 16 for tx in block)


def test_open_loop_synthetic_ids_unique():
    pool = PriorityMempool(payload_bytes=0, block_size=5, open_loop=True)
    ids = [tx.tx_id for tx in pool.take_block(0.0) + pool.take_block(0.0)]
    assert len(set(ids)) == 10


def test_closed_loop_blocks_limited_to_queue():
    pool = PriorityMempool(payload_bytes=0, block_size=5, open_loop=False)
    pool.add(Transaction(1, 1, 0))
    pool.add(Transaction(1, 2, 0))
    block = pool.take_block(0.0)
    assert len(block) == 2
    assert pool.pending() == 0
    assert pool.take_block(0.0) == ()


def test_closed_loop_respects_block_size():
    pool = PriorityMempool(payload_bytes=0, block_size=3, open_loop=False)
    for i in range(10):
        pool.add(Transaction(1, i, 0))
    assert len(pool.take_block(0.0)) == 3
    assert pool.pending() == 7


def test_open_loop_prefers_queued_client_txs():
    pool = PriorityMempool(payload_bytes=0, block_size=3, open_loop=True)
    pool.add(Transaction(7, 99, 0))
    block = pool.take_block(0.0)
    assert block[0].client_id == 7
    assert len(block) == 3

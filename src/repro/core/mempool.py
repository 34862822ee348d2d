"""Client transactions and admission verdicts.

The paper works "at the block level" and leaves transaction internals
abstract (Section 5); the only transaction properties the evaluation
depends on are counts and byte sizes: each transaction carries a payload
plus 40 B of metadata (client id, transaction id, previous-block hash -
Section 8, "Deployment settings").

The replica-side pool lives in :mod:`repro.mempool` (bounded priority
ordering, per-sender rate limiting, watermark backpressure); this module
keeps the core data model the wire codec and block hashing depend on:
the :class:`Transaction` record and the :class:`AdmissionVerdict` a
replica returns to the submitting client.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from repro.crypto.hashing import Hash, hash_fields

#: Metadata bytes per transaction (2 x 4 B ids + 32 B previous-block hash).
TX_METADATA_BYTES = 40


class AdmissionVerdict(enum.Enum):
    """Outcome of submitting a transaction to a replica's mempool.

    Returned to clients inside :class:`repro.core.messages.ClientReply`:
    an ``ACCEPTED`` transaction will (absent faults) eventually execute
    and produce a second, execution-time reply; the other verdicts are
    immediate NACKs telling the client why admission failed.
    """

    ACCEPTED = "accepted"
    RATE_LIMITED = "rate-limited"
    POOL_FULL = "pool-full"
    DUPLICATE = "duplicate"


@dataclass(frozen=True, slots=True)
class Transaction:
    """A client transaction; payload content is abstracted to its size.

    ``fee`` is the client-declared priority: the pool drains higher fees
    first and evicts lower fees first, and a fee of zero (the default,
    and the only value the paper's workloads use) degenerates to FIFO.
    """

    client_id: int
    tx_id: int
    payload_bytes: int
    submitted_at: float = 0.0
    fee: int = 0

    def wire_size(self) -> int:
        """Bytes this transaction occupies inside a block."""
        return self.payload_bytes + TX_METADATA_BYTES

    def digest_fields(self) -> tuple[int, int, int, int]:
        return (self.client_id, self.tx_id, self.payload_bytes, self.fee)


@functools.lru_cache(maxsize=4096)
def payload_digest(transactions: tuple[Transaction, ...]) -> Hash:
    """Digest binding a block to its transaction list.

    Memoized by the (immutable) transaction tuple: the same tuple is
    re-digested whenever a block is reconstructed from the wire or
    re-hashed, and the digest is a pure function of its content.
    """
    return hash_fields(tuple(tx.digest_fields() for tx in transactions))

"""Every memoized hot function agrees with its unmemoized reference.

The memos (vote payloads, payload digests, the per-scheme verification
memo and a block's cached codec bytes) are always on, so instead of
flipping a switch these cases compare each memoized path with the plain
computation it stands for - including after a bounded memo overflowed.
"""

import pytest

from repro.core.block import create_leaf, genesis_block
from repro.core.certificate import QuorumCert, vote_payload
from repro.core.codec import decode_message, encode_message
from repro.core.mempool import Transaction, payload_digest
from repro.core.messages import ProposalMsg
from repro.core.phases import Phase
from repro.crypto.hashing import encode_fields, hash_fields
from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.scheme import Signature
from repro.crypto.schnorr import GROUP_TEST, SchnorrScheme

MESSAGE = b"memo-reference"
BLOCK_HASH = b"\x07" * 32


def _overflow(memo, make_args):
    """Call ``memo`` on one more distinct input than its bound holds."""
    memo.cache_clear()
    for i in range(memo.cache_info().maxsize + 1):
        memo(*make_args(i))
    assert memo.cache_info().currsize == memo.cache_info().maxsize


def case_vote_payload():
    inputs = [(1, Phase.PREPARE, BLOCK_HASH), (7, Phase.COMMIT, b"\x01" * 32)]
    memoized = [vote_payload(*args) for args in inputs]
    _overflow(vote_payload, lambda i: (i, Phase.PREPARE, BLOCK_HASH))
    memoized += [vote_payload(*args) for args in inputs]  # recomputed
    reference = [
        encode_fields(("vote", view, phase.value, block_hash))
        for view, phase, block_hash in inputs
    ] * 2
    vote_payload.cache_clear()
    return memoized, reference


def case_payload_digest():
    inputs = [(Transaction(0, 1, 16),), (Transaction(2, 3, 0, fee=5), Transaction(2, 4, 8))]
    memoized = [payload_digest(txs) for txs in inputs]
    _overflow(payload_digest, lambda i: ((Transaction(9, i, 0),),))
    memoized += [payload_digest(txs) for txs in inputs]  # recomputed
    reference = [hash_fields(tuple(tx.digest_fields() for tx in txs)) for txs in inputs] * 2
    payload_digest.cache_clear()
    return memoized, reference


def _schemes():
    schnorr = SchnorrScheme(GROUP_TEST)
    hmac = HmacScheme(secret=b"memo-reference")
    for scheme in (schnorr, hmac):
        for signer in range(4):
            scheme.keygen(signer)
    return schnorr, hmac


def _verify_case(make_sigs):
    """Memoized verification paths vs ``verify``/``verify_batch``."""
    memoized, reference = [], []
    for scheme in _schemes():
        sigs = make_sigs(scheme)
        pairs = [(MESSAGE, sig) for sig in sigs]
        distinct = len({sig.signer for sig in sigs}) == len(sigs)
        # Twice: the second pass is served from the memo.
        for _ in range(2):
            memoized.append(
                (
                    [scheme.verify_cached(MESSAGE, sig) for sig in sigs],
                    scheme.verify_many_cached(pairs),
                    scheme.verify_all(MESSAGE, sigs),
                )
            )
            loop = [scheme.verify(MESSAGE, sig) for sig in sigs]
            reference.append(
                (loop, loop, distinct and scheme.verify_batch(MESSAGE, sigs))
            )
    return memoized, reference


def case_verify_valid():
    return _verify_case(lambda s: [s.sign(signer, MESSAGE) for signer in range(4)])


def case_verify_forged():
    def forged(scheme):
        sigs = [scheme.sign(signer, MESSAGE) for signer in range(4)]
        sigs[2] = Signature(2, sigs[3].data, sigs[2].scheme)  # signer 3's bytes
        return sigs

    return _verify_case(forged)


def case_verify_duplicate_signer():
    def duplicated(scheme):
        sig = scheme.sign(1, MESSAGE)
        return [scheme.sign(0, MESSAGE), sig, sig]

    return _verify_case(duplicated)


def case_block_codec_bytes():
    txs = tuple(Transaction(client_id=1, tx_id=i, payload_bytes=32) for i in range(5))
    block = create_leaf(genesis_block().hash, 1, txs)
    scheme = HmacScheme(secret=b"memo-codec")
    scheme.keygen(0)
    qc = QuorumCert(1, block.hash, Phase.PREPARE, (scheme.sign(0, MESSAGE),))
    msg = ProposalMsg(1, block, qc)
    first = encode_message(msg)
    assert block._codec_bytes  # the encoding was cached on the block
    second = encode_message(msg)  # served from the cached bytes
    fresh = create_leaf(genesis_block().hash, 1, txs)  # nothing cached yet
    reference = encode_message(ProposalMsg(1, fresh, qc))
    decoded = decode_message(second)
    return [first, second, decoded, decoded.block.hash], [reference, reference, msg, block.hash]


CASES = {
    "vote_payload": case_vote_payload,
    "payload_digest": case_payload_digest,
    "verify_valid": case_verify_valid,
    "verify_forged": case_verify_forged,
    "verify_duplicate_signer": case_verify_duplicate_signer,
    "block_codec_bytes": case_block_codec_bytes,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_memo_matches_reference(case):
    memoized, reference = CASES[case]()
    assert memoized == reference

"""Byte-level wire codec for all protocol messages.

The simulator never *needs* serialized bytes (payloads travel as Python
objects), but a production system does, and the byte accounting the
benchmarks rely on should be honest.  This module provides a complete
encoder/decoder for every message type; the test suite round-trips every
message and checks that the declared ``wire_size()`` tracks the real
encoded length.

Format: little-endian fixed-width integers, length-prefixed variable
fields, one leading type tag per message.  Transaction payloads are
zero-filled to their declared size (their content is abstract, Section 5,
but their bytes must exist on a real wire).

The encoder writes into one preallocated, doubling ``bytearray`` through
precompiled :class:`struct.Struct` instances (``pack_into``), and the
decoder reads with ``unpack_from`` against a single position cursor - no
per-field bytes objects on either side.  Every malformed-input failure
surfaces as :class:`CodecError`; ``struct.error``/``IndexError``/
``UnicodeDecodeError`` never escape this module.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Protocol, runtime_checkable

from repro.crypto.hashing import HASH_SIZE, Hash
from repro.crypto.scheme import Signature
from repro.errors import ProtocolError
from repro.core.block import Block
from repro.core.certificate import Accumulator, QuorumCert
from repro.core.commitment import Commitment
from repro.core.mempool import AdmissionVerdict, Transaction
from repro.core.messages import (
    BlockProposal,
    BlockRequest,
    BlockResponse,
    ChainedProposal,
    ClientReply,
    ClientRequest,
    CommitmentMsg,
    NewViewAMsg,
    NewViewMsg,
    ProposalAMsg,
    ProposalMsg,
    QCMsg,
    VoteMsg,
)
from repro.core.phases import Phase


#: Wire-format generation.  Version 2 added the transaction ``fee``
#: field and the admission verdict byte in client replies; peers
#: announce their version in the connection hello
#: (:mod:`repro.runtime.framing`) and mismatched generations are
#: refused at connect time rather than misparsed mid-stream.
WIRE_VERSION = 2


class CodecError(ProtocolError):
    """Malformed bytes on the wire."""


@runtime_checkable
class Serializer(Protocol):
    """Anything that turns messages into bytes and back (snippet-3 shape).

    The runtimes depend on this protocol rather than on the module
    functions, so tests and alternative wire formats can substitute their
    own implementation.
    """

    def serialize(self, msg: Any) -> bytes: ...

    def deserialize(self, data: bytes) -> Any: ...


# Precompiled wire-primitive structs: compiling the format string once
# and using pack_into/unpack_from avoids both the format-cache lookup and
# the per-field bytes object of struct.pack/unpack.
_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class Encoder:
    """Append-only byte writer over one preallocated, doubling buffer."""

    __slots__ = ("_buf", "_pos")

    def __init__(self, reserve: int = 256) -> None:
        self._buf = bytearray(reserve if reserve > 16 else 16)
        self._pos = 0

    def _ensure(self, need: int) -> None:
        buf = self._buf
        shortfall = self._pos + need - len(buf)
        if shortfall > 0:
            # Grow at least geometrically; the extension is zero-filled,
            # which pad() below relies on.
            buf.extend(b"\x00" * (shortfall if shortfall > len(buf) else len(buf)))

    def bytes(self) -> bytes:
        return bytes(memoryview(self._buf)[: self._pos])

    def u8(self, value: int) -> "Encoder":
        self._ensure(1)
        try:
            _U8.pack_into(self._buf, self._pos, value)
        except struct.error as exc:
            raise CodecError(f"u8 out of range: {value}") from exc
        self._pos += 1
        return self

    def u32(self, value: int) -> "Encoder":
        self._ensure(4)
        try:
            _U32.pack_into(self._buf, self._pos, value)
        except struct.error as exc:
            raise CodecError(f"u32 out of range: {value}") from exc
        self._pos += 4
        return self

    def i64(self, value: int) -> "Encoder":
        self._ensure(8)
        try:
            _I64.pack_into(self._buf, self._pos, value)
        except struct.error as exc:
            raise CodecError(f"i64 out of range: {value}") from exc
        self._pos += 8
        return self

    def f64(self, value: float) -> "Encoder":
        self._ensure(8)
        _F64.pack_into(self._buf, self._pos, value)
        self._pos += 8
        return self

    def raw(self, data: bytes) -> "Encoder":
        n = len(data)
        self._ensure(n)
        pos = self._pos
        self._buf[pos : pos + n] = data
        self._pos = pos + n
        return self

    def pad(self, n: int) -> "Encoder":
        """Append ``n`` zero bytes without materializing them.

        The buffer region past the cursor is always zero (fresh
        allocations and growth extensions are zero-filled, and the cursor
        never moves backwards), so skipping ahead *is* writing zeros.
        """
        self._ensure(n)
        self._pos += n
        return self

    def var_bytes(self, data: bytes) -> "Encoder":
        n = len(data)
        self._ensure(4 + n)
        pos = self._pos
        buf = self._buf
        _U32.pack_into(buf, pos, n)
        buf[pos + 4 : pos + 4 + n] = data
        self._pos = pos + 4 + n
        return self

    def hash32(self, value: Hash) -> "Encoder":
        if len(value) != HASH_SIZE:
            raise CodecError(f"hash must be {HASH_SIZE} bytes")
        return self.raw(value)

    def opt(self, value: Any, write: Callable[[Any], Any]) -> "Encoder":
        if value is None:
            self.u8(0)
        else:
            self.u8(1)
            write(value)
        return self

    def string(self, value: str) -> "Encoder":
        return self.var_bytes(value.encode())

    def patch_u32(self, offset: int, value: int) -> "Encoder":
        """Overwrite a previously written u32 (frame-header back-patching)."""
        if offset + 4 > self._pos:
            raise CodecError("patch offset past the write cursor")
        _U32.pack_into(self._buf, offset, value)
        return self


class Decoder:
    """Bounds-checked byte reader: one cursor, ``unpack_from``, no slices
    except for variable-length payloads the caller keeps."""

    __slots__ = ("_data", "_len", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._len = len(data)

    def _take(self, n: int) -> bytes:
        pos = self._pos
        end = pos + n
        if end > self._len:
            raise CodecError("truncated message")
        self._pos = end
        return self._data[pos:end]

    def skip(self, n: int) -> None:
        """Advance past ``n`` bytes without materializing them."""
        end = self._pos + n
        if end > self._len:
            raise CodecError("truncated message")
        self._pos = end

    def done(self) -> bool:
        return self._pos == self._len

    def expect_done(self) -> None:
        if not self.done():
            raise CodecError(f"{self._len - self._pos} trailing bytes")

    def u8(self) -> int:
        pos = self._pos
        if pos >= self._len:
            raise CodecError("truncated message")
        self._pos = pos + 1
        return self._data[pos]

    def u32(self) -> int:
        pos = self._pos
        if pos + 4 > self._len:
            raise CodecError("truncated message")
        self._pos = pos + 4
        return int(_U32.unpack_from(self._data, pos)[0])

    def i64(self) -> int:
        pos = self._pos
        if pos + 8 > self._len:
            raise CodecError("truncated message")
        self._pos = pos + 8
        return int(_I64.unpack_from(self._data, pos)[0])

    def f64(self) -> float:
        pos = self._pos
        if pos + 8 > self._len:
            raise CodecError("truncated message")
        self._pos = pos + 8
        return float(_F64.unpack_from(self._data, pos)[0])

    def var_bytes(self) -> bytes:
        return self._take(self.u32())

    def hash32(self) -> Hash:
        return self._take(HASH_SIZE)

    def opt(self, read: Callable[[], Any]) -> Any:
        return read() if self.u8() else None

    def string(self) -> str:
        raw = self.var_bytes()
        try:
            return raw.decode()
        except UnicodeDecodeError as exc:
            raise CodecError("invalid utf-8 in string field") from exc


# -- component codecs ----------------------------------------------------------

_PHASES = list(Phase)


def _enc_phase(enc: Encoder, phase: Phase) -> None:
    enc.u8(_PHASES.index(phase))


def _dec_phase(dec: Decoder) -> Phase:
    idx = dec.u8()
    if idx >= len(_PHASES):
        raise CodecError("unknown phase tag")
    return _PHASES[idx]


def _enc_signature(enc: Encoder, sig: Signature) -> None:
    enc.i64(sig.signer)
    enc.var_bytes(sig.data)
    enc.string(sig.scheme)


def _dec_signature(dec: Decoder) -> Signature:
    return Signature(signer=dec.i64(), data=dec.var_bytes(), scheme=dec.string())


def _enc_sig_list(enc: Encoder, sigs: tuple[Signature, ...]) -> None:
    enc.u32(len(sigs))
    for sig in sigs:
        _enc_signature(enc, sig)


def _dec_sig_list(dec: Decoder) -> tuple[Signature, ...]:
    return tuple(_dec_signature(dec) for _ in range(dec.u32()))


def _enc_transaction(enc: Encoder, tx: Transaction) -> None:
    enc.i64(tx.client_id)
    enc.i64(tx.tx_id)
    enc.u32(tx.payload_bytes)
    enc.f64(tx.submitted_at)
    enc.i64(tx.fee)
    enc.pad(tx.payload_bytes)  # abstract payload, real (zero) bytes


def _dec_transaction(dec: Decoder) -> Transaction:
    client_id = dec.i64()
    tx_id = dec.i64()
    payload_bytes = dec.u32()
    submitted_at = dec.f64()
    fee = dec.i64()
    dec.skip(payload_bytes)  # discard the abstract payload
    return Transaction(client_id, tx_id, payload_bytes, submitted_at, fee)


_VERDICTS = list(AdmissionVerdict)


def _enc_verdict(enc: Encoder, verdict: AdmissionVerdict) -> None:
    enc.u8(_VERDICTS.index(verdict))


def _dec_verdict(dec: Decoder) -> AdmissionVerdict:
    idx = dec.u8()
    if idx >= len(_VERDICTS):
        raise CodecError(f"unknown admission verdict {idx}")
    return _VERDICTS[idx]


def _enc_qc(enc: Encoder, qc: QuorumCert) -> None:
    enc.i64(qc.view)
    enc.hash32(qc.block_hash)
    _enc_phase(enc, qc.phase)
    enc.u8(1 if qc.is_genesis else 0)
    _enc_sig_list(enc, qc.sigs)


def _dec_qc(dec: Decoder) -> QuorumCert:
    return QuorumCert(
        view=dec.i64(),
        block_hash=dec.hash32(),
        phase=_dec_phase(dec),
        is_genesis=bool(dec.u8()),
        sigs=_dec_sig_list(dec),
    )


def _enc_accumulator(enc: Encoder, acc: Accumulator) -> None:
    enc.i64(acc.made_in_view)
    enc.i64(acc.prep_view)
    enc.hash32(acc.prep_hash)
    _enc_signature(enc, acc.signature)
    if acc.finalized:
        enc.u8(1)
        enc.u32(acc.count or 0)
    else:
        enc.u8(0)
        ids = acc.ids or ()
        enc.u32(len(ids))
        for node_id in ids:
            enc.i64(node_id)


def _dec_accumulator(dec: Decoder) -> Accumulator:
    made_in_view = dec.i64()
    prep_view = dec.i64()
    prep_hash = dec.hash32()
    signature = _dec_signature(dec)
    if dec.u8():
        return Accumulator(made_in_view, prep_view, prep_hash, signature, count=dec.u32())
    ids = tuple(dec.i64() for _ in range(dec.u32()))
    return Accumulator(made_in_view, prep_view, prep_hash, signature, ids=ids)


def _enc_commitment(enc: Encoder, phi: Commitment) -> None:
    enc.opt(phi.h_prep, enc.hash32)
    enc.i64(phi.v_prep)
    enc.opt(phi.h_just, enc.hash32)
    enc.opt(phi.v_just, enc.i64)
    _enc_phase(enc, phi.phase)
    _enc_sig_list(enc, phi.sigs)


def _dec_commitment(dec: Decoder) -> Commitment:
    return Commitment(
        h_prep=dec.opt(dec.hash32),
        v_prep=dec.i64(),
        h_just=dec.opt(dec.hash32),
        v_just=dec.opt(dec.i64),
        phase=_dec_phase(dec),
        sigs=_dec_sig_list(dec),
    )


# Justification kinds inside a block.
_JUST_NONE, _JUST_QC, _JUST_ACC, _JUST_COMMIT = range(4)


def _enc_block(enc: Encoder, block: Block) -> None:
    """Encode a block, memoizing the bytes on the (immutable) block object.

    The same block body is re-encoded for every peer a proposal is sent
    to and for every block-sync response; the encoding is a pure function
    of the block's content, so caching it on the object is invisible on
    the wire.
    """
    cached = block._codec_bytes
    if not cached:
        sub = Encoder()
        _enc_block_fields(sub, block)
        cached = sub.bytes()
        object.__setattr__(block, "_codec_bytes", cached)
    enc.raw(cached)


def _enc_block_fields(enc: Encoder, block: Block) -> None:
    enc.hash32(block.parent_hash)
    enc.i64(block.view)
    enc.u8(1 if block.is_genesis else 0)
    enc.u8(1 if block.is_blank else 0)
    enc.f64(block.created_at)
    enc.u32(len(block.transactions))
    for tx in block.transactions:
        _enc_transaction(enc, tx)
    justify = block.justify
    if justify is None:
        enc.u8(_JUST_NONE)
    elif isinstance(justify, QuorumCert):
        enc.u8(_JUST_QC)
        _enc_qc(enc, justify)
    elif isinstance(justify, Accumulator):
        enc.u8(_JUST_ACC)
        _enc_accumulator(enc, justify)
    elif isinstance(justify, Commitment):
        enc.u8(_JUST_COMMIT)
        _enc_commitment(enc, justify)
    else:  # pragma: no cover - exhaustive over certificate kinds
        raise CodecError(f"unknown justification {type(justify).__name__}")


def _dec_block(dec: Decoder) -> Block:
    parent_hash = dec.hash32()
    view = dec.i64()
    is_genesis = bool(dec.u8())
    is_blank = bool(dec.u8())
    created_at = dec.f64()
    transactions = tuple(_dec_transaction(dec) for _ in range(dec.u32()))
    kind = dec.u8()
    justify: QuorumCert | Accumulator | Commitment | None
    if kind == _JUST_NONE:
        justify = None
    elif kind == _JUST_QC:
        justify = _dec_qc(dec)
    elif kind == _JUST_ACC:
        justify = _dec_accumulator(dec)
    elif kind == _JUST_COMMIT:
        justify = _dec_commitment(dec)
    else:
        raise CodecError("unknown justification tag")
    return Block(
        parent_hash=parent_hash,
        view=view,
        transactions=transactions,
        justify=justify,
        is_genesis=is_genesis,
        is_blank=is_blank,
        created_at=created_at,
    )


# -- message codecs (type tag + body) ----------------------------------------------

def _enc_new_view(enc: Encoder, msg: NewViewMsg) -> None:
    enc.i64(msg.view)
    _enc_qc(enc, msg.justify)


def _dec_new_view(dec: Decoder) -> NewViewMsg:
    return NewViewMsg(view=dec.i64(), justify=_dec_qc(dec))


def _enc_new_view_a(enc: Encoder, msg: NewViewAMsg) -> None:
    enc.i64(msg.view)
    _enc_qc(enc, msg.justify)
    _enc_signature(enc, msg.sender_sig)


def _dec_new_view_a(dec: Decoder) -> NewViewAMsg:
    return NewViewAMsg(dec.i64(), _dec_qc(dec), _dec_signature(dec))


def _enc_proposal(enc: Encoder, msg: ProposalMsg) -> None:
    enc.i64(msg.view)
    _enc_block(enc, msg.block)
    _enc_qc(enc, msg.justify)


def _dec_proposal(dec: Decoder) -> ProposalMsg:
    return ProposalMsg(dec.i64(), _dec_block(dec), _dec_qc(dec))


def _enc_proposal_a(enc: Encoder, msg: ProposalAMsg) -> None:
    enc.i64(msg.view)
    _enc_block(enc, msg.block)
    _enc_accumulator(enc, msg.acc)
    _enc_signature(enc, msg.leader_sig)


def _dec_proposal_a(dec: Decoder) -> ProposalAMsg:
    return ProposalAMsg(dec.i64(), _dec_block(dec), _dec_accumulator(dec), _dec_signature(dec))


def _enc_vote(enc: Encoder, msg: VoteMsg) -> None:
    enc.i64(msg.view)
    _enc_phase(enc, msg.phase)
    enc.hash32(msg.block_hash)
    _enc_signature(enc, msg.sig)


def _dec_vote(dec: Decoder) -> VoteMsg:
    return VoteMsg(dec.i64(), _dec_phase(dec), dec.hash32(), _dec_signature(dec))


def _enc_qc_msg(enc: Encoder, msg: QCMsg) -> None:
    enc.i64(msg.view)
    _enc_phase(enc, msg.phase)
    _enc_qc(enc, msg.qc)


def _dec_qc_msg(dec: Decoder) -> QCMsg:
    return QCMsg(dec.i64(), _dec_phase(dec), _dec_qc(dec))


def _enc_commitment_msg(enc: Encoder, msg: CommitmentMsg) -> None:
    enc.string(msg.kind)
    _enc_commitment(enc, msg.commitment)


def _dec_commitment_msg(dec: Decoder) -> CommitmentMsg:
    kind = dec.string()
    return CommitmentMsg(_dec_commitment(dec), kind)


def _enc_block_proposal(enc: Encoder, msg: BlockProposal) -> None:
    enc.i64(msg.view)
    _enc_block(enc, msg.block)
    enc.opt(msg.acc, lambda acc: _enc_accumulator(enc, acc))
    _enc_signature(enc, msg.leader_sig)
    enc.opt(msg.justify_commitment, lambda phi: _enc_commitment(enc, phi))


def _dec_block_proposal(dec: Decoder) -> BlockProposal:
    return BlockProposal(
        view=dec.i64(),
        block=_dec_block(dec),
        acc=dec.opt(lambda: _dec_accumulator(dec)),
        leader_sig=_dec_signature(dec),
        justify_commitment=dec.opt(lambda: _dec_commitment(dec)),
    )


def _enc_chained_proposal(enc: Encoder, msg: ChainedProposal) -> None:
    enc.i64(msg.view)
    _enc_block(enc, msg.block)
    _enc_signature(enc, msg.leader_sig)


def _dec_chained_proposal(dec: Decoder) -> ChainedProposal:
    return ChainedProposal(dec.i64(), _dec_block(dec), _dec_signature(dec))


def _enc_block_request(enc: Encoder, msg: BlockRequest) -> None:
    enc.hash32(msg.block_hash)


def _dec_block_request(dec: Decoder) -> BlockRequest:
    return BlockRequest(dec.hash32())


def _enc_block_response(enc: Encoder, msg: BlockResponse) -> None:
    _enc_block(enc, msg.block)


def _dec_block_response(dec: Decoder) -> BlockResponse:
    return BlockResponse(_dec_block(dec))


def _enc_client_request(enc: Encoder, msg: ClientRequest) -> None:
    enc.i64(msg.client_id)
    _enc_transaction(enc, msg.tx)


def _dec_client_request(dec: Decoder) -> ClientRequest:
    return ClientRequest(dec.i64(), _dec_transaction(dec))


def _enc_client_reply(enc: Encoder, msg: ClientReply) -> None:
    enc.i64(msg.replica)
    enc.i64(msg.client_id)
    enc.i64(msg.tx_id)
    enc.f64(msg.executed_at)
    _enc_verdict(enc, msg.verdict)


def _dec_client_reply(dec: Decoder) -> ClientReply:
    return ClientReply(dec.i64(), dec.i64(), dec.i64(), dec.f64(), _dec_verdict(dec))


def _enc_chained_vote(enc: Encoder, msg: Any) -> None:
    enc.i64(msg.view)
    enc.opt(msg.prep, lambda phi: _enc_commitment(enc, phi))
    _enc_commitment(enc, msg.nv)


def _dec_chained_vote(dec: Decoder) -> Any:
    from repro.protocols.chained_damysus import ChainedVote

    return ChainedVote(
        view=dec.i64(),
        prep=dec.opt(lambda: _dec_commitment(dec)),
        nv=_dec_commitment(dec),
    )


def _enc_fast_proposal(enc: Encoder, msg: Any) -> None:
    enc.i64(msg.view)
    _enc_block(enc, msg.block)
    _enc_qc(enc, msg.justify)
    if msg.proof is None:
        enc.u8(0)
    else:
        enc.u8(1)
        enc.u32(len(msg.proof))
        for report in msg.proof:
            _enc_new_view_a(enc, report)


def _dec_fast_proposal(dec: Decoder) -> Any:
    from repro.protocols.fast_hotstuff import FastProposal

    view = dec.i64()
    block = _dec_block(dec)
    justify = _dec_qc(dec)
    proof = None
    if dec.u8():
        proof = tuple(_dec_new_view_a(dec) for _ in range(dec.u32()))
    return FastProposal(view, block, justify, proof)


def _enc_checkpoint(enc: Encoder, ckpt: Any) -> None:
    enc.i64(ckpt.replica)
    enc.i64(ckpt.counter)
    enc.i64(ckpt.height)
    enc.i64(ckpt.view)
    enc.hash32(ckpt.block_hash)
    enc.hash32(ckpt.state_root)
    _enc_commitment(enc, ckpt.qc)
    _enc_signature(enc, ckpt.signature)


def _dec_checkpoint(dec: Decoder) -> Any:
    from repro.tee.checkpoint import Checkpoint

    return Checkpoint(
        replica=dec.i64(),
        counter=dec.i64(),
        height=dec.i64(),
        view=dec.i64(),
        block_hash=dec.hash32(),
        state_root=dec.hash32(),
        qc=_dec_commitment(dec),
        signature=_dec_signature(dec),
    )


def _enc_sync_request(enc: Encoder, msg: Any) -> None:
    enc.i64(msg.have_height)
    enc.i64(msg.have_view)


def _dec_sync_request(dec: Decoder) -> Any:
    from repro.protocols.sync import SyncRequest

    return SyncRequest(dec.i64(), dec.i64())


def _enc_sync_checkpoint(enc: Encoder, msg: Any) -> None:
    _enc_checkpoint(enc, msg.checkpoint)


def _dec_sync_checkpoint(dec: Decoder) -> Any:
    from repro.protocols.sync import SyncCheckpoint

    return SyncCheckpoint(_dec_checkpoint(dec))


def _enc_sync_blocks(enc: Encoder, msg: Any) -> None:
    enc.i64(msg.start_height)
    enc.u8(1 if msg.done else 0)
    enc.opt(msg.tip_qc, lambda qc: _enc_commitment(enc, qc))
    enc.u32(len(msg.blocks))
    for block in msg.blocks:
        _enc_block(enc, block)


def _dec_sync_blocks(dec: Decoder) -> Any:
    from repro.protocols.sync import SyncBlocks

    start_height = dec.i64()
    done = bool(dec.u8())
    tip_qc = dec.opt(lambda: _dec_commitment(dec))
    blocks = tuple(_dec_block(dec) for _ in range(dec.u32()))
    return SyncBlocks(start_height, blocks, done, tip_qc)


def _registry() -> list[tuple[type[Any], Callable[..., None], Callable[..., Any]]]:
    from repro.protocols.chained_damysus import ChainedVote
    from repro.protocols.fast_hotstuff import FastProposal
    from repro.protocols.sync import SyncBlocks, SyncCheckpoint, SyncRequest

    return [
        (NewViewMsg, _enc_new_view, _dec_new_view),
        (NewViewAMsg, _enc_new_view_a, _dec_new_view_a),
        (ProposalMsg, _enc_proposal, _dec_proposal),
        (ProposalAMsg, _enc_proposal_a, _dec_proposal_a),
        (VoteMsg, _enc_vote, _dec_vote),
        (QCMsg, _enc_qc_msg, _dec_qc_msg),
        (CommitmentMsg, _enc_commitment_msg, _dec_commitment_msg),
        (BlockProposal, _enc_block_proposal, _dec_block_proposal),
        (ChainedProposal, _enc_chained_proposal, _dec_chained_proposal),
        (ChainedVote, _enc_chained_vote, _dec_chained_vote),
        (FastProposal, _enc_fast_proposal, _dec_fast_proposal),
        (BlockRequest, _enc_block_request, _dec_block_request),
        (BlockResponse, _enc_block_response, _dec_block_response),
        (ClientRequest, _enc_client_request, _dec_client_request),
        (ClientReply, _enc_client_reply, _dec_client_reply),
        (SyncRequest, _enc_sync_request, _dec_sync_request),
        (SyncCheckpoint, _enc_sync_checkpoint, _dec_sync_checkpoint),
        (SyncBlocks, _enc_sync_blocks, _dec_sync_blocks),
    ]


_BY_TYPE: dict[type[Any], tuple[int, Callable[..., None]]] = {}
_BY_TAG: dict[int, Callable[..., Any]] = {}


def _ensure_tables() -> None:
    if _BY_TYPE:
        return
    for tag, (cls, enc_fn, dec_fn) in enumerate(_registry()):
        _BY_TYPE[cls] = (tag, enc_fn)
        _BY_TAG[tag] = dec_fn


def _reserve_for(msg: Any) -> int:
    """Initial encoder buffer size: the declared wire size plus slack.

    ``wire_size()`` tracks the real encoding closely (the test suite
    enforces it), so one allocation usually covers the whole message.
    """
    return wire_size_of(msg) + 128


def encode_message(msg: Any) -> bytes:
    """Serialize any protocol message to bytes (leading type tag)."""
    _ensure_tables()
    entry = _BY_TYPE.get(type(msg))
    if entry is None:
        raise CodecError(f"no codec for {type(msg).__name__}")
    tag, enc_fn = entry
    enc = Encoder(reserve=_reserve_for(msg))
    enc.u8(tag)
    enc_fn(enc, msg)
    return enc.bytes()


def encode_message_framed(msg: Any) -> bytes:
    """Length-prefixed frame: u32-le body length, then tag + body.

    Header and bulk share one encoder buffer - the 4-byte header is
    reserved up front and back-patched once the body length is known, so
    framing a message never concatenates two large byte strings.
    """
    _ensure_tables()
    entry = _BY_TYPE.get(type(msg))
    if entry is None:
        raise CodecError(f"no codec for {type(msg).__name__}")
    tag, enc_fn = entry
    enc = Encoder(reserve=_reserve_for(msg) + 4)
    enc.u32(0)  # header placeholder
    enc.u8(tag)
    enc_fn(enc, msg)
    enc.patch_u32(0, enc._pos - 4)
    return enc.bytes()


def decode_message(data: bytes) -> Any:
    """Parse bytes produced by :func:`encode_message`."""
    _ensure_tables()
    dec = Decoder(data)
    tag = dec.u8()
    dec_fn = _BY_TAG.get(tag)
    if dec_fn is None:
        raise CodecError(f"unknown message tag {tag}")
    msg = dec_fn(dec)
    dec.expect_done()
    return msg


def encode_checkpoint(ckpt: Any) -> bytes:
    """Serialize a certified checkpoint standalone (no message tag).

    Used by the durable seal store, which persists the latest certified
    checkpoint next to the sealed checker snapshot.
    """
    enc = Encoder()
    _enc_checkpoint(enc, ckpt)
    return enc.bytes()


def decode_checkpoint(data: bytes) -> Any:
    """Parse bytes produced by :func:`encode_checkpoint`."""
    dec = Decoder(data)
    ckpt = _dec_checkpoint(dec)
    dec.expect_done()
    return ckpt


class MessageSerializer:
    """The default :class:`Serializer`: tag-dispatched binary codec."""

    def serialize(self, msg: Any) -> bytes:
        return encode_message(msg)

    def deserialize(self, data: bytes) -> Any:
        return decode_message(data)


def wire_size_of(payload: Any) -> int:
    """Best-effort wire size of a payload in bytes.

    Protocol messages implement ``wire_size()``; other payloads (test
    strings, tuples...) fall back to a small constant so unit tests do not
    need size plumbing.
    """
    sizer = getattr(payload, "wire_size", None)
    if callable(sizer):
        return int(sizer())
    return 64


def msg_type_of(payload: Any) -> str:
    """Message-type label used for per-type accounting."""
    label = getattr(payload, "msg_type", None)
    if isinstance(label, str):
        return label
    return type(payload).__name__

"""Open-loop request generator for ``tcp-open-loop`` (one process, one thread).

Precomputes a seeded Poisson schedule of due times at one aggregate rate,
then sends every overdue request at once, so a busy machine makes the
generator late instead of lowering the offered rate.  Each request is
timed from its *due* time to its first ACCEPTED execution reply; the
generator also reports how late it ran.

Logical senders are multiplexed over one connection per replica, and
every request goes to every replica (the paper's client model).  Replies
come back over connections the replicas open to this process's server,
exactly as they would to any client process.

Protocol with the cluster process, one JSON object per line:

* gen -> cluster ``{"port": P}`` once its reply server is bound;
* cluster -> gen ``{"replicas": [[host, port], ...]}``;
* gen -> cluster ``{"connected": true}``;
* cluster -> gen ``{"go": T0}`` (monotonic seconds the schedule starts at);
* gen -> cluster the result object, then exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from typing import Any

from common import OUT_DIR, emit, percentile, use_library

#: Transport pid the cluster routes replies for every logical sender to.
GEN_PID = 3
#: Outstanding-request samples per second, for the backlog check.
BACKLOG_SAMPLE_S = 0.05


def schedule(seed: int, rate: float, duration_s: float) -> list[float]:
    """Due offsets (seconds) of a seeded Poisson arrival process, in order."""
    rng = random.Random(f"{seed}:{rate}")
    due: list[float] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        due.append(t)
        t += rng.expovariate(rate)
    return due


class Generator:
    def __init__(self, args: argparse.Namespace) -> None:
        from repro.core.codec import decode_message, encode_message
        from repro.core.mempool import AdmissionVerdict, Transaction
        from repro.core.messages import ClientReply, ClientRequest
        from repro.runtime.framing import FrameDecoder, decode_hello, encode_frame, encode_hello

        self.args = args
        self.plan = schedule(args.seed, args.rate, args.phase_s)
        self.senders = args.senders
        self._encode = encode_message
        self._decode = decode_message
        self._frame = encode_frame
        self._hello = encode_hello
        self._decode_hello = decode_hello
        self._decoder_cls = FrameDecoder
        self._tx = Transaction
        self._request = ClientRequest
        self._reply = ClientReply
        self._accepted = AdmissionVerdict.ACCEPTED
        n = len(self.plan)
        self.due = [0.0] * n
        self.sent_at = [0.0] * n
        self.done_at: list[float | None] = [None] * n
        self.nacks: list[set[int]] = [set() for _ in range(n)]
        self.failed = [False] * n
        self.unknown_accepted = 0
        self.replies = 0
        self.sent = 0
        self.outstanding = 0
        self.backlog: list[tuple[float, int]] = []
        self.writers: list[asyncio.StreamWriter] = []
        self.readers: set[asyncio.Task[None]] = set()
        self.replica_count = 0

    def key_of(self, index: int) -> tuple[int, int]:
        return index % self.senders, index // self.senders

    def index_of(self, client_id: int, tx_id: int) -> int:
        index = tx_id * self.senders + client_id
        if not 0 <= client_id < self.senders or not 0 <= index < len(self.plan):
            return -1
        return index

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self.readers.add(task)
        decoder = self._decoder_cls()
        sender: int | None = None
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    break
                now = time.monotonic()
                for frame in decoder.feed(data):
                    if sender is None:
                        sender = self._decode_hello(frame)
                        continue
                    self.on_reply(sender, self._decode(frame), now)
        except (OSError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self.readers.discard(task)
            writer.close()

    def on_reply(self, sender: int, reply: Any, now: float) -> None:
        if not isinstance(reply, self._reply):
            return
        self.replies += 1
        index = self.index_of(reply.client_id, reply.tx_id)
        if index < 0 or self.sent_at[index] == 0.0:
            if reply.verdict is self._accepted:
                self.unknown_accepted += 1
            return
        if self.done_at[index] is not None or self.failed[index]:
            return
        if reply.verdict is self._accepted:
            self.done_at[index] = now
            self.outstanding -= 1
            return
        self.nacks[index].add(sender)
        if len(self.nacks[index]) >= self.replica_count:
            self.failed[index] = True
            self.outstanding -= 1

    async def run(self) -> dict[str, Any] | None:
        server = await asyncio.start_server(self.handle, "127.0.0.1", 0)
        emit({"port": server.sockets[0].getsockname()[1]})
        loop = asyncio.get_running_loop()
        stdin = asyncio.StreamReader()
        await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
        replicas = json.loads(await stdin.readline())["replicas"]
        self.replica_count = len(replicas)
        for host, port in replicas:
            _reader, writer = await asyncio.open_connection(host, port)
            writer.write(self._hello(GEN_PID))
            self.writers.append(writer)
        emit({"connected": True})
        go = await stdin.readline()
        if not go:
            # Set-up-only run: the cluster closed the pipe instead of "go".
            for writer in self.writers:
                writer.close()
            server.close()
            return None
        t0 = float(json.loads(go)["go"])
        try:
            await self.send_all(t0)
            await self.drain(t0)
        finally:
            for writer in self.writers:
                writer.close()
            server.close()
            for task in list(self.readers):
                task.cancel()
            await asyncio.gather(*self.readers, return_exceptions=True)
        return self.report()

    async def send_all(self, t0: float) -> None:
        plan = self.plan
        next_sample = t0
        i = 0
        while i < len(plan):
            now = time.monotonic()
            frames = []
            while i < len(plan) and t0 + plan[i] <= now:
                due = t0 + plan[i]
                client_id, tx_id = self.key_of(i)
                tx = self._tx(client_id, tx_id, self.args.payload, due * 1000.0, 0)
                frames.append(self._frame(self._encode(self._request(client_id, tx))))
                self.due[i] = due
                self.sent_at[i] = now
                self.outstanding += 1
                i += 1
            if frames:
                blob = b"".join(frames)
                for writer in self.writers:
                    writer.write(blob)
                self.sent += len(frames)
            if now >= next_sample:
                self.backlog.append((now - t0, self.outstanding))
                next_sample += BACKLOG_SAMPLE_S
            wait = (t0 + plan[i]) - time.monotonic() if i < len(plan) else 0.0
            await asyncio.sleep(max(wait, 0.0))
            for writer in self.writers:
                if writer.transport.get_write_buffer_size() > 1 << 20:
                    await writer.drain()

    async def drain(self, t0: float) -> None:
        end = t0 + self.args.phase_s + self.args.drain_s
        while time.monotonic() < end and self.outstanding > 0:
            await asyncio.sleep(0.02)

    def report(self) -> dict[str, Any]:
        late_ms = [(s - d) * 1000.0 for s, d in zip(self.sent_at, self.due)]
        # Failures (NACKed by every replica, or unanswered after the drain)
        # count as missing any latency limit.
        latencies = [
            float("inf") if done is None else (done - due) * 1000.0
            for done, due in zip(self.done_at, self.due)
        ]
        half = self.args.phase_s / 2
        first = [n for t, n in self.backlog if t < half]
        second = [n for t, n in self.backlog if t >= half]
        mean1 = sum(first) / len(first) if first else 0.0
        mean2 = sum(second) / len(second) if second else 0.0
        rate = self.args.rate
        if self.args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            with (OUT_DIR / f"spans-gen-{self.args.seed}.jsonl").open("w") as out:
                for i in range(len(self.plan)):
                    record = {
                        "name": "gen.request",
                        "tx": list(self.key_of(i)),
                        "due": self.due[i],
                        "sent": self.sent_at[i],
                        "reply": self.done_at[i],
                    }
                    out.write(json.dumps(record) + "\n")
        return {
            "sent": self.sent,
            "replies": self.replies,
            "unknown_accepted": self.unknown_accepted,
            "late_ms_p50": percentile(late_ms, 0.50),
            "late_ms_p99": percentile(late_ms, 0.99),
            "phases": [
                {
                    "rate": rate,
                    "sent": len(self.plan),
                    "failed": sum(done is None for done in self.done_at),
                    "p50_ms": percentile(latencies, 0.50),
                    "p90_ms": percentile(latencies, 0.90),
                    "p99_ms": percentile(latencies, 0.99),
                    "backlog_first": mean1,
                    "backlog_second": mean2,
                    "backlog_growing": mean2 > 1.5 * mean1 + 0.02 * rate,
                }
            ],
        }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True, help="aggregate arrivals per second")
    parser.add_argument("--phase-s", type=float, required=True)
    parser.add_argument("--drain-s", type=float, required=True)
    parser.add_argument("--senders", type=int, required=True)
    parser.add_argument("--payload", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    use_library()
    result = asyncio.run(Generator(args).run())
    if result is not None:
        emit(result)


if __name__ == "__main__":
    main()

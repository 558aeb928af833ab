"""Line-JSON fake generator or verifier hook standing in for a model.

It speaks the pipeline's hook protocol: each request line carries an "id",
and each answer line repeats it.  The generator answers with the request's
"readable" text as the statement; the verifier answers "entailed": true.
Every request is answered, in order; none is ever dropped.

Requests that are already queued when the hook wakes up form one batch.
The hook waits one fixed delay (DELAY_S) per batch, then answers the
whole batch, so the delay stands in for a model's per-batch latency.  It
keeps the receive and answer time of every request (monotonic clock,
nanoseconds) in memory and writes them as JSON lines to --log when its
input closes.

    python3 bench/fake_hook.py generator --log gen.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys
import time

READ_SIZE = 1 << 16
DELAY_S = 0.001


def answer(role: str, request: dict) -> dict:
    """The reply to one request; raises ValueError on a malformed request."""
    if not isinstance(request, dict) or not isinstance(request.get("id"), str):
        raise ValueError(f"request without a string id: {request!r}")
    if role == "generator":
        readable = request.get("readable")
        if not isinstance(readable, str):
            raise ValueError(f"generator request {request['id']} has no readable text")
        return {"id": request["id"], "statement": readable}
    if not isinstance(request.get("statement"), str):
        raise ValueError(f"verifier request {request['id']} has no statement")
    return {"id": request["id"], "entailed": True}


def _read_batch(fd: int) -> tuple[bytes, bool]:
    """Block for input, then take everything already queued.

    Returns the bytes read and whether the input has ended.
    """
    chunk = os.read(fd, READ_SIZE)
    if not chunk:
        return b"", True
    parts = [chunk]
    while select.select([fd], [], [], 0)[0]:
        more = os.read(fd, READ_SIZE)
        if not more:
            return b"".join(parts), True
        parts.append(more)
    return b"".join(parts), False


def serve(role: str, delay_s: float, in_fd: int, out_fd: int) -> list[tuple[str, int, int]]:
    """Answer requests until the input ends; returns (id, received, answered)."""
    log: list[tuple[str, int, int]] = []
    pending = b""
    done = False
    while not done:
        data, done = _read_batch(in_fd)
        pending += data
        *lines, pending = pending.split(b"\n")
        lines = [line for line in lines if line.strip()]
        if not lines:
            continue
        received = time.monotonic_ns()
        replies = [answer(role, json.loads(line)) for line in lines]
        time.sleep(delay_s)
        os.write(out_fd, b"".join(
            json.dumps(reply, sort_keys=True).encode("utf-8") + b"\n" for reply in replies
        ))
        answered = time.monotonic_ns()
        log.extend((reply["id"], received, answered) for reply in replies)
    if pending.strip():
        raise ValueError("input ended inside a request line")
    return log


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("generator", "verifier"))
    parser.add_argument("--log", required=True)
    args = parser.parse_args(argv)
    log = serve(args.role, DELAY_S, sys.stdin.fileno(), sys.stdout.fileno())
    with open(args.log, "w", encoding="utf-8") as handle:
        for item_id, received, answered in log:
            handle.write(json.dumps({"id": item_id, "received_ns": received,
                                     "answered_ns": answered}) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The reference responder of the ``serve`` workload's closed loop.

It answers every GET on one keep-alive connection with a fixed body of
``BODY_BYTES`` zero bytes.  Per request it does what any HTTP/1.1
server does and nothing more: read to the blank line, split the request
line and headers, write a status line, headers and the body.  None of
the program's code runs here, so the latency of a GET to it measures
what a request round trip costs on the host at that moment, and a
change to the program cannot move it.

Usage: ``python3 perfbench/echo_host.py BODY_BYTES``; it prints its URL,
serves one connection and exits when the client closes it.
"""

from __future__ import annotations

import socket
import sys


def main(argv) -> int:
    body = bytes(int(argv[1]))
    head = (
        "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n"
        f"Content-Length: {len(body)}\r\nETag: \"{'0' * 32}\"\r\n\r\n"
    ).encode()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        print(f"http://127.0.0.1:{listener.getsockname()[1]}", flush=True)
        conn, _ = listener.accept()
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    buf = b""
    with conn:
        while True:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                chunk = conn.recv(1 << 16)
                if not chunk:
                    return 0
                buf += chunk
                continue
            # Parsed as a server would, though nothing here uses them.
            lines = buf[:end].decode("latin-1").split("\r\n")
            buf = buf[end + 4:]
            method, path, _ = lines[0].split(" ", 2)
            headers = dict(
                (k.strip().lower(), v.strip())
                for k, _, v in (line.partition(":") for line in lines[1:])
            )
            conn.sendall(head + body)


if __name__ == "__main__":
    sys.exit(main(sys.argv))

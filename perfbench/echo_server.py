"""Control server for serve-mixed: the stdlib HTTP server ``repro serve``
is built on, answering every ``POST`` with a fixed body and no work.

Its latency, probed around each round, tracks how much of the host the
HTTP path gets at that moment (thread hand-offs, connects, scheduling),
which a CPU loop does not.  Prints its port, then serves until killed.

    python3 perfbench/echo_server.py
"""

from __future__ import annotations

import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: About the size of a run-result body of the serve traffic.
BODY = b"x" * 2048


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(BODY)))
        self.end_headers()
        self.wfile.write(BODY)

    def log_message(self, *args) -> None:
        pass


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    print(server.server_address[1], flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())

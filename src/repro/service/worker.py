"""Worker-process entry point for the multi-process query service.

``python -m repro.service.worker`` boots one ``ReproServer`` in
worker mode on an ephemeral port and prints a one-line banner the
dispatcher (``repro.service.dispatch``) parses to learn the bound
address — the same handshake ``repro serve`` uses with its smoke and
bench harnesses.  The worker speaks the full versioned line protocol,
so it is independently debuggable with a plain ``ServiceClient``.

Worker mode changes exactly two things relative to ``repro serve``:

* the worker runs **open** (no auth tokens, no quotas) — tenant
  authentication and quota state live only in the dispatcher, the one
  process with a complete view of every tenant's spend; and
* responses whose request led a fresh compilation carry a ``charge``
  record (interned-node count) the dispatcher strips and applies to
  its central :class:`~repro.service.tenants.TenantRegistry`.

The tier-2 ``CircuitStore`` (``--store`` or ``REPRO_CIRCUIT_STORE``)
is shared across the pool: writes are atomic and content-addressed,
so concurrent workers race benignly, and a respawned worker finds its
predecessor's circuits already on disk.

A worker whose stdin is a pipe (the dispatcher's, never written)
exits at EOF, so none outlives a dispatcher that exits or is killed.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import threading

from repro.service.server import ReproServer, serve_until_closed
from repro.tid import wmc

#: Start-up handshake line, completed with ``<host>:<port>``.  The
#: dispatcher blocks on this exact prefix; change it in lockstep with
#: ``repro.service.dispatch``.
BANNER = "repro worker listening on"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="one worker process of a repro service pool "
                    "(spawned by `repro serve --workers N`)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 binds an ephemeral port (the banner "
                             "reports the choice)")
    parser.add_argument("--store", default=None,
                        help="tier-2 circuit store directory shared "
                             "with the rest of the pool")
    parser.add_argument("--compile-threads", type=int, default=4,
                        dest="compile_threads",
                        help="max concurrent compilations in this "
                             "process (default 4)")
    parser.add_argument("--window", type=float, default=0.01,
                        help="sweep-coalescing window in seconds")
    parser.add_argument("--budget", type=int, default=None,
                        help="default compilation budget in nodes "
                             "(0 = unlimited)")
    parser.add_argument("--store-max-bytes", type=int, default=None,
                        dest="store_max_bytes",
                        help="auto-prune the store under this size "
                             "after fresh compilations")
    parser.add_argument("--no-tracing", action="store_true",
                        dest="no_tracing",
                        help="disable span tracing in this worker")
    return parser


def close_on_stdin_eof(server) -> None:
    """When stdin is a pipe, close ``server`` once the pipe reads EOF
    (its writer, the dispatcher, is gone); otherwise do nothing."""
    try:
        if not stat.S_ISFIFO(os.fstat(0).st_mode):
            return
    except OSError:  # no stdin at all
        return

    def watch() -> None:
        try:
            while os.read(0, 4096):
                pass
        except OSError:
            pass
        server.close()

    threading.Thread(target=watch, name="repro-worker-stdin",
                     daemon=True).start()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.compile_threads < 1:
        print("repro-worker: --compile-threads must be at least 1",
              file=sys.stderr)
        return 2
    if args.budget is None:
        budget = wmc.DEFAULT_BUDGET_NODES
    else:
        budget = None if args.budget == 0 else args.budget
    server = ReproServer(
        args.host, args.port,
        store=args.store,
        workers=args.compile_threads,
        window=args.window,
        budget_nodes=budget,
        store_max_bytes=args.store_max_bytes,
        tracing=not args.no_tracing,
        worker_mode=True)
    close_on_stdin_eof(server)
    return serve_until_closed(server, BANNER)


if __name__ == "__main__":
    sys.exit(main())

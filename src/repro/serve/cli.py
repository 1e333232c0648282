"""``repro-serve``: run and talk to the certification service.

Subcommands::

    repro-serve serve  --socket /tmp/repro.sock --journal journal.jsonl
    repro-serve submit --socket /tmp/repro.sock --topo n324 --order rotate \\
                       --order-seed 3 --kind delta
    repro-serve status --socket /tmp/repro.sock
    repro-serve drain  --socket /tmp/repro.sock
    repro-serve stop   --socket /tmp/repro.sock

``serve`` runs in the foreground until SIGINT/SIGTERM or a client
``stop``; on the way down it leaves unfinished accepted requests in
the journal so the next ``serve`` replays them.  The client commands
speak the JSON-lines protocol over the Unix socket and print the raw
response; ``submit`` exits 0 for certified/vacuous, 2 for
refuted/error and 3 for shed (retry later).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import socket
import sys
from typing import Any

from .protocol import ORDERS, PROTOCOL_VERSION, decode_line, encode_line
from .queue import RequeuePolicy
from .service import CertificationService, ServiceConfig, serve_unix

__all__ = ["main"]

EXIT_OK = 0
EXIT_FINDINGS = 2
EXIT_SHED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="always-on contention-freedom certification service")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the service in the foreground")
    serve.add_argument("--socket", required=True,
                       help="Unix socket path to listen on")
    serve.add_argument("--journal", default="serve-journal.jsonl",
                       help="crash-safe request journal path")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--capacity", type=int, default=256,
                       help="queue bound; above it requests are shed")
    serve.add_argument("--high-water", type=int, default=None,
                       help="pressure threshold (default 3/4 of capacity)")
    serve.add_argument("--deadline", type=float, default=30.0,
                       help="default per-request deadline in seconds "
                            "(0 disables)")
    serve.add_argument("--poison-threshold", type=int, default=3,
                       help="crashes on one digest before quarantine")
    serve.add_argument("--max-retries", type=int, default=3,
                       help="crash requeues per request before SRV008")
    serve.add_argument("--cache-dir", default=None,
                       help="result cache directory (omit to disable)")
    serve.add_argument("--cache-max-bytes", type=int, default=None)
    serve.add_argument("--tick", type=float, default=0.01,
                       help="longest supervisor sleep between passes, in "
                            "seconds (submissions and worker replies wake "
                            "it sooner)")
    serve.add_argument("--allow-test-hooks", action="store_true",
                       help="honour test_delay_s/test_crash request hooks "
                            "(chaos testing only)")

    for name, text in (("submit", "submit one certification request"),
                       ("status", "print the service status"),
                       ("drain", "stop admissions and run the backlog down"),
                       ("stop", "ask the service to shut down")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--socket", required=True)
        cmd.add_argument("--timeout", type=float, default=300.0,
                         help="client-side socket timeout in seconds")
        if name == "drain":
            cmd.add_argument("--drain-timeout", type=float, default=120.0)
        if name != "submit":
            continue
        cmd.add_argument("--json", default=None,
                         help="raw JSON request body (overrides the "
                              "flags below)")
        cmd.add_argument("--kind", choices=("cert", "delta"),
                         default="cert")
        cmd.add_argument("--topo", default=None)
        cmd.add_argument("--spec", default=None,
                         help="PGFT tuple 'h; m1,..; w1,..; p1,..'")
        cmd.add_argument("--cps", default="shift")
        cmd.add_argument("--max-shift-stages", type=int, default=64)
        cmd.add_argument("--order", choices=ORDERS, default="topology")
        cmd.add_argument("--order-seed", type=int, default=0)
        cmd.add_argument("--base-order", choices=ORDERS,
                         default="topology")
        cmd.add_argument("--base-order-seed", type=int, default=0)
        cmd.add_argument("--exclude", type=int, default=0)
        cmd.add_argument("--exclude-seed", type=int, default=0)
        cmd.add_argument("--engine",
                         choices=("enumerate", "symbolic", "both"),
                         default="symbolic")
        cmd.add_argument("--deadline", type=float, default=None)
        cmd.add_argument("--no-cache", action="store_true")
    return parser


# ----------------------------------------------------------------------
# server side
# ----------------------------------------------------------------------
def _config_from_args(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        workers=args.workers,
        queue_capacity=args.capacity,
        high_water=args.high_water,
        poison_threshold=args.poison_threshold,
        requeue=RequeuePolicy(max_retries=args.max_retries),
        default_deadline_s=args.deadline if args.deadline > 0 else None,
        tick_s=args.tick,
        journal_path=args.journal,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        allow_test_hooks=args.allow_test_hooks,
    )


async def _serve(args: argparse.Namespace) -> int:
    service = CertificationService(_config_from_args(args))
    await service.start()
    server = await serve_unix(service, args.socket)
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, service.shutdown.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    print(f"repro-serve v{PROTOCOL_VERSION}: listening on {args.socket} "
          f"({service.pool.size} workers, journal {args.journal})",
          flush=True)
    await service.shutdown.wait()
    server.close()
    await server.wait_closed()
    await service.stop()
    print("repro-serve: stopped (unfinished requests stay journaled)",
          flush=True)
    return EXIT_OK


# ----------------------------------------------------------------------
# client side
# ----------------------------------------------------------------------
def _roundtrip(socket_path: str, message: dict[str, Any],
               timeout: float) -> dict[str, Any]:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(socket_path)
        sock.sendall(encode_line(message))
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    return decode_line(buf)


def _request_from_args(args: argparse.Namespace) -> dict[str, Any]:
    if args.json is not None:
        payload = json.loads(args.json)
        if not isinstance(payload, dict):
            raise SystemExit("--json must be a JSON object")
        return payload
    body: dict[str, Any] = {"kind": args.kind, "cps": args.cps,
                            "engine": args.engine}
    if args.topo is not None:
        body["topo"] = args.topo
    if args.spec is not None:
        body["spec"] = args.spec
    if args.max_shift_stages != 64:
        body["max_stages"] = args.max_shift_stages
    for key in ("order", "order_seed", "base_order", "base_order_seed",
                "exclude", "exclude_seed"):
        value = getattr(args, key)
        if value not in ("topology", 0):
            body[key] = value
    if args.deadline is not None:
        body["deadline_s"] = args.deadline
    if args.no_cache:
        body["no_cache"] = True
    return body


def _submit_exit_code(response: dict[str, Any]) -> int:
    status = response.get("status")
    if status in ("certified", "vacuous", "ok"):
        return EXIT_OK
    if status == "shed":
        return EXIT_SHED
    return EXIT_FINDINGS


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        return asyncio.run(_serve(args))
    try:
        if args.command == "submit":
            message: dict[str, Any] = {"op": "submit",
                                       "request": _request_from_args(args)}
        elif args.command == "drain":
            message = {"op": "drain", "timeout_s": args.drain_timeout}
        else:
            message = {"op": args.command}
        response = _roundtrip(args.socket, message, args.timeout)
    except (OSError, ValueError) as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    print(json.dumps(response, indent=2, sort_keys=True))
    if args.command == "submit":
        return _submit_exit_code(response)
    return EXIT_OK if response.get("status") == "ok" else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

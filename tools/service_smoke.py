#!/usr/bin/env python3
"""End-to-end smoke test of the experiment service daemon (ctest: service.smoke).

Drives the real binaries over a real unix socket — no in-process
shortcuts — and asserts the acceptance contract of docs/SERVICE.md:

  1. the daemon starts and prints its readiness line;
  2. a first submit executes fresh (cached=0) and returns a result;
  3. an identical second submit is served from the content-addressed
     cache (cached=1) with BYTE-IDENTICAL result payload;
  4. a different spec misses the cache (distinct result identity);
  5. admin counters agree: submitted=3, hits=1, misses=2, completed=2;
  6. `qdc_client shutdown --drain` produces a clean daemon exit (rc=0,
     "clean shutdown" on stdout) and removes nothing it should not.

Usage:

    python3 tools/service_smoke.py BUILD_DIR

where BUILD_DIR contains tools/service/qdc_serviced and
tools/service/qdc_client. Exit status: 0 on success, 1 on any violation
(with the daemon log replayed to stderr for diagnosis).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FAILURES: list[str] = []


def fail(msg: str) -> None:
    FAILURES.append(msg)
    print(f"service_smoke: FAIL: {msg}", file=sys.stderr)


def parse_kv(stdout: str) -> dict[str, str]:
    """Parses the key=value lines qdc_client prints."""
    out: dict[str, str] = {}
    for line in stdout.splitlines():
        m = re.fullmatch(r"([a-z0-9_]+)=(.*)", line.strip())
        if m:
            out[m.group(1)] = m.group(2)
    return out


def run_client(client: Path, socket: str, *args: str) -> tuple[int, dict[str, str], str]:
    proc = subprocess.run(
        [str(client), "--socket", socket, *args],
        capture_output=True, text=True, timeout=120)
    return proc.returncode, parse_kv(proc.stdout), proc.stdout + proc.stderr


SUBMIT_A = ["submit", "--topology", "gnm", "--algo", "mst", "--nodes", "96",
            "--edges", "192", "--topology-seed", "7"]
SUBMIT_B = ["submit", "--topology", "path", "--algo", "census",
            "--nodes", "64"]


def run_smoke(serviced: Path, client: Path, socket: str) -> None:
    """Runs the whole scenario against one daemon on `socket`."""
    daemon = subprocess.Popen(
        [str(serviced), "--socket", socket, "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        ready = daemon.stdout.readline()
        if "listening on" not in ready:
            fail(f"daemon readiness line missing, got: {ready!r}")

        # 1st submit: fresh execution.
        rc, first, raw = run_client(client, socket, *SUBMIT_A)
        if rc != 0:
            fail(f"first submit rc={rc}: {raw}")
        if first.get("state") != "Done":
            fail(f"first submit state={first.get('state')}")
        if first.get("cached") != "0":
            fail("first submit unexpectedly served from cache")
        if not first.get("result_hex"):
            fail("first submit carried no result payload")

        # 2nd identical submit: cache hit, byte-identical payload.
        rc, second, raw = run_client(client, socket, *SUBMIT_A)
        if rc != 0:
            fail(f"second submit rc={rc}: {raw}")
        if second.get("cached") != "1":
            fail("second identical submit was not a cache hit")
        if second.get("result_hex") != first.get("result_hex"):
            fail("cache hit payload is not byte-identical to the original")
        if second.get("cache_key") != first.get("cache_key"):
            fail("identical specs produced different cache keys")

        # A different spec must miss.
        rc, other, raw = run_client(client, socket, *SUBMIT_B)
        if rc != 0:
            fail(f"third submit rc={rc}: {raw}")
        if other.get("cached") != "0":
            fail("distinct spec unexpectedly hit the cache")
        if other.get("result_hex") == first.get("result_hex"):
            fail("distinct specs returned identical payloads")

        # Admin counters tell the same story.
        rc, admin, raw = run_client(client, socket, "admin")
        if rc != 0:
            fail(f"admin rc={rc}: {raw}")
        expectations = {
            "jobs_submitted": "3",
            "cache_hits": "1",
            "cache_misses": "2",
            "jobs_completed": "2",
            "jobs_failed": "0",
            "queue_depth": "0",
            "in_flight": "0",
        }
        for key, want in expectations.items():
            if admin.get(key) != want:
                fail(f"admin {key}={admin.get(key)}, expected {want}")

        # Drain shutdown: daemon acknowledges, exits cleanly.
        rc, _, raw = run_client(client, socket, "shutdown", "--drain")
        if rc != 0:
            fail(f"shutdown rc={rc}: {raw}")
        try:
            daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            fail("daemon did not exit after drain shutdown")
            daemon.kill()
        tail = daemon.stdout.read()
        if daemon.returncode != 0:
            fail(f"daemon exit code {daemon.returncode}")
        if "clean shutdown" not in tail:
            fail(f"daemon did not report a clean shutdown: {tail!r}")
    finally:
        if daemon.poll() is None:
            daemon.terminate()
            try:
                daemon.wait(timeout=10)
            except subprocess.TimeoutExpired:
                daemon.kill()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: service_smoke.py BUILD_DIR", file=sys.stderr)
        return 2
    build = Path(argv[0])
    serviced = build / "tools" / "service" / "qdc_serviced"
    client = build / "tools" / "service" / "qdc_client"
    for binary in (serviced, client):
        if not binary.exists():
            print(f"service_smoke: missing binary {binary}", file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory(prefix="qdc_smoke_") as tmp:
        run_smoke(serviced, client, os.path.join(tmp, "svc.sock"))

    if FAILURES:
        print(f"service_smoke: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("service_smoke: OK (cache-hit byte-identity, admin counters, "
          "clean drain shutdown)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

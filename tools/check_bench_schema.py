#!/usr/bin/env python3
"""Validate the scaling reports emitted by the bench executables.

Usage:

    python3 tools/check_bench_schema.py [--gate] REPORT.json [REPORT.json ...]

e.g. BENCH_engine.json or BENCH_quantum.json. Dispatches on the
document's "bench" key:

  * "engine_scaling" (schema v3, bench_engine_scaling): topology cases with
    rounds_per_sec results plus the batched-sweep section. v3 adds two
    per-case keys: "topology_kind" (the TopologyView kind string — e.g.
    "materialized", "path", "lb_network") and "frontier" (whether the run
    used the event-driven wake rule, RunOptions::frontier, instead of
    re-waking every live node each round).
  * "quantum_scaling" (schema v4, bench_quantum_scaling): statevector
    kernel cases with ops_per_sec results, a per-case payload checksum
    (0x + 16 hex digits — the amplitude-bit fold the bench asserts equal
    across thread counts), and a Grover sweep section. v4 dropped v3's
    per-case "variant" and "window" keys with the gate-fusion kernel they
    described: every case runs the per-gate kernels.

Both share the value-sanity core (positive timings, threads=1 / workers=1
baseline present, no duplicate thread counts) so CI catches a bench that
silently emits garbage.

--gate also evaluates the speedup gates of each report's bench, one row
of the GATES table each. A row compares two (case, threads) results of one
report and fails when their rate ratio is below its threshold or either
result is missing; its skip rule may skip it, always with a printed
reason. Exit status: 0 on success, 1 on any violation or failed gate.

The checker is also importable: check_document(doc) returns the violation
list for an already-parsed document and check_gates(doc) the gate
verdicts, which is how tools/test_check_bench_schema.py unit-tests every
rule and every gate row.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ERRORS: list[str] = []

# Mirrors qdc::quantum::kMaxQubits (src/quantum/state.hpp): no real report
# can carry a wider statevector than the simulator accepts.
MAX_QUBITS = 24

# Speedup gates, one row each: (bench, numerator case@threads, denominator
# case@threads, minimum ratio, skip rule). The ratio is the numerator's rate
# over the denominator's; both cases of a row do the same work, so it is
# also their wall-time ratio.
#   * engine parallel: the N(Gamma, L) round engine at 4 threads vs 1;
#   * engine frontier: the event-driven wake rule vs re-waking every live
#     node, on ~1 active node per round;
#   * quantum parallel: the gate kernels at 4 threads vs 1 — a lower bar,
#     since they stream every amplitude through memory once per gate and
#     saturate bandwidth well before the round engine does.
GATES = (
    ("engine_scaling", "lb_network@4", "lb_network@1", 1.5, "parallel"),
    ("engine_scaling", "sparse_activity_frontier@1",
     "sparse_activity_dense@1", 2.0, "never"),
    ("quantum_scaling", "gates@4", "gates@1", 1.3, "parallel"),
)

# Parallel ratios need this many hardware threads to be measurable; the
# frontier row's single-thread ratio is measurable anywhere.
GATE_THREADS = 4


def _few_threads(doc: dict) -> str | None:
    hw = doc.get("hardware_threads")
    if isinstance(hw, int) and hw < GATE_THREADS:
        return (f"runner has {hw} hardware thread(s), needs >= "
                f"{GATE_THREADS}")
    return None


# Each rule returns the reason to skip a row on this report, or None.
SKIP_RULES = {
    "never": lambda doc: None,
    "parallel": _few_threads,
}

RATE_KEYS = {"engine_scaling": "rounds_per_sec",
             "quantum_scaling": "ops_per_sec"}

CHECKSUM_RE = re.compile(r"0x[0-9a-f]{16}")


def fail(msg: str) -> None:
    ERRORS.append(msg)


def expect_key(obj: dict, key: str, kind, where: str):
    if key not in obj:
        fail(f"{where}: missing key '{key}'")
        return None
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        fail(f"{where}: key '{key}' must be {kind}, got {type(value).__name__}")
        return None
    return value


def check_results(results: list, where: str, unit_key: str, rate_key: str) -> None:
    seen_units = set()
    for i, res in enumerate(results):
        rwhere = f"{where}[{i}]"
        if not isinstance(res, dict):
            fail(f"{rwhere}: must be an object")
            continue
        units = expect_key(res, unit_key, int, rwhere)
        seconds = expect_key(res, "seconds", (int, float), rwhere)
        rate = expect_key(res, rate_key, (int, float), rwhere)
        speedup = expect_key(res, "speedup", (int, float), rwhere)
        if units is not None:
            if units < 1:
                fail(f"{rwhere}: {unit_key} must be >= 1")
            if units in seen_units:
                fail(f"{rwhere}: duplicate {unit_key} count {units}")
            seen_units.add(units)
        if seconds is not None and seconds <= 0:
            fail(f"{rwhere}: seconds must be positive")
        if rate is not None and rate <= 0:
            fail(f"{rwhere}: {rate_key} must be positive")
        if speedup is not None and speedup <= 0:
            fail(f"{rwhere}: speedup must be positive")
    if 1 not in seen_units:
        fail(f"{where}: no {unit_key}=1 baseline in results")


def check_checksum(obj: dict, where: str) -> None:
    value = expect_key(obj, "checksum", str, where)
    if value is not None and not CHECKSUM_RE.fullmatch(value):
        fail(f"{where}: checksum must be 0x followed by 16 lowercase hex "
             f"digits, got '{value}'")


def check_engine_case(case: dict, where: str) -> None:
    expect_key(case, "name", str, where)
    expect_key(case, "topology", str, where)
    kind = expect_key(case, "topology_kind", str, where)
    if kind is not None and not kind:
        fail(f"{where}: topology_kind must be non-empty")
    expect_key(case, "frontier", bool, where)
    nodes = expect_key(case, "nodes", int, where)
    edges = expect_key(case, "edges", int, where)
    rounds = expect_key(case, "rounds", int, where)
    if nodes is not None and nodes <= 0:
        fail(f"{where}: nodes must be positive")
    if edges is not None and edges <= 0:
        fail(f"{where}: edges must be positive")
    if rounds is not None and rounds <= 0:
        fail(f"{where}: rounds must be positive")
    results = expect_key(case, "results", list, where)
    if not results:
        fail(f"{where}: results must be a non-empty list")
        return
    check_results(results, f"{where}.results", "threads", "rounds_per_sec")


def check_engine_sweep(sweep: dict, where: str) -> None:
    jobs = expect_key(sweep, "jobs", int, where)
    job_nodes = expect_key(sweep, "job_nodes", int, where)
    job_rounds = expect_key(sweep, "job_rounds", int, where)
    if jobs is not None and jobs <= 0:
        fail(f"{where}: jobs must be positive")
    if job_nodes is not None and job_nodes <= 0:
        fail(f"{where}: job_nodes must be positive")
    if job_rounds is not None and job_rounds <= 0:
        fail(f"{where}: job_rounds must be positive")
    results = expect_key(sweep, "results", list, where)
    if not results:
        fail(f"{where}: results must be a non-empty list")
        return
    check_results(results, f"{where}.results", "workers", "jobs_per_sec")


def check_quantum_case(case: dict, where: str) -> None:
    expect_key(case, "name", str, where)
    qubits = expect_key(case, "qubits", int, where)
    ops = expect_key(case, "ops", int, where)
    if qubits is not None and not 1 <= qubits <= MAX_QUBITS:
        fail(f"{where}: qubits must be in [1, {MAX_QUBITS}]")
    if ops is not None and ops <= 0:
        fail(f"{where}: ops must be positive")
    check_checksum(case, where)
    results = expect_key(case, "results", list, where)
    if not results:
        fail(f"{where}: results must be a non-empty list")
        return
    check_results(results, f"{where}.results", "threads", "ops_per_sec")


def check_quantum_sweep(sweep: dict, where: str) -> None:
    jobs = expect_key(sweep, "jobs", int, where)
    job_qubits = expect_key(sweep, "job_qubits", int, where)
    if jobs is not None and jobs <= 0:
        fail(f"{where}: jobs must be positive")
    if job_qubits is not None and not 1 <= job_qubits <= MAX_QUBITS:
        fail(f"{where}: job_qubits must be in [1, {MAX_QUBITS}]")
    check_checksum(sweep, where)
    results = expect_key(sweep, "results", list, where)
    if not results:
        fail(f"{where}: results must be a non-empty list")
        return
    check_results(results, f"{where}.results", "workers", "jobs_per_sec")


SCHEMAS = {
    "engine_scaling": (3, check_engine_case, check_engine_sweep),
    "quantum_scaling": (4, check_quantum_case, check_quantum_sweep),
}


def check_document(doc) -> list[str]:
    """Validates an already-parsed report; returns the violation list."""
    ERRORS.clear()
    if not isinstance(doc, dict):
        fail("$: top level must be an object")
        return list(ERRORS)

    bench = expect_key(doc, "bench", str, "$")
    if bench is not None and bench not in SCHEMAS:
        known = ", ".join(sorted(SCHEMAS))
        fail(f"$: bench must be one of {known}, got '{bench}'")
    expected_version, check_case, check_sweep = SCHEMAS.get(
        bench, SCHEMAS["engine_scaling"])
    version = expect_key(doc, "schema_version", int, "$")
    if version is not None and version != expected_version:
        fail(f"$: unsupported schema_version {version}")
    expect_key(doc, "smoke", bool, "$")
    mode = expect_key(doc, "mode", str, "$")
    if mode is not None and mode not in ("full", "smoke", "gate"):
        fail(f"$: mode must be full|smoke|gate, got '{mode}'")
    hw = expect_key(doc, "hardware_threads", int, "$")
    if hw is not None and hw < 1:
        fail("$: hardware_threads must be >= 1")
    cases = expect_key(doc, "cases", list, "$")
    if not cases:
        fail("$: cases must be a non-empty list")
    else:
        for i, case in enumerate(cases):
            where = f"$.cases[{i}]"
            if not isinstance(case, dict):
                fail(f"{where}: must be an object")
                continue
            check_case(case, where)
    sweep = expect_key(doc, "sweep", dict, "$")
    if sweep is not None:
        check_sweep(sweep, "$.sweep")
    return list(ERRORS)


def case_rate(doc: dict, spec: str) -> float | None:
    """The positive rate of result `spec` ("case@threads"), or None."""
    name, threads = spec.rsplit("@", 1)
    for case in doc.get("cases", []):
        if case.get("name") != name:
            continue
        for res in case.get("results", []):
            if res.get("threads") == int(threads):
                rate = res.get(RATE_KEYS[doc["bench"]])
                if isinstance(rate, (int, float)) and rate > 0:
                    return float(rate)
    return None


def check_gates(doc: dict) -> list[tuple[str, str]]:
    """Evaluates the GATES rows of doc's bench, in table order.

    Returns one (verdict, message) per row, the verdict being OK, SKIPPED,
    REGRESSION or MISSING."""
    verdicts = []
    for bench, num, den, threshold, rule in GATES:
        if bench != doc.get("bench"):
            continue
        what = f"{num} / {den} >= {threshold}x"
        reason = SKIP_RULES[rule](doc)
        if reason is not None:
            verdicts.append(("SKIPPED", f"{what} did NOT run: {reason}"))
            continue
        num_rate = case_rate(doc, num)
        den_rate = case_rate(doc, den)
        if num_rate is None or den_rate is None:
            missing = num if num_rate is None else den
            verdicts.append(("MISSING", f"{what}: no positive rate for "
                                        f"{missing}"))
            continue
        ratio = num_rate / den_rate
        verdict = "OK" if ratio >= threshold else "REGRESSION"
        verdicts.append((verdict, f"{what}: measured {ratio:.2f}x"))
    return verdicts


def main(argv: list[str]) -> int:
    gate = "--gate" in argv
    paths = [Path(a) for a in argv if a != "--gate"]
    if not paths:
        print("usage: check_bench_schema.py [--gate] REPORT.json "
              "[REPORT.json ...]", file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"check_bench_schema: cannot parse {path}: {exc}",
                  file=sys.stderr)
            status = 1
            continue
        errors = check_document(doc)
        for err in errors:
            print(err)
        if errors:
            print(f"check_bench_schema: {len(errors)} violation(s) in {path}")
            status = 1
            continue
        print(f"check_bench_schema: {path} OK ({len(doc['cases'])} case(s))")
        if not gate:
            continue
        for verdict, message in check_gates(doc):
            print(f"check_bench_schema: gate {verdict} — {message}")
            if verdict in ("REGRESSION", "MISSING"):
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

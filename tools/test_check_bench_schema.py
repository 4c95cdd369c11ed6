#!/usr/bin/env python3
"""Unit tests for tools/check_bench_schema.py (run as CTest lint.bench_schema_unit).

Covers: a valid engine schema-v3 document, a valid quantum schema-v4
document, missing keys, wrong types, value-sanity rules, the v3
topology_kind / frontier case keys, the checksum format, the sweep-section
rules, and pass / regression / skip / missing-case for every row of the
speedup-gate table — so schema or gate edits cannot silently break the CI
validation step.
"""

from __future__ import annotations

import copy
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_bench_schema  # noqa: E402


def valid_document() -> dict:
    return {
        "bench": "engine_scaling",
        "schema_version": 3,
        "smoke": False,
        "mode": "full",
        "hardware_threads": 8,
        "cases": [
            {
                "name": "lb_network",
                "topology": "lb_network",
                "topology_kind": "materialized",
                "frontier": False,
                "nodes": 4161,
                "edges": 8385,
                "rounds": 24,
                "results": [
                    {"threads": 1, "seconds": 2.0,
                     "rounds_per_sec": 12.0, "speedup": 1.0},
                    {"threads": 4, "seconds": 0.6,
                     "rounds_per_sec": 40.0, "speedup": 3.3},
                ],
            }
        ],
        "sweep": {
            "jobs": 16,
            "job_nodes": 256,
            "job_rounds": 8,
            "results": [
                {"workers": 1, "seconds": 4.0,
                 "jobs_per_sec": 4.0, "speedup": 1.0},
                {"workers": 4, "seconds": 1.25,
                 "jobs_per_sec": 12.8, "speedup": 3.2},
            ],
        },
    }


def valid_quantum_document() -> dict:
    return {
        "bench": "quantum_scaling",
        "schema_version": 4,
        "smoke": False,
        "mode": "full",
        "hardware_threads": 8,
        "cases": [
            {
                "name": "gates",
                "qubits": 22,
                "ops": 152,
                "checksum": "0xb93a75acf3f0d53f",
                "results": [
                    {"threads": 1, "seconds": 2.0,
                     "ops_per_sec": 76.0, "speedup": 1.0},
                    {"threads": 4, "seconds": 0.6,
                     "ops_per_sec": 253.3, "speedup": 3.3},
                ],
            }
        ],
        "sweep": {
            "jobs": 16,
            "job_qubits": 11,
            "checksum": "0xf6c218ab83041fd3",
            "results": [
                {"workers": 1, "seconds": 4.0,
                 "jobs_per_sec": 4.0, "speedup": 1.0},
                {"workers": 4, "seconds": 1.25,
                 "jobs_per_sec": 12.8, "speedup": 3.2},
            ],
        },
    }


class CheckDocumentTest(unittest.TestCase):
    def check(self, doc) -> list[str]:
        return check_bench_schema.check_document(doc)

    def assert_violation(self, doc, fragment: str) -> None:
        errors = self.check(doc)
        self.assertTrue(any(fragment in e for e in errors),
                        f"expected a violation containing {fragment!r}, "
                        f"got {errors!r}")

    def test_valid_document_passes(self):
        self.assertEqual(self.check(valid_document()), [])

    def test_errors_reset_between_calls(self):
        self.assertNotEqual(self.check({}), [])
        self.assertEqual(self.check(valid_document()), [])

    def test_top_level_must_be_object(self):
        self.assert_violation([], "top level must be an object")

    def test_missing_bench_key(self):
        doc = valid_document()
        del doc["bench"]
        self.assert_violation(doc, "missing key 'bench'")

    def test_wrong_bench_name(self):
        doc = valid_document()
        doc["bench"] = "other"
        self.assert_violation(doc, "bench must be one of")

    def test_old_schema_version_rejected(self):
        doc = valid_document()
        doc["schema_version"] = 1
        self.assert_violation(doc, "unsupported schema_version 1")

    def test_v2_schema_version_rejected(self):
        # v2 documents lack topology_kind/frontier; the version bump forces
        # regeneration rather than silently accepting stale reports.
        doc = valid_document()
        doc["schema_version"] = 2
        self.assert_violation(doc, "unsupported schema_version 2")

    def test_case_missing_topology_kind(self):
        doc = valid_document()
        del doc["cases"][0]["topology_kind"]
        self.assert_violation(doc, "missing key 'topology_kind'")

    def test_case_empty_topology_kind(self):
        doc = valid_document()
        doc["cases"][0]["topology_kind"] = ""
        self.assert_violation(doc, "topology_kind must be non-empty")

    def test_case_missing_frontier(self):
        doc = valid_document()
        del doc["cases"][0]["frontier"]
        self.assert_violation(doc, "missing key 'frontier'")

    def test_case_frontier_wrong_type(self):
        doc = valid_document()
        doc["cases"][0]["frontier"] = "yes"
        self.assert_violation(doc, "key 'frontier' must be")

    def test_schema_version_wrong_type(self):
        doc = valid_document()
        doc["schema_version"] = "2"
        self.assert_violation(doc, "key 'schema_version' must be")

    def test_smoke_wrong_type(self):
        doc = valid_document()
        doc["smoke"] = "no"
        self.assert_violation(doc, "key 'smoke' must be")

    def test_unknown_mode(self):
        doc = valid_document()
        doc["mode"] = "turbo"
        self.assert_violation(doc, "mode must be full|smoke|gate")

    def test_empty_cases(self):
        doc = valid_document()
        doc["cases"] = []
        self.assert_violation(doc, "cases must be a non-empty list")

    def test_case_negative_nodes(self):
        doc = valid_document()
        doc["cases"][0]["nodes"] = -1
        self.assert_violation(doc, "nodes must be positive")

    def test_case_missing_threads_baseline(self):
        doc = valid_document()
        doc["cases"][0]["results"] = [
            {"threads": 4, "seconds": 0.6,
             "rounds_per_sec": 40.0, "speedup": 3.3}]
        self.assert_violation(doc, "no threads=1 baseline")

    def test_case_duplicate_threads(self):
        doc = valid_document()
        doc["cases"][0]["results"].append(
            copy.deepcopy(doc["cases"][0]["results"][1]))
        self.assert_violation(doc, "duplicate threads count 4")

    def test_case_nonpositive_seconds(self):
        doc = valid_document()
        doc["cases"][0]["results"][0]["seconds"] = 0
        self.assert_violation(doc, "seconds must be positive")

    def test_missing_sweep_section(self):
        doc = valid_document()
        del doc["sweep"]
        self.assert_violation(doc, "missing key 'sweep'")

    def test_sweep_wrong_type(self):
        doc = valid_document()
        doc["sweep"] = []
        self.assert_violation(doc, "key 'sweep' must be")

    def test_sweep_nonpositive_jobs(self):
        doc = valid_document()
        doc["sweep"]["jobs"] = 0
        self.assert_violation(doc, "jobs must be positive")

    def test_sweep_missing_workers_baseline(self):
        doc = valid_document()
        doc["sweep"]["results"] = [
            {"workers": 2, "seconds": 2.0,
             "jobs_per_sec": 8.0, "speedup": 2.0}]
        self.assert_violation(doc, "no workers=1 baseline")

    def test_sweep_empty_results(self):
        doc = valid_document()
        doc["sweep"]["results"] = []
        self.assert_violation(doc, "results must be a non-empty list")

    def test_sweep_nonpositive_rate(self):
        doc = valid_document()
        doc["sweep"]["results"][0]["jobs_per_sec"] = -1.0
        self.assert_violation(doc, "jobs_per_sec must be positive")


class QuantumDocumentTest(unittest.TestCase):
    def check(self, doc) -> list[str]:
        return check_bench_schema.check_document(doc)

    def assert_violation(self, doc, fragment: str) -> None:
        errors = self.check(doc)
        self.assertTrue(any(fragment in e for e in errors),
                        f"expected a violation containing {fragment!r}, "
                        f"got {errors!r}")

    def test_valid_document_passes(self):
        self.assertEqual(self.check(valid_quantum_document()), [])

    def test_quantum_requires_schema_version_4(self):
        # v3 still carries the deleted fused variant's "variant" and
        # "window" keys, and older reports predate them; the version bump
        # forces regeneration rather than silently accepting stale reports.
        for old in (1, 2, 3):
            doc = valid_quantum_document()
            doc["schema_version"] = old
            self.assert_violation(doc, f"unsupported schema_version {old}")

    def test_missing_checksum(self):
        doc = valid_quantum_document()
        del doc["cases"][0]["checksum"]
        self.assert_violation(doc, "missing key 'checksum'")

    def test_malformed_checksum(self):
        doc = valid_quantum_document()
        doc["cases"][0]["checksum"] = "0xZZ"
        self.assert_violation(doc, "checksum must be 0x")

    def test_qubits_beyond_simulator_cap(self):
        doc = valid_quantum_document()
        doc["cases"][0]["qubits"] = 25
        self.assert_violation(doc, "qubits must be in [1, 24]")

    def test_nonpositive_ops(self):
        doc = valid_quantum_document()
        doc["cases"][0]["ops"] = 0
        self.assert_violation(doc, "ops must be positive")

    def test_missing_threads_baseline(self):
        doc = valid_quantum_document()
        doc["cases"][0]["results"] = [
            {"threads": 4, "seconds": 0.6,
             "ops_per_sec": 253.3, "speedup": 3.3}]
        self.assert_violation(doc, "no threads=1 baseline")

    def test_nonpositive_rate(self):
        doc = valid_quantum_document()
        doc["cases"][0]["results"][0]["ops_per_sec"] = 0
        self.assert_violation(doc, "ops_per_sec must be positive")

    def test_sweep_checksum_required(self):
        doc = valid_quantum_document()
        del doc["sweep"]["checksum"]
        self.assert_violation(doc, "missing key 'checksum'")

    def test_sweep_job_qubits_range(self):
        doc = valid_quantum_document()
        doc["sweep"]["job_qubits"] = 0
        self.assert_violation(doc, "job_qubits must be in [1, 24]")

    def test_sweep_missing_workers_baseline(self):
        doc = valid_quantum_document()
        doc["sweep"]["results"] = [
            {"workers": 2, "seconds": 2.0,
             "jobs_per_sec": 8.0, "speedup": 2.0}]
        self.assert_violation(doc, "no workers=1 baseline")

    def test_main_accepts_valid_quantum_file(self):
        import json
        import tempfile
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            json.dump(valid_quantum_document(), f)
            path = f.name
        self.assertEqual(check_bench_schema.main([path]), 0)


def rate_case(doc: dict, name: str, rates: dict[int, float]) -> dict:
    """A case of doc's bench with one result per (threads, rate)."""
    rate_key = check_bench_schema.RATE_KEYS[doc["bench"]]
    case = copy.deepcopy(doc["cases"][0])
    case["name"] = name
    case["results"] = [
        {"threads": t, "seconds": 1.0 / r, rate_key: r, "speedup": 1.0}
        for t, r in sorted(rates.items())]
    return case


def gate_ready_document(bench: str) -> dict:
    """A report whose every gate row of `bench` passes on a 4-thread host."""
    if bench == "engine_scaling":
        doc = valid_document()
        doc["cases"] = [
            rate_case(doc, "lb_network", {1: 10.0, 4: 30.0}),
            rate_case(doc, "sparse_activity_dense", {1: 100.0}),
            rate_case(doc, "sparse_activity_frontier", {1: 5000.0}),
        ]
    else:
        doc = valid_quantum_document()
        doc["cases"] = [rate_case(doc, "gates", {1: 50.0, 4: 150.0})]
    doc["mode"] = "gate"
    doc["hardware_threads"] = 4
    return doc


def set_rate(doc: dict, spec: str, rate: float) -> None:
    name, threads = spec.rsplit("@", 1)
    rate_key = check_bench_schema.RATE_KEYS[doc["bench"]]
    for case in doc["cases"]:
        for res in case["results"]:
            if case["name"] == name and res["threads"] == int(threads):
                res[rate_key] = rate
                res["seconds"] = 1.0 / rate


def drop_result(doc: dict, spec: str) -> None:
    """Drops one result, and its case with it if that was the last one."""
    name, threads = spec.rsplit("@", 1)
    for case in doc["cases"]:
        if case["name"] == name:
            case["results"] = [r for r in case["results"]
                               if r["threads"] != int(threads)]
    doc["cases"] = [c for c in doc["cases"] if c["results"]]


class GateTableTest(unittest.TestCase):
    """Every row of GATES: pass, regression, skip and missing case."""

    def verdict(self, doc: dict, row: tuple) -> str:
        self.assertEqual(check_bench_schema.check_document(doc), [])
        rows = [r for r in check_bench_schema.GATES if r[0] == doc["bench"]]
        verdicts = check_bench_schema.check_gates(doc)
        self.assertEqual(len(verdicts), len(rows))
        return verdicts[rows.index(row)][0]

    def for_each_row(self, body) -> None:
        for row in check_bench_schema.GATES:
            with self.subTest(row=row):
                body(row, gate_ready_document(row[0]))

    def test_table_keeps_the_three_thresholds(self):
        self.assertEqual(
            [(num, den, threshold)
             for _, num, den, threshold, _ in check_bench_schema.GATES],
            [("lb_network@4", "lb_network@1", 1.5),
             ("sparse_activity_frontier@1", "sparse_activity_dense@1", 2.0),
             ("gates@4", "gates@1", 1.3)])

    def test_each_row_passes(self):
        self.for_each_row(
            lambda row, doc: self.assertEqual(self.verdict(doc, row), "OK"))

    def test_each_row_passes_exactly_at_threshold(self):
        def body(row, doc):
            _, num, den, threshold, _ = row
            set_rate(doc, den, 8.0)
            set_rate(doc, num, 8.0 * threshold)
            self.assertEqual(self.verdict(doc, row), "OK")
        self.for_each_row(body)

    def test_each_row_flags_a_regression(self):
        def body(row, doc):
            _, num, den, threshold, _ = row
            set_rate(doc, den, 8.0)
            set_rate(doc, num, 8.0 * threshold * 0.9)
            self.assertEqual(self.verdict(doc, row), "REGRESSION")
        self.for_each_row(body)

    def test_each_row_flags_a_missing_case(self):
        def body(row, doc):
            drop_result(doc, row[1])
            self.assertEqual(self.verdict(doc, row), "MISSING")
        self.for_each_row(body)

    def test_only_parallel_rows_skip_below_four_threads(self):
        def body(row, doc):
            doc["hardware_threads"] = 2
            want = "OK" if row[4] == "never" else "SKIPPED"
            self.assertEqual(self.verdict(doc, row), want)
        self.for_each_row(body)

    def test_no_row_skips_in_smoke_mode(self):
        def body(row, doc):
            doc["mode"] = "smoke"
            self.assertEqual(self.verdict(doc, row), "OK")
        self.for_each_row(body)

    def test_a_skipped_row_cannot_hide_a_regression_elsewhere(self):
        doc = gate_ready_document("engine_scaling")
        doc["hardware_threads"] = 1
        set_rate(doc, "sparse_activity_frontier@1", 150.0)
        self.assertEqual([v for v, _ in check_bench_schema.check_gates(doc)],
                         ["SKIPPED", "REGRESSION"])

    def test_main_gate_flag_fails_on_regression_only(self):
        import json
        import tempfile
        doc = gate_ready_document("quantum_scaling")
        set_rate(doc, "gates@4", 55.0)
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            json.dump(doc, f)
            path = f.name
        self.assertEqual(check_bench_schema.main([path]), 0)
        self.assertEqual(check_bench_schema.main(["--gate", path]), 1)


class MainEntryTest(unittest.TestCase):
    def test_main_accepts_valid_file(self):
        import json
        import tempfile
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            json.dump(valid_document(), f)
            path = f.name
        self.assertEqual(check_bench_schema.main([path]), 0)

    def test_main_rejects_invalid_file(self):
        import json
        import tempfile
        doc = valid_document()
        del doc["sweep"]
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            json.dump(doc, f)
            path = f.name
        self.assertEqual(check_bench_schema.main([path]), 1)

    def test_main_rejects_garbage(self):
        import tempfile
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            f.write("{not json")
            path = f.name
        self.assertEqual(check_bench_schema.main([path]), 1)


if __name__ == "__main__":
    unittest.main()

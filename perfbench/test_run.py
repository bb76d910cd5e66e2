#!/usr/bin/env python3
"""Self-tests for the benchmark's own code on fixed inputs.

    python3 perfbench/test_run.py

Covers the report-line, `ok result` and probe-ledger parsers, the percentile
rule, quartile spreads and the accuracy -> load_ctl_err_pct conversion. No
program is built or run.
"""

import contextlib
import io
import json
import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

REPORT = """\
scenario name=peak-grid array=peak-grid device=seagate-7200 layout=raid5 disks=6 power=always-on modes=2 cells=3
mode rs=512 rn=0 rd=0
cell load=50 iops=151.08389582764534 mbps=0.07735495466375442 avg_response_ms=3028.448494103858 watts=46.00742607564825 energy_j=433.93494582399757 iops_per_watt=3.283902376525561 mbps_per_kilowatt=1.681358016781087 accuracy_iops=0.5282754580144831 accuracy_mbps=0.5282754580144831
cell load=100 iops=571.9890770451171 mbps=0.29285840744709996 avg_response_ms=27.926987983251482 watts=46.028114407120775 energy_j=230.62778846400118 iops_per_watt=12.42695001550243 mbps_per_kilowatt=6.362598407937243 accuracy_iops=1 accuracy_mbps=1
mode rs=4096 rn=50 rd=100
cell load=100 iops=300 mbps=1.2 avg_response_ms=5 watts=46 energy_j=100 iops_per_watt=6.5 mbps_per_kilowatt=26 accuracy_iops=1 accuracy_mbps=1
"""

OK_RESULT = ("ok result id=7 record=7 iops=1234.5 mbps=4.8222656 avg_response_ms=0.91 "
             "watts=41.25 energy_j=82.5 iops_per_watt=29.927272727272726 "
             "mbps_per_kilowatt=116.90 queue_ms=3 run_ms=12")


class ParserTests(unittest.TestCase):
    def test_report_cells_keep_exact_text(self):
        header, cells = run.parse_report(REPORT)
        self.assertEqual(header, {"name": "peak-grid", "modes": "2", "cells": "3"})
        self.assertEqual(len(cells), 3)
        first = cells[0]
        self.assertEqual((first["scenario"], first["rs"], first["rn"], first["rd"], first["load"]),
                         ("peak-grid", 512, 0, 0, 50))
        self.assertEqual(first["iops"], "151.08389582764534")
        self.assertEqual(cells[2]["rs"], 4096)
        self.assertEqual(cells[1]["accuracy_iops"], "1")

    def test_report_cell_count_must_match_header(self):
        with self.assertRaises(ValueError):
            run.parse_report(REPORT.replace("cells=3", "cells=4"))

    def test_report_rejects_non_finite_and_missing_fields(self):
        with self.assertRaises(ValueError):
            run.parse_report(REPORT.replace("iops=300 ", "iops=NaN "))
        with self.assertRaises(ValueError):
            run.parse_report(REPORT.replace("iops=300 ", "iops=inf "))
        with self.assertRaises(KeyError):
            run.parse_report(REPORT.replace(" watts=46 ", " "))

    def test_report_rejects_unknown_lines_and_orphan_cells(self):
        with self.assertRaises(ValueError):
            run.parse_report(REPORT + "panic at the disco\n")
        with self.assertRaises(ValueError):
            run.parse_report(REPORT.split("\n", 1)[1])

    def test_kv_rejects_duplicates_and_stray_words(self):
        self.assertEqual(run.parse_kv("ok pong"), (["ok", "pong"], {}))
        with self.assertRaises(ValueError):
            run.parse_kv("cell load=1 load=2")
        with self.assertRaises(ValueError):
            run.parse_kv("cell load=1 stray")

    def test_ok_result(self):
        r = run.parse_ok_result(OK_RESULT)
        self.assertEqual((r["id"], r["queue_ms"], r["run_ms"]), (7, 3, 12))
        self.assertEqual(r["iops_per_watt"], "29.927272727272726")
        self.assertIsNone(run.parse_ok_result("err pending id=7 state=running"))
        self.assertIsNone(run.parse_ok_result("ok submitted id=8"))
        with self.assertRaises(KeyError):
            run.parse_ok_result(OK_RESULT.replace(" run_ms=12", ""))
        with self.assertRaises(ValueError):
            run.parse_ok_result(OK_RESULT.replace("watts=41.25", "watts=nan"))

    def test_ledger(self):
        rows, ledger = run.parse_ledger(
            "job rs=4096 rn=0 rd=100 load=25 iops=1\n"
            "ledger total_ms=10.5 events=42 cell_ms=1.5,2.5\n")
        self.assertEqual(rows, [{"rs": "4096", "rn": "0", "rd": "100", "load": "25", "iops": "1"}])
        self.assertEqual(ledger, {"total_ms": 10.5, "events": 42.0, "cell_ms": [1.5, 2.5]})
        with self.assertRaises(ValueError):
            run.parse_ledger("job rs=1\n")

    def test_mismatches_compare_text_exactly(self):
        measured = [{"rs": 1, "load": 50, "iops": "1.5"}, {"rs": 1, "load": 100, "iops": "3"}]
        traced = [{"rs": "1", "load": "50", "iops": "1.5"},
                  {"rs": "1", "load": "100", "iops": "3.0000000000000004"}]
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(run.mismatches(measured, traced, ("rs", "load"), ("iops",)), 1)
            self.assertEqual(run.mismatches(measured, traced[:1], ("rs", "load"), ("iops",)), 1)
            self.assertEqual(run.mismatches(measured[:1], traced, ("rs", "load"), ("iops",)), 0)


class StatisticsTests(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(run.percentile(xs, 50), 3)
        self.assertEqual(run.percentile(xs, 0), 1)
        self.assertEqual(run.percentile(xs, 100), 5)
        self.assertAlmostEqual(run.percentile(xs, 90), 4.6)
        self.assertAlmostEqual(run.percentile(list(range(1, 101)), 90), 90.1)
        self.assertEqual(run.percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_percentile_rule_needs_ten_samples_beyond(self):
        self.assertIsNone(run.highest_percentile(19))
        self.assertEqual(run.highest_percentile(20), 50)
        self.assertEqual(run.highest_percentile(99), 50)
        self.assertEqual(run.highest_percentile(100), 90)
        self.assertEqual(run.highest_percentile(999), 90)
        self.assertEqual(run.highest_percentile(1000), 99)
        self.assertEqual(run.highest_percentile(10000), 99.9)
        self.assertGreaterEqual(run.MIN_JOBS, 100, "ssd-serve needs p90 by the rule")

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10, 11, 9, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.quartile_spread(values), (q3 - q1) / statistics.median(values))
        self.assertEqual(run.quartile_spread([2.0, 2.0, 2.0, 2.0]), 0.0)
        self.assertTrue(math.isinf(run.quartile_spread([0.0, 0.0, 0.0])))

    def test_load_ctl_err_pct(self):
        self.assertAlmostEqual(run.load_ctl_err_pct([1.0, 0.97, 1.02]), 3.0)
        self.assertAlmostEqual(run.load_ctl_err_pct([1.25]), 25.0)
        self.assertEqual(run.load_ctl_err_pct([1.0]), 0.0)
        # Serve: accuracy of a 50 % job is (iops_50 / iops_100) / 0.5.
        self.assertAlmostEqual(run.load_ctl_err_pct([(480.0 / 1000.0) / 0.5]), 4.0)


class FakeSpeed:
    samples = [run.CAL_REF_MS * 2]

    def time_scale(self):
        return run.CAL_REF_MS / self.samples[0]


class MetricSetTests(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_end_to_end_names_and_units_match_benchmark_json(self):
        e2e = run.end_to_end(FakeSpeed(), 0.25, [10.0], [5.0], 30.0, [100.0, 200.0])
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual({k: unit for k, (_, unit) in e2e.items()}, declared)
        # A machine twice as slow as the reference halves every time;
        # set-up time arrives scaled already.
        self.assertEqual(e2e["setup_s"][0], 0.25)
        self.assertEqual(e2e["job_ms_p50"][0], 75.0)
        self.assertEqual(e2e["cells_per_s"][0], 20.0)
        self.assertEqual(e2e["peak_rss_mb"][0], 30.0)

    def test_per_layer_names_and_units_match_benchmark_json(self):
        ledger = {k: 1.0 for k in ("total_ms", "parse_ms", "synth_ms", "synth_ios", "load_view_ms",
                                   "scan_ms", "scan_ios", "plan_ms", "plan_bunches",
                                   "selected_bunches", "selected_ios", "skipped_ios", "build_ms",
                                   "replay_ms", "events", "finalize_ms", "breakpoints",
                                   "commit_ms", "conservation_failures")}
        ledger["cell_ms"] = [1.0, 2.0]
        untraced = {"parallel_eff": 0.9, "cpu_s": 1.0, "obs_ratio": 1.0, "calib_ms": 40.0,
                    "load_ctl_err_pct": 1.0}
        layers = run.layer_metrics(ledger, untraced, None)
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual({k: unit for k, (_, unit) in layers.items()}, declared)


class InputTests(unittest.TestCase):
    def test_seed_changes_only_the_seed(self):
        a = run.peak_grid_scenario(1, 2)
        b = run.peak_grid_scenario(2, 2)
        self.assertNotEqual(a, b)
        self.assertEqual(a.replace("seed = 1\n", ""), b.replace("seed = 2\n", ""))
        for (_, x), (_, y) in zip(run.trace_scenarios(1, 2), run.trace_scenarios(9, 2)):
            self.assertEqual(x.replace("seed = 1\n", ""), y.replace("seed = 9\n", ""))

    def test_serve_job_grid(self):
        jobs = run.ssd_jobs()
        self.assertEqual(len(jobs), len(run.SSD_MODES) * len(run.SSD_LOADS))
        self.assertTrue(all((rs, rn, rd, 100) in jobs for rs, rn, rd, _ in run.SSD_MODES))


if __name__ == "__main__":
    unittest.main()

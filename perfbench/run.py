#!/usr/bin/env python3
"""Campaign benchmark for TRACER: three workloads through the release binaries.

    python3 perfbench/run.py --workload peak-grid --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

  peak-grid   `tracer sweep --scenario`: a 36-mode Fig. 10/11-shaped cross
              grid of closed-loop peak traces on the 6-disk RAID-5 HDD array,
              one partial load level per mode plus the 100 % baseline.
  trace-long  `tracer sweep --scenario` on the Table IV web trace and the
              Table V cello trace, 1200 simulated seconds each, all ten levels.
  ssd-serve   `tracer-serve --repo DIR --array ssd4 --log FILE`: one client
              runs a closed loop of submit/result jobs over a v3 trace
              repository the benchmark writes from its seed.

Every run builds the binaries (cargo, release profile), prepares inputs from
the seed, then runs campaigns untraced for `--seconds` and derives the
end-to-end metrics. It then makes one serial traced pass through the
benchmark's own probe (perfbench/probe), which times calls into each layer's
public functions and re-measures every distinct cell; those metrics must be
bit-equal to the untraced output. With `--trace 0` the last stdout line
carries the end-to-end metrics, with `--trace 1` the per-layer ledger.

The process exits 1 when an output check fails (after printing the result
line with "correct": false) and 2 when the benchmark cannot run at all.
"""

import argparse
import collections
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("peak-grid", "trace-long", "ssd-serve")

# Workload shapes. The seed changes every random draw, never the shape, so
# every seed does the same amount of work.
PEAK_RS = [512, 4096, 65536, 1048576]
PEAK_RN = [0, 50, 100]
PEAK_RD = [0, 50, 100]
PEAK_LOAD = 50
PEAK_SECONDS = 10
TRACE_SECONDS = 1200
# (rs, rn, rd, simulated seconds collected): each mode's 100 % job costs
# about the same, so job times spread smoothly instead of in a few steps.
SSD_MODES = [(4096, 0, 100, 3), (4096, 100, 100, 2), (4096, 100, 0, 12), (65536, 0, 0, 24),
             (65536, 100, 50, 16), (1048576, 0, 100, 48)]
SSD_LOADS = [25, 50, 75, 100]

SETUP_REPEATS = 15     # set-up is repeated and its median reported
WINDOW_S = 1.0         # the calibration kernel runs about this often
CAL_REF_MS = 40.0      # timings are scaled to this calibration kernel time (its
                       # median on the 2-vCPU VM the benchmark was built on)
MIN_CAMPAIGNS = 5      # sweep workloads run at least this many campaigns
MIN_JOBS = 120         # ssd-serve: enough jobs for >= 10 samples beyond p90
RSS_JOBS = 200         # ssd-serve: peak RSS is read once this many jobs finished
POLL_S = 0.001         # ssd-serve: pause between result polls that saw no progress
PROGRAM_TIMEOUT = 60   # seconds any single program invocation or reply may take
METRIC_FIELDS = ("iops", "mbps", "avg_response_ms", "watts", "energy_j",
                 "iops_per_watt", "mbps_per_kilowatt")


class BenchError(Exception):
    """The benchmark cannot run (missing sources, build failure, ...)."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, q):
    """The q-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def highest_percentile(n, candidates=(50, 90, 99, 99.9)):
    """The highest candidate percentile with at least ten of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for q in candidates:
        if round(n * (100 - q) / 100.0, 6) >= 10:
            best = q
    return best


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf


def load_ctl_err_pct(accuracies):
    """Largest load-control error |accuracy - 1| over cells, in percent."""
    return max(abs(a - 1.0) for a in accuracies) * 100.0


# ---------------------------------------------------------------------------
# Parsers for the program's output
# ---------------------------------------------------------------------------

def parse_kv(line):
    """Split `verb k=v k=v ...` into (verb words, {k: v}); values stay text."""
    words, fields = [], {}
    for tok in line.split():
        key, eq, value = tok.partition("=")
        if eq:
            if key in fields:
                raise ValueError(f"duplicate key {key!r} in {line!r}")
            fields[key] = value
        elif fields:
            raise ValueError(f"bare word {tok!r} after fields in {line!r}")
        else:
            words.append(tok)
    return words, fields


def finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def parse_report(text):
    """Parse a `tracer sweep --scenario` report into (header, cells).

    Each cell is a dict with `scenario`, `rs`, `rn`, `rd`, `load` and the
    metric fields as printed (strings, so comparisons are bit-exact).
    Raises ValueError on any malformed line or non-finite value."""
    header, cells, mode = None, [], None
    for line in text.splitlines():
        if not line.strip():
            continue
        words, f = parse_kv(line)
        if words == ["scenario"]:
            header = {k: f[k] for k in ("name", "modes", "cells")}
        elif words == ["mode"]:
            mode = (int(f["rs"]), int(f["rn"]), int(f["rd"]))
        elif words == ["cell"]:
            if header is None or mode is None:
                raise ValueError(f"cell before scenario/mode header: {line!r}")
            cell = {"scenario": header["name"], "rs": mode[0], "rn": mode[1],
                    "rd": mode[2], "load": int(f["load"])}
            for key in METRIC_FIELDS + ("accuracy_iops", "accuracy_mbps"):
                finite(f[key])
                cell[key] = f[key]
            cells.append(cell)
        elif words == ["trials"]:
            continue
        else:
            raise ValueError(f"unexpected report line {line!r}")
    if header is None:
        raise ValueError("report has no scenario header")
    if int(header["cells"]) != len(cells):
        raise ValueError(f"header says {header['cells']} cells, report has {len(cells)}")
    return header, cells


def parse_ok_result(line):
    """Parse `ok result id=N ... queue_ms=Q run_ms=R`; None for any other
    reply. Metric fields stay text, ids and phase times become ints."""
    words, f = parse_kv(line)
    if words != ["ok", "result"]:
        return None
    out = {"id": int(f["id"]), "queue_ms": int(f["queue_ms"]), "run_ms": int(f["run_ms"])}
    for key in METRIC_FIELDS:
        finite(f[key])
        out[key] = f[key]
    return out


def parse_ledger(text):
    """The probe's `cell`/`job` lines and its final `ledger` line."""
    rows, ledger = [], None
    for line in text.splitlines():
        words, f = parse_kv(line)
        if words in (["cell"], ["job"]):
            rows.append(f)
        elif words == ["ledger"]:
            cells = f.pop("cell_ms")
            ledger = {k: float(v) for k, v in f.items()}
            ledger["cell_ms"] = [float(x) for x in cells.split(",") if x]
    if ledger is None:
        raise ValueError("probe printed no ledger line")
    return rows, ledger


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def nproc():
    return max(1, len(os.sched_getaffinity(0)))


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the release binaries and the probe; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError(f"no Cargo workspace at {ROOT}")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "tracer-core", "--bin", "tracer",
         "-p", "tracer-serve", "--bin", "tracer-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "probe", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return {name: os.path.join(release, name)
            for name in ("tracer", "tracer-serve", "perfbench-probe")}


# One finished program invocation with its resource use.
Run = collections.namedtuple("Run", "stdout wall cpu rss_mb code stderr")


def run_program(argv, work):
    """Run argv to completion; measures wall, user+sys CPU and max RSS."""
    err_path = os.path.join(work, "stderr.txt")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(PROGRAM_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as err:
        stderr = err.read().decode(errors="replace")
    return Run(out.decode(), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
               proc.returncode, stderr)


def probe(bins, args, work):
    run = run_program([bins["perfbench-probe"]] + args, work)
    if run.code != 0:
        raise BenchError(f"probe {args[0]} failed: {run.stderr.strip()}")
    return run


class Speed:
    """Machine-speed samples from the probe's calibration kernel.

    A shared machine drifts in speed by tens of percent over a minute, and
    the drift slows every process alike. The kernel calls nothing in the
    program and runs on every core the program's workers use; it is sampled
    about once per WINDOW_S seconds while the program is idle, and every
    timing of the run is scaled by CAL_REF_MS over the median sample, so it
    reads as on a machine where the kernel takes CAL_REF_MS. Single samples
    are noisy; their median tracks the drift."""

    def __init__(self, bins, work):
        self.bins, self.work, self.samples = bins, work, []

    def sample(self):
        out = probe(self.bins, ["calibrate", "--threads", str(nproc())], self.work).stdout
        _, f = parse_kv(out.strip().splitlines()[-1])
        self.samples.append(finite(f["ms"]))

    def time_scale(self):
        """Factor that converts this run's host times to reference times."""
        return CAL_REF_MS / statistics.median(self.samples)


def timed_setups(speed, setup):
    """Run `setup` SETUP_REPEATS times, each followed by one calibration
    sample; returns (last result, median set-up seconds at reference speed).

    Each set-up is scaled by the sample taken right after it rather than by
    the run's median: set-up comes first, while the machine may still be
    settling from the build, so the run-wide speed would misjudge it."""
    scaled, result = [], None
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = setup(i)
        elapsed = time.perf_counter() - start
        speed.sample()
        scaled.append(elapsed * CAL_REF_MS / speed.samples[-1])
    return result, statistics.median(scaled)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

ARRAY = """[array]
device = "seagate-7200"
layout = "raid5"
disks = 6
"""


def peak_grid_scenario(seed, workers):
    def lst(xs):
        return "[" + ", ".join(str(x) for x in xs) + "]"
    return (f'[scenario]\nname = "peak-grid"\n\n{ARRAY}\n[workload]\nkind = "peak"\n'
            f"rs = {lst(PEAK_RS)}\nrn = {lst(PEAK_RN)}\nrd = {lst(PEAK_RD)}\n"
            f"seconds = {PEAK_SECONDS}\nseed = {seed}\n\n"
            f"[sweep]\nloads = [{PEAK_LOAD}]\nworkers = {workers}\n")


def trace_scenarios(seed, workers):
    """The Table IV web and Table V cello scenarios at paper scale."""
    web = (f'[scenario]\nname = "trace-web"\n\n{ARRAY}\n[workload]\nkind = "web"\n'
           f"rs = 22528\nrn = 50\nrd = 90\nseconds = {TRACE_SECONDS}\nmean_iops = 250.0\n"
           f'seed = {seed}\n\n[sweep]\nloads = "all"\nworkers = {workers}\n')
    cello = (f'[scenario]\nname = "trace-cello"\n\n{ARRAY}\n[workload]\nkind = "cello"\n'
             f"rs = 8192\nrn = 50\nrd = 58\nseconds = {TRACE_SECONDS}\nseed = {seed}\n\n"
             f'[sweep]\nloads = "all"\nworkers = {workers}\n')
    return [("trace-web", web), ("trace-cello", cello)]


def write_inputs(workload, seed, work, workers):
    """Write the workload's scenario files; returns (paths, expected cells)."""
    if workload == "peak-grid":
        files = [("peak-grid", peak_grid_scenario(seed, workers))]
        cells = len(PEAK_RS) * len(PEAK_RN) * len(PEAK_RD) * 2
    else:
        files = trace_scenarios(seed, workers)
        cells = 2 * 10
    paths = []
    for name, text in files:
        path = os.path.join(work, name + ".toml")
        with open(path, "w") as f:
            f.write(text)
        paths.append(path)
    return paths, cells


def warm_start_scenario(work):
    """A one-cell campaign on the same testbed: the program's fixed start-up
    cost (load, scenario parse, array build) with almost no replay."""
    path = os.path.join(work, "warm.toml")
    with open(path, "w") as f:
        f.write(f'[scenario]\nname = "warm"\n\n{ARRAY}\n[workload]\nkind = "peak"\n'
                "rs = 4096\nrn = 0\nrd = 100\nseconds = 1\nseed = 1\n\n"
                "[sweep]\nloads = [100]\nworkers = 1\n")
    return path


def ssd_jobs():
    return [(rs, rn, rd, load) for (rs, rn, rd, _) in SSD_MODES for load in SSD_LOADS]


def ssd_repo(bins, seed, repo, work):
    probe(bins, ["repo", "--dir", repo, "--seed", str(seed),
                 "--modes", ",".join(":".join(map(str, m)) for m in SSD_MODES)], work)


def ssd_traced(bins, repo, work):
    jobs = ",".join(f"{rs}:{rn}:{rd}:{ld}" for rs, rn, rd, ld in ssd_jobs())
    return probe(bins, ["serve", "--repo", repo, "--jobs", jobs], work).stdout


# ---------------------------------------------------------------------------
# Sweep workloads: peak-grid and trace-long
# ---------------------------------------------------------------------------

def sweep_campaign(bins, paths, work, obs=False):
    """One campaign: every scenario file through `tracer sweep --scenario`."""
    reports, wall, cpu, rss, ok = [], 0.0, 0.0, 0.0, True
    for i, path in enumerate(paths):
        argv = [bins["tracer"], "sweep", "--scenario", path]
        if obs:
            argv += ["--obs", os.path.join(work, f"obs{i}.jsonl")]
        run = run_program(argv, work)
        if run.code != 0:
            print(f"tracer sweep failed: {run.stderr.strip()}", file=sys.stderr)
            ok = False
        reports.append(run.stdout)
        wall += run.wall
        cpu += run.cpu
        rss = max(rss, run.rss_mb)
    return {"reports": reports, "wall": wall, "cpu": cpu, "rss": rss, "ok": ok}


def check_reports(campaign, expected_cells):
    """Parse one campaign's reports; returns (cells, failed cell count)."""
    if not campaign["ok"]:
        return [], expected_cells
    cells = []
    try:
        for text in campaign["reports"]:
            cells.extend(parse_report(text)[1])
    except (ValueError, KeyError) as e:
        print(f"report check failed: {e}", file=sys.stderr)
        return [], expected_cells
    if len(cells) != expected_cells:
        print(f"report has {len(cells)} cells, grid has {expected_cells}", file=sys.stderr)
        return cells, max(1, expected_cells - len(cells))
    return cells, 0


def run_sweep_workload(bins, args, work):
    workers = nproc()
    speed = Speed(bins, work)

    def setup(_):
        paths, expected = write_inputs(args.workload, args.seed, work, workers)
        warm = run_program([bins["tracer"], "sweep", "--scenario", warm_start_scenario(work)],
                           work)
        if warm.code != 0:
            raise BenchError(f"warm start failed: {warm.stderr.strip()}")
        return paths, expected

    (paths, expected), setup_s = timed_setups(speed, setup)

    # Untraced campaigns, with the calibration kernel between them about
    # once per WINDOW_S. With --trace 1 on trace-long each campaign is
    # followed by one with `--obs`; only the plain ones feed the timings.
    measure_obs = args.trace == 1 and args.workload == "trace-long"
    plain, with_obs = [], []
    deadline = time.perf_counter() + args.seconds
    calibrated = time.perf_counter()
    while time.perf_counter() < deadline or len(plain) < MIN_CAMPAIGNS:
        plain.append(sweep_campaign(bins, paths, work))
        if measure_obs:
            with_obs.append(sweep_campaign(bins, paths, work, obs=True))
        if time.perf_counter() - calibrated >= WINDOW_S:
            speed.sample()
            calibrated = time.perf_counter()
    speed.sample()

    failed, attempted = 0, 0
    first_cells, first_reports = None, None
    for campaign in plain + with_obs:
        cells, bad = check_reports(campaign, expected)
        attempted += expected
        failed += bad
        if bad:
            continue
        if first_reports is None:
            first_reports, first_cells = campaign["reports"], cells
        elif campaign["reports"] != first_reports:
            print("reports differ between campaigns of one seed", file=sys.stderr)
            failed += expected

    # Traced pass: serial, through the probe; its cells must match bit for bit.
    traced = probe(bins, ["sweep"] + [a for p in paths for a in ("--scenario", p)], work)
    rows, ledger = parse_ledger(traced.stdout)
    failed += int(ledger["conservation_failures"])
    failed += mismatches(first_cells or [], rows, ("scenario", "rs", "rn", "rd", "load"),
                         METRIC_FIELDS + ("accuracy_iops", "accuracy_mbps"))

    accuracies = [float(c["accuracy_iops"]) for c in first_cells or []]
    e2e = end_to_end(speed, setup_s, rates=[expected / c["wall"] for c in plain],
                     cpu_ms=[c["cpu"] * 1e3 / expected for c in plain],
                     rss_mb=statistics.median(c["rss"] for c in plain),
                     latencies_ms=[c["wall"] * 1e3 for c in plain])
    untraced = {
        "parallel_eff": statistics.median(c["cpu"] / (c["wall"] * workers) for c in plain),
        "cpu_s": statistics.median(c["cpu"] for c in plain),
        "obs_ratio": (statistics.median(o["cpu"] / p["cpu"] for p, o in zip(plain, with_obs))
                      if with_obs else 0.0),
        "calib_ms": statistics.median(speed.samples),
        "load_ctl_err_pct": load_ctl_err_pct(accuracies) if accuracies else math.nan,
    }
    print(f"campaigns={len(plain)} calib_ms={untraced['calib_ms']:.6g} "
          f"raw_cells_per_s={statistics.median(expected / c['wall'] for c in plain):.6g}")
    return e2e, layer_metrics(ledger, untraced, None), attempted, failed


def end_to_end(speed, setup_s, rates, cpu_ms, rss_mb, latencies_ms):
    """The end-to-end metrics from raw host measurements: medians (and the
    p90 of job times), with every timing scaled to the reference speed
    (`setup_s` comes scaled already, see `timed_setups`)."""
    k = speed.time_scale()
    return {
        "setup_s": (setup_s, "s"),
        "cells_per_s": (statistics.median(rates) / k, "1/s"),
        "cpu_ms_per_cell": (statistics.median(cpu_ms) * k, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "job_ms_p50": (percentile(latencies_ms, 50) * k, "ms"),
        "job_ms_p90": (percentile(latencies_ms, 90) * k, "ms"),
    }


def mismatches(measured, traced, key_fields, value_fields):
    """Cells whose traced values differ from the untraced ones (bit-exact
    text comparison); every untraced cell must have a traced twin."""
    index = {}
    for row in traced:
        index[tuple(str(row[k]) for k in key_fields)] = row
    bad = 0
    for cell in measured:
        key = tuple(str(cell[k]) for k in key_fields)
        twin = index.get(key)
        if twin is None or any(twin.get(f) != cell[f] for f in value_fields):
            print(f"traced pass disagrees with the untraced output at {key}", file=sys.stderr)
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# ssd-serve
# ---------------------------------------------------------------------------

class Server:
    """A running tracer-serve process and one client connection."""

    def __init__(self, bins, repo, log, work, workers):
        self.err = open(os.path.join(work, "serve-stderr.txt"), "wb")
        self.proc = subprocess.Popen(
            [bins["tracer-serve"], "--repo", repo, "--array", "ssd4", "--workers", str(workers),
             "--log", log, "--port", "0"],
            cwd=work, stdout=subprocess.PIPE, stderr=self.err, text=True)
        self.sock = None
        try:
            banner = self.proc.stdout.readline()
            words = banner.split()
            if words[:3] != ["evaluation", "service", "on"]:
                raise BenchError(f"tracer-serve did not start: {banner!r}")
            host, _, port = words[3].rpartition(":")
            self.sock = socket.create_connection((host, int(port)), timeout=PROGRAM_TIMEOUT)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.io = self.sock.makefile("rw", encoding="ascii", newline="\n")
        except BaseException:
            self.kill()
            raise

    def send(self, line):
        self.io.write(line + "\n")
        self.io.flush()
        reply = self.io.readline()
        if not reply:
            raise BenchError(f"server closed the connection after {line!r}")
        return reply.strip()

    def peak_rss_mb(self):
        """The server's peak RSS so far. The server keeps every finished
        job, so its RSS creeps up with the job count; reading it at a fixed
        count keeps runs of different speed comparable."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def cpu_s(self):
        """User+sys CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def shutdown(self):
        """Drain and stop; returns the number of jobs done."""
        reply = self.send("shutdown")
        self.io.close()
        self.sock.close()
        self.sock = None
        self.proc.stdout.read()
        self.proc.wait()
        self.proc.stdout.close()
        self.err.close()
        words, f = parse_kv(reply)
        if words != ["ok", "stopped"] or self.proc.returncode != 0:
            raise BenchError(f"tracer-serve did not stop cleanly: {reply!r}")
        return int(f["done"])

    def kill(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def run_ssd_serve(bins, args, work):
    workers = nproc()
    speed = Speed(bins, work)
    servers = []

    def setup(i):
        """Seed -> v3 trace repository -> a server answering `ping`."""
        if servers:
            servers.pop().shutdown()
        repo, log = os.path.join(work, f"repo{i}"), os.path.join(work, f"jobs{i}.log")
        ssd_repo(bins, args.seed, repo, work)
        servers.append(Server(bins, repo, log, work, workers))
        if servers[-1].send("ping") != "ok pong":
            raise BenchError("tracer-serve did not answer ping")
        return repo, log

    try:
        (repo, log), setup_s = timed_setups(speed, setup)
        return drive_ssd_serve(bins, args, work, speed, servers[-1], repo, log, setup_s, workers)
    finally:
        for server in servers:
            server.kill()


class Client:
    """The closed-loop client: submits cycle through the job grid, and never
    more jobs are outstanding than the server's queue holds, so a strict
    submit can never be refused."""

    def __init__(self, server, capacity):
        self.server, self.capacity = server, capacity
        self.jobs, self.next_job = ssd_jobs(), 0
        self.results = {}       # job -> metric texts of its first result
        self.done = []          # (latency ms, queue_ms, run_ms) per finished job
        self.attempted = self.failed = self.busy = 0
        self.seen_ended = 0

    def window(self, seconds):
        """Submit for `seconds`, then drain; returns (jobs finished, wall).

        Results are fetched only after `stats` shows that more jobs have
        ended, so an idle poll costs one request, not one per job."""
        outstanding, finished = [], 0
        start = time.perf_counter()
        while True:
            submitting = time.perf_counter() - start < seconds
            while submitting and len(outstanding) < self.capacity:
                outstanding.append(self.submit())
            outstanding = [e for e in outstanding if e is not None]
            if not outstanding:
                break
            ended = self.ended()
            if ended == self.seen_ended:
                time.sleep(POLL_S)
                continue
            self.seen_ended = ended
            for entry in list(outstanding):
                if self.poll(entry):
                    outstanding.remove(entry)
                    finished += 1
        return finished, time.perf_counter() - start

    def ended(self):
        """Jobs the server has finished in any way, from the `stats` verb."""
        _, f = parse_kv(self.server.send("stats"))
        return sum(int(f[k]) for k in ("done", "failed", "cancelled", "expired"))

    def submit(self):
        rs, rn, rd, load = job = self.jobs[self.next_job % len(self.jobs)]
        self.next_job += 1
        self.attempted += 1
        at = time.perf_counter()
        reply = self.server.send(f"submit device=raid5-ssd4 rs={rs} rn={rn} rd={rd} load={load}")
        words, f = parse_kv(reply)
        if words == ["ok", "submitted"]:
            return int(f["id"]), job, at
        self.busy += reply.startswith("err busy")
        self.failed += 1
        print(f"submit refused: {reply}", file=sys.stderr)
        return None

    def poll(self, entry):
        """Ask for one job's result; True once the job has ended."""
        job_id, job, at = entry
        reply = self.server.send(f"result id={job_id}")
        if reply.startswith("err pending"):
            return False
        latency = (time.perf_counter() - at) * 1e3
        try:
            result = parse_ok_result(reply)
        except (ValueError, KeyError):
            result = None
        if result is None:
            self.failed += 1
            print(f"job {job} did not end in ok result: {reply}", file=sys.stderr)
            return True
        texts = {k: result[k] for k in METRIC_FIELDS}
        if self.results.setdefault(job, texts) != texts:
            self.failed += 1
            print(f"job {job} returned different results across repeats", file=sys.stderr)
            return True
        self.done.append((latency, result["queue_ms"], result["run_ms"]))
        return True


def drive_ssd_serve(bins, args, work, speed, server, repo, log, setup_s, workers):
    _, stats = parse_kv(server.send("stats"))
    client = Client(server, int(stats["capacity"]))
    rates, cpu_ms = [], []
    cpu_total = busy_wall = 0.0
    rss = None
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or len(client.done) < MIN_JOBS
           or rss is None):
        cpu_before = server.cpu_s()
        finished, wall = client.window(WINDOW_S)
        cpu = server.cpu_s() - cpu_before
        cpu_total += cpu
        busy_wall += wall
        if rss is None and len(client.done) >= RSS_JOBS:
            rss = server.peak_rss_mb()
        speed.sample()
        if finished:
            rates.append(finished / wall)
            cpu_ms.append(cpu * 1e3 / finished)
    log_bytes = os.path.getsize(log)
    done = server.shutdown()
    n = len(client.done)
    failed = client.failed
    if done != n:
        print(f"server reports {done} jobs done, client saw {n}", file=sys.stderr)
        failed += abs(done - n)
    if (highest_percentile(n) or 0) < 90:
        raise BenchError(f"only {n} jobs: too few for p90")

    # Traced pass over every distinct job, serially; bit-equal to the server.
    rows, ledger = parse_ledger(ssd_traced(bins, repo, work))
    failed += int(ledger["conservation_failures"])
    measured = [dict(zip(("rs", "rn", "rd", "load"), job), **texts)
                for job, texts in client.results.items()]
    failed += mismatches(measured, rows, ("rs", "rn", "rd", "load"), METRIC_FIELDS)

    # Load-control accuracy against each mode's 100 % job.
    accuracies = []
    for (rs, rn, rd, _) in SSD_MODES:
        full = client.results.get((rs, rn, rd, 100))
        for load in SSD_LOADS:
            part = client.results.get((rs, rn, rd, load))
            if full and part and load != 100:
                accuracies.append(float(part["iops"]) / float(full["iops"]) / (load / 100.0))
    latencies = [lat for lat, _, _ in client.done]
    e2e = end_to_end(speed, setup_s, rates, cpu_ms, rss, latencies)
    untraced = {
        "parallel_eff": cpu_total / (busy_wall * workers),
        "cpu_s": cpu_total / n * len(client.jobs),
        "obs_ratio": 0.0,
        "calib_ms": statistics.median(speed.samples),
        "load_ctl_err_pct": load_ctl_err_pct(accuracies) if accuracies else math.nan,
    }
    wire = [lat - q - r for lat, q, r in client.done]
    serve = {
        "serve.queue_ms_p50": (percentile([q for _, q, _ in client.done], 50), "ms"),
        "serve.run_ms_p50": (percentile([r for _, _, r in client.done], 50), "ms"),
        "serve.wire_ms_p50": (percentile(wire, 50), "ms"),
        "serve.busy_refusals": (client.busy, "count"),
        "joblog.bytes_per_job": (log_bytes / n, "bytes"),
    }
    print(f"jobs={n} windows={len(rates)} calib_ms={untraced['calib_ms']:.6g} "
          f"raw_job_ms_p50={percentile(latencies, 50):.6g}")
    return e2e, layer_metrics(ledger, untraced, serve), client.attempted, failed


# ---------------------------------------------------------------------------
# Per-layer ledger
# ---------------------------------------------------------------------------

def layer_metrics(L, untraced, serve):
    """Per-layer metrics from the probe's ledger and the untraced runs.

    The probe's standalone plan walk and trace scan duplicate work that
    `replay` already does (to time those layers on their own), so they are
    benchmark overhead: excluded from the attributed sum and from
    core.unattributed_ms alike."""
    des_ms = max(L["replay_ms"] - L["plan_ms"], 0.0)
    attributed = (L["parse_ms"] + L["synth_ms"] + L["load_view_ms"] + L["build_ms"]
                  + L["replay_ms"] + L["finalize_ms"] + L["commit_ms"])
    duplicate = L["plan_ms"] + L["scan_ms"]
    total = L["total_ms"]
    cells = L["cell_ms"]

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    out = {
        "scenario.parse_ms": (L["parse_ms"], "ms"),
        "workload.synth_ms": (L["synth_ms"], "ms"),
        "workload.synth_share": (per(L["synth_ms"], total, 1.0), "ratio"),
        "workload.synth_ios": (L["synth_ios"], "count"),
        "replay.plan_ms": (L["plan_ms"], "ms"),
        "replay.select_ratio": (per(L["selected_bunches"], L["plan_bunches"], 1.0), "ratio"),
        "replay.skipped_ios": (L["skipped_ios"], "count"),
        "sim.build_ms": (L["build_ms"], "ms"),
        "sim.des_ms": (des_ms, "ms"),
        "sim.events": (L["events"], "count"),
        "sim.ns_per_event": (per(des_ms, L["events"], 1e6), "ns"),
        "power.finalize_ms": (L["finalize_ms"], "ms"),
        "power.breakpoints": (L["breakpoints"], "count"),
        "power.ns_per_breakpoint": (per(L["finalize_ms"], L["breakpoints"], 1e6), "ns"),
        "core.commit_ms": (L["commit_ms"], "ms"),
        "core.cell_ms_p50": (percentile(cells, 50), "ms"),
        "core.cell_ms_p90": (percentile(cells, 90), "ms"),
        "core.traced_total_ms": (total, "ms"),
        "core.unattributed_ms": (total - attributed - duplicate, "ms"),
        "core.parallel_eff": (untraced["parallel_eff"], "ratio"),
        "trace.load_view_ms": (L["load_view_ms"], "ms"),
        "trace.scan_ns_per_io": (per(L["scan_ms"], L["scan_ios"], 1e6), "ns"),
        "serve.queue_ms_p50": (0.0, "ms"),
        "serve.run_ms_p50": (0.0, "ms"),
        "serve.wire_ms_p50": (0.0, "ms"),
        "serve.busy_refusals": (0, "count"),
        "joblog.bytes_per_job": (0.0, "bytes"),
        "obs.overhead_ratio": (untraced["obs_ratio"], "ratio"),
        "tracing.overhead_ratio": (per(total, untraced["cpu_s"], 1e-3), "ratio"),
        "host.calib_ms": (untraced["calib_ms"], "ms"),
        "replay.load_ctl_err_pct": (untraced["load_ctl_err_pct"], "%"),
    }
    if serve:
        out.update(serve)
    return out


# ---------------------------------------------------------------------------
# Seed self-check
# ---------------------------------------------------------------------------

def traced_only(bins, args, work):
    """Only the serial traced pass: prints the probe's cell/job lines and
    its raw ledger, with no untraced runs and no result line."""
    if args.workload == "ssd-serve":
        repo = os.path.join(work, "repo")
        ssd_repo(bins, args.seed, repo, work)
        out = ssd_traced(bins, repo, work)
    else:
        paths, _ = write_inputs(args.workload, args.seed, work, nproc())
        out = probe(bins, ["sweep"] + [a for p in paths for a in ("--scenario", p)], work).stdout
    print(out, end="")
    rows, ledger = parse_ledger(out)
    return 0 if rows and ledger["conservation_failures"] == 0 else 1


def seed_check(bins, args, work):
    """Two seeds must give reports of the same shape with different values."""
    shapes, values = [], []
    for seed in (args.seed, args.seed + 1):
        if args.workload == "ssd-serve":
            repo = os.path.join(work, f"seed{seed}")
            ssd_repo(bins, seed, repo, work)
            rows, _ = parse_ledger(ssd_traced(bins, repo, work))
            shapes.append([(r["rs"], r["rn"], r["rd"], r["load"]) for r in rows])
            values.append([r["iops"] for r in rows])
        else:
            paths, _ = write_inputs(args.workload, seed, work, nproc())
            cells = []
            for text in sweep_campaign(bins, paths, work)["reports"]:
                cells.extend(parse_report(text)[1])
            shapes.append([(c["scenario"], c["rs"], c["rn"], c["rd"], c["load"]) for c in cells])
            values.append([c["iops"] for c in cells])
    same_shape = shapes[0] == shapes[1] and len(shapes[0]) > 0
    differ = values[0] != values[1]
    print(f"seed check {args.workload}: seeds {args.seed},{args.seed + 1} "
          f"cells={len(shapes[0])} same_shape={same_shape} values_differ={differ}")
    return same_shape and differ


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-check", action="store_true",
                    help="check that this seed and the next give same-shape, different reports")
    ap.add_argument("--traced-only", action="store_true",
                    help="run only the serial traced pass and print its raw ledger")
    args = ap.parse_args(argv)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} workers={nproc()}")
    try:
        bins = build()
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        work = tempfile.mkdtemp(prefix=args.workload + "-", dir=os.path.join(ROOT, ".bench_work"))
        try:
            if args.seed_check:
                return 0 if seed_check(bins, args, work) else 1
            if args.traced_only:
                return traced_only(bins, args, work)
            runner = run_ssd_serve if args.workload == "ssd-serve" else run_sweep_workload
            e2e, layers, attempted, failed = runner(bins, args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    chosen = layers if args.trace else e2e
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}
    nonfinite = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    if nonfinite:
        print(f"non-finite metrics: {nonfinite}", file=sys.stderr)
        for name in nonfinite:
            metrics[name]["value"] = 0.0
    correct = failed == 0 and not nonfinite
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

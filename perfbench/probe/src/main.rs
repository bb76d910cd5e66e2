//! Traced pass of the campaign benchmark (`perfbench/run.py`).
//!
//! The untraced runs drive the release binaries and see only wall time,
//! CPU and memory. This program replays the same cells serially through the
//! library's public layer functions, timing each call with
//! `std::time::Instant`, so a campaign's time can be attributed layer by
//! layer: scenario parse, workload synthesis, replay planning, array build,
//! discrete-event simulation, power integration, result commit, and — for
//! the serve workload — trace-store loads and scans. Nothing inside the
//! program is instrumented.
//!
//! Each cell's metrics are printed with `{}` (shortest round trip), the
//! format of the scenario report and of serve's `ok result` line, so the
//! benchmark can compare them bit for bit against the untraced output.
//!
//! Subcommands:
//!
//! ```text
//! perfbench-probe repo  --dir DIR --seed N --modes RS:RN:RD:SECONDS,...
//! perfbench-probe sweep --scenario FILE [--scenario FILE ...]
//! perfbench-probe serve --repo DIR --jobs RS:RN:RD:LOAD,...
//! perfbench-probe calibrate --threads N
//! ```
//!
//! `repo` writes a v3 trace repository for the `ssd4` array. `sweep` and
//! `serve` print one `cell` or `job` line per measurement and end with one
//! `ledger` line of `key=value` layer totals. `calibrate` times a fixed
//! kernel that calls nothing in the program (see [`cmd_calibrate`]).

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use tracer_core::db::{PowerData, TestRecord};
use tracer_core::{AccuracyRow, EfficiencyMetrics, EvaluationHost, MeasuredTest, ScenarioSpec};
use tracer_power::{Channel, PowerAnalyzer};
use tracer_replay::{replay, LoadControl, ReplayConfig, ReplayPlan};
use tracer_sim::{ArraySim, ArraySpec, SimDuration};
use tracer_trace::{BunchSource, TraceRepository, WorkloadMode};
use tracer_workload::iometer::{run_peak_workload, IometerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("repo") => cmd_repo(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("calibrate") => cmd_calibrate(&args[1..]),
        _ => Err("usage: perfbench-probe (repo|sweep|serve|calibrate) [flags]".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every value given for `--name`, in order.
fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.windows(2).filter(|w| w[0] == name).map(|w| w[1].as_str()).collect()
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag_values(args, name).first().copied().ok_or_else(|| format!("missing {name}"))
}

fn number<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what} {s:?}"))
}

/// Parse comma-separated `RS:RN:RD:N` items into (peak mode, N).
fn mode_items(list: &str) -> Result<Vec<(WorkloadMode, u32)>, String> {
    list.split(',')
        .map(|item| match item.split(':').collect::<Vec<_>>()[..] {
            [rs, rn, rd, n] => Ok((
                WorkloadMode::peak(number(rs, "rs")?, number(rn, "rn")?, number(rd, "rd")?),
                number(n, "count")?,
            )),
            _ => Err(format!("bad mode {item:?}")),
        })
        .collect()
}

/// The serve workload's testbed: the CLI's `--array ssd4`.
fn ssd4() -> ArraySpec {
    ArraySpec::ssd_raid5(4)
}

/// `--modes RS:RN:RD:SECONDS,...`: one closed-loop peak trace per mode,
/// collected for SECONDS simulated seconds.
fn cmd_repo(args: &[String]) -> Result<(), String> {
    let dir = flag(args, "--dir")?;
    let seed: u64 = number(flag(args, "--seed")?, "seed")?;
    let repo = TraceRepository::open(dir).map_err(|e| e.to_string())?;
    let array = ssd4();
    let mut ios = 0usize;
    let list = mode_items(flag(args, "--modes")?)?;
    for (i, (mode, seconds)) in list.iter().enumerate() {
        let mut sim = array.build();
        let cfg = IometerConfig {
            duration: SimDuration::from_secs(u64::from(*seconds)),
            ..IometerConfig::two_minutes(*mode, seed.wrapping_mul(1000).wrapping_add(i as u64))
        };
        let trace = run_peak_workload(&mut sim, &cfg).trace;
        ios += trace.io_count();
        repo.store_v3(mode, &trace).map_err(|e| e.to_string())?;
    }
    println!("repo device={} traces={} ios={ios}", array.name, list.len());
    Ok(())
}

/// Layer totals of one traced pass. Times are milliseconds of host time.
#[derive(Default)]
struct Ledger {
    parse_ms: f64,
    synth_ms: f64,
    synth_ios: u64,
    load_view_ms: f64,
    scan_ms: f64,
    scan_ios: u64,
    plan_ms: f64,
    plan_bunches: u64,
    selected_bunches: u64,
    selected_ios: u64,
    skipped_ios: u64,
    build_ms: f64,
    replay_ms: f64,
    events: u64,
    finalize_ms: f64,
    breakpoints: u64,
    commit_ms: f64,
    conservation_failures: u64,
    cell_ms: Vec<f64>,
}

impl Ledger {
    fn print(&self, total_ms: f64) {
        let mut line = String::from("ledger");
        let _ = write!(
            line,
            " total_ms={total_ms} parse_ms={} synth_ms={} synth_ios={} load_view_ms={} \
             scan_ms={} scan_ios={} plan_ms={} plan_bunches={} selected_bunches={} \
             selected_ios={} skipped_ios={} build_ms={} replay_ms={} events={} \
             finalize_ms={} breakpoints={} commit_ms={} conservation_failures={}",
            self.parse_ms,
            self.synth_ms,
            self.synth_ios,
            self.load_view_ms,
            self.scan_ms,
            self.scan_ios,
            self.plan_ms,
            self.plan_bunches,
            self.selected_bunches,
            self.selected_ios,
            self.skipped_ios,
            self.build_ms,
            self.replay_ms,
            self.events,
            self.finalize_ms,
            self.breakpoints,
            self.commit_ms,
            self.conservation_failures
        );
        let cells: Vec<String> = self.cell_ms.iter().map(f64::to_string).collect();
        let _ = write!(line, " cell_ms={}", cells.join(","));
        println!("{line}");
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// One cell, step for step as `EvaluationHost::measure_test` followed by
/// `EvaluationHost::commit`, with each layer call timed.
fn traced_cell<S: BunchSource + ?Sized>(
    ledger: &mut Ledger,
    host: &mut EvaluationHost,
    array: &ArraySpec,
    trace: &S,
    mode: WorkloadMode,
) -> EfficiencyMetrics {
    let cell_start = Instant::now();
    let t = Instant::now();
    let mut sim: ArraySim = array.build();
    ledger.build_ms += ms(t);

    let load = LoadControl { proportion_pct: mode.load_pct, intensity_pct: 100 };
    let t = Instant::now();
    let plan = ReplayPlan::new(trace, load);
    let (mut bunches, mut ios) = (0u64, 0u64);
    let walked = plan.try_for_each(&mut |_, batch| {
        bunches += 1;
        ios += batch.len() as u64;
    });
    ledger.plan_ms += ms(t);
    if walked.is_err() {
        ledger.conservation_failures += 1;
    }
    ledger.plan_bunches += trace.bunch_count() as u64;
    ledger.selected_bunches += bunches;
    ledger.selected_ios += ios;

    let cfg = ReplayConfig { load, ..Default::default() };
    let t = Instant::now();
    let report = replay(&mut sim, trace, &cfg);
    ledger.replay_ms += ms(t);
    ledger.events += sim.events_processed();
    ledger.skipped_ios += report.skipped_ios;
    // Conservation: every selected I/O is issued or skipped, and every
    // issued I/O completes.
    if report.issued_ios != report.completions.len() as u64
        || report.issued_ios + report.skipped_ios != ios
    {
        ledger.conservation_failures += 1;
    }

    let mut analyzer = PowerAnalyzer::new();
    let mut channel = Channel::ac_220v(sim.config().name.clone());
    channel.meter.cycle = SimDuration::from_millis(host.meter_cycle_ms.max(1));
    analyzer.add_channel(channel);
    analyzer.start(report.started);
    let window_end = if report.finished > report.started {
        report.finished
    } else {
        report.started + SimDuration::from_nanos(1)
    };
    let t = Instant::now();
    let energy = analyzer.finalize(window_end, &[sim.power_log()]).pop();
    ledger.finalize_ms += ms(t);
    ledger.breakpoints += sim.power_log().devices.iter().map(|d| d.len() as u64).sum::<u64>();
    let energy = energy.expect("one channel configured");

    let metrics = EfficiencyMetrics::from_parts(&report.summary, &energy);
    let record = TestRecord {
        id: 0,
        label: String::new(),
        device: sim.config().name.clone(),
        mode,
        power: PowerData {
            volts: 220.0,
            avg_amps: metrics.avg_watts / 220.0,
            avg_watts: metrics.avg_watts,
            energy_joules: metrics.energy_joules,
        },
        perf: report.summary,
        efficiency: metrics,
    };
    let t = Instant::now();
    host.commit(MeasuredTest { record, report, metrics });
    ledger.commit_ms += ms(t);
    ledger.cell_ms.push(ms(cell_start));
    metrics
}

fn metric_fields(m: &EfficiencyMetrics) -> String {
    format!(
        "iops={} mbps={} avg_response_ms={} watts={} energy_j={} iops_per_watt={} \
         mbps_per_kilowatt={}",
        m.iops,
        m.mbps,
        m.avg_response_ms,
        m.avg_watts,
        m.energy_joules,
        m.iops_per_watt,
        m.mbps_per_kilowatt
    )
}

/// The swept levels: the scenario's loads plus the 100 % baseline,
/// ascending — the order `tracer sweep` reports them in.
fn levels(loads: &[u32]) -> Vec<u32> {
    let mut levels = loads.to_vec();
    levels.push(100);
    levels.sort_unstable();
    levels.dedup();
    levels
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let files = flag_values(args, "--scenario");
    if files.is_empty() {
        return Err("missing --scenario".to_string());
    }
    let total = Instant::now();
    let mut ledger = Ledger::default();
    for file in files {
        let t = Instant::now();
        let spec = ScenarioSpec::from_file(Path::new(file)).map_err(|e| e.to_string())?;
        ledger.parse_ms += ms(t);
        let mut host = EvaluationHost::new();
        for mode in spec.workload.modes() {
            let t = Instant::now();
            let trace = spec.workload.trace(&spec.array, mode, 0);
            ledger.synth_ms += ms(t);
            ledger.synth_ios += trace.io_count() as u64;
            let levels = levels(&spec.loads);
            let measured: Vec<EfficiencyMetrics> = levels
                .iter()
                .map(|&pct| {
                    traced_cell(&mut ledger, &mut host, &spec.array, &trace, mode.at_load(pct))
                })
                .collect();
            let full = measured.last().expect("levels hold the baseline");
            for (&pct, m) in levels.iter().zip(&measured) {
                let row = AccuracyRow::new(pct, m.iops, m.mbps, full.iops, full.mbps);
                println!(
                    "cell scenario={} rs={} rn={} rd={} load={pct} {} accuracy_iops={} \
                     accuracy_mbps={}",
                    spec.name,
                    mode.request_bytes,
                    mode.random_pct,
                    mode.read_pct,
                    metric_fields(m),
                    row.accuracy_iops,
                    row.accuracy_mbps
                );
            }
        }
    }
    ledger.print(ms(total));
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let total = Instant::now();
    let repo = TraceRepository::open(flag(args, "--repo")?).map_err(|e| e.to_string())?;
    let jobs = mode_items(flag(args, "--jobs")?)?.into_iter().map(|(m, load)| m.at_load(load));
    let array = ssd4();
    let mut ledger = Ledger::default();
    let mut host = EvaluationHost::new();
    for mode in jobs {
        // `tracer-serve --repo` resolves every submit through `load_view`.
        let t = Instant::now();
        let handle = repo.load_view(&array.name, &mode).map_err(|e| e.to_string())?;
        ledger.load_view_ms += ms(t);
        let t = Instant::now();
        let mut ios = 0u64;
        handle
            .try_for_each_bunch(&mut |_, batch| ios += batch.len() as u64)
            .map_err(|e| e.to_string())?;
        ledger.scan_ms += ms(t);
        ledger.scan_ios += ios;
        let m = traced_cell(&mut ledger, &mut host, &array, &handle, mode);
        println!(
            "job rs={} rn={} rd={} load={} {}",
            mode.request_bytes,
            mode.random_pct,
            mode.read_pct,
            mode.load_pct,
            metric_fields(&m)
        );
    }
    ledger.print(ms(total));
    Ok(())
}

/// A fixed CPU kernel shaped like the simulator's hot loop: a binary-heap
/// event queue whose events update a 256 KiB table at pseudo-random slots.
/// It calls nothing in the program, so its time tracks only the machine's
/// current speed; the benchmark scales its timings by it. `--threads N` runs
/// N copies at once (one per core the program's workers use); the median
/// over three repetitions of their mean time is printed.
fn cmd_calibrate(args: &[String]) -> Result<(), String> {
    const ROUNDS: u64 = 200_000;
    let threads: usize = number(flag(args, "--threads")?, "threads")?;
    let mut checksum = 0u64;
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let runs: Vec<(f64, u64)> = std::thread::scope(|s| {
                let handles: Vec<_> =
                    (0..threads.max(1)).map(|_| s.spawn(|| calibration_kernel(ROUNDS))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration thread panicked"))
                    .collect()
            });
            checksum = runs.iter().fold(checksum, |a, r| a.wrapping_add(r.1));
            runs.iter().map(|r| r.0).sum::<f64>() / runs.len() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    println!("calibrate ms={} checksum={checksum}", times[1]);
    Ok(())
}

fn calibration_kernel(rounds: u64) -> (f64, u64) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let t = Instant::now();
    let mask = (1usize << 15) - 1;
    let mut table: Vec<u64> = (0..=mask as u64).collect();
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
        (0..65_536u32).map(|i| Reverse((u64::from(i), i))).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..rounds {
        let Some(Reverse((at, slot))) = heap.pop() else { break };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize ^ slot as usize) & mask;
        table[i] = table[i].wrapping_add(at);
        heap.push(Reverse((at + (table[i] & 1023) + 1, slot)));
    }
    let checksum = table.iter().fold(heap.len() as u64, |a, &v| a.wrapping_add(v));
    (ms(t), checksum)
}

//! `perf_parallel_des` — serial DES throughput on a wave-dense workload.
//!
//! The workload is wide full-stripe reads on an 8-member array: every phase
//! fans out to every disk, so the engine sees bursts of same-time
//! `DiskFree` events on distinct members. The RESULT line records the
//! full-engine serial throughput, which CI gates — it is the absolute
//! hot-path number the calendar queue and SoA store bought. (The name
//! predates the removal of the intra-array parallel engine; cell-level
//! parallelism lives in the sweep executor.)

use std::hint::black_box;
use std::time::Instant;
use tracer_bench::{banner, json_result};
use tracer_sim::device::OpKind;
use tracer_sim::{ArrayRequest, ArraySim, ArraySpec, SimDuration, SimTime};

const REQUESTS: u64 = 4_000;

/// Submit wide stripe reads on a tight cadence, keeping every member busy.
fn submit_all(sim: &mut ArraySim) {
    let mut at = SimTime::ZERO;
    for i in 0..REQUESTS {
        at += SimDuration::from_micros(400);
        sim.submit(at, ArrayRequest::new((i * 14_336) % 40_000_000, 2 << 20, OpKind::Read))
            .expect("submit");
    }
}

/// Run the workload to idle; returns (events, seconds, completions).
fn run() -> (u64, f64, usize) {
    let mut sim = ArraySpec::hdd_raid5(8).build();
    sim.reserve_events(REQUESTS as usize);
    submit_all(&mut sim);
    let t0 = Instant::now();
    sim.run_to_idle();
    let secs = t0.elapsed().as_secs_f64();
    black_box(sim.power_log().devices.len());
    (sim.events_processed(), secs, sim.drain_completions().len())
}

fn main() {
    banner("perf_parallel_des", "serial DES throughput (wave-dense stripe reads)");

    // Best of three.
    let mut serial_secs = f64::MAX;
    let mut serial_events = 0u64;
    for _ in 0..3 {
        let (events, secs, completions) = run();
        assert_eq!(completions as u64, REQUESTS, "every submitted read must complete");
        serial_secs = serial_secs.min(secs);
        serial_events = events;
    }

    let serial_eps = serial_events as f64 / serial_secs.max(1e-9);
    println!("{REQUESTS} requests, {serial_events} events: serial {serial_eps:>12.0} ev/s");

    json_result(
        "perf_parallel_des",
        &serde_json::json!({
            "requests": REQUESTS,
            "events": serial_events,
            "serial_seconds": serial_secs,
            "serial_events_per_sec": serial_eps,
        }),
    );
}

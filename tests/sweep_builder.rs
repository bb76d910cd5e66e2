//! `SweepBuilder` is the single sweep entry point. Every sweep shape must
//! be byte-identical at 1 and 4 workers — same results, same database
//! records, same ids — and turning the `tracer-obs` instrumentation on must
//! not perturb any report bit.

use tracer_core::prelude::*;

fn trace(n: u64) -> Trace {
    Trace::from_bunches(
        "t",
        (0..n)
            .map(|i| Bunch::new(i * 6_000_000, vec![IoPackage::read((i * 48_271) % 100_000, 8192)]))
            .collect(),
    )
}

#[test]
fn builder_load_sweep_is_bit_identical_at_1_and_4_workers() {
    let mode = WorkloadMode::peak(8192, 50, 100);
    let loads = [20, 40, 60, 80];
    let run = |workers: usize| {
        let mut host = EvaluationHost::new();
        let result = SweepBuilder::new().workers(workers).loads(&loads).label("sb").load_sweep(
            &mut host,
            || ArraySpec::hdd_raid5(4).build(),
            &trace(60),
            mode,
        );
        (result, host.db.records().to_vec())
    };
    let (serial, serial_db) = run(1);
    let (parallel, parallel_db) = run(4);
    assert_eq!(parallel, serial, "load_sweep diverged at 4 workers");
    assert_eq!(parallel_db, serial_db, "db diverged at 4 workers");
}

#[test]
fn builder_sweep_is_bit_identical_at_1_and_4_workers() {
    let cfg = SweepConfig {
        modes: vec![WorkloadMode::peak(4096, 0, 100), WorkloadMode::peak(16384, 100, 0)],
        loads: vec![30, 60],
    };
    let run = |workers: usize| {
        let mut host = EvaluationHost::new();
        let result = SweepBuilder::new().workers(workers).sweep(
            &mut host,
            || ArraySpec::hdd_raid5(4).build(),
            |mode| trace(40 + u64::from(mode.request_bytes / 4096)),
            &cfg,
        );
        (result, host.db.records().to_vec())
    };
    let (serial, serial_db) = run(1);
    let (parallel, parallel_db) = run(4);
    assert_eq!(parallel, serial, "sweep diverged at 4 workers");
    assert_eq!(parallel_db, serial_db, "db diverged at 4 workers");
}

#[test]
fn builder_trials_are_bit_identical_at_1_and_4_workers() {
    let mode = WorkloadMode::peak(8192, 50, 100);
    let run = |workers: usize| {
        let mut host = EvaluationHost::new();
        let result = SweepBuilder::new().workers(workers).label("trial").trials(
            &mut host,
            || ArraySpec::hdd_raid5(4).build(),
            |seed| trace(25 + seed),
            mode,
            4,
        );
        (format!("{result:?}"), host.db.records().to_vec())
    };
    let (serial, serial_db) = run(1);
    let (parallel, parallel_db) = run(4);
    assert_eq!(parallel, serial, "trials diverged at 4 workers");
    assert_eq!(parallel_db, serial_db, "db diverged at 4 workers");
}

#[test]
fn builder_jobs_are_bit_identical_at_1_and_4_workers() {
    let jobs = || -> Vec<EvaluationJob> {
        (0..5)
            .map(|i| {
                EvaluationJob::new(
                    format!("job{i}"),
                    || ArraySpec::hdd_raid5(4).build(),
                    trace(30 + i),
                    WorkloadMode::peak(8192, 50, 100).at_load(100 - (i as u32) * 10),
                )
            })
            .collect()
    };
    let run = |workers: usize| {
        let mut host = EvaluationHost::new();
        let ids = SweepBuilder::new().workers(workers).jobs(&mut host, jobs());
        (ids, host.db.records().to_vec())
    };
    let (serial, serial_db) = run(1);
    let (parallel, parallel_db) = run(4);
    assert_eq!(parallel, serial, "record ids diverged at 4 workers");
    assert_eq!(parallel_db, serial_db, "db diverged at 4 workers");
}

#[test]
fn obs_instrumentation_does_not_perturb_sweep_reports() {
    let mode = WorkloadMode::peak(8192, 50, 100);
    let loads = [25, 50, 75];
    let run = |sink: Option<tracer_obs::Sink>| {
        let mut host = EvaluationHost::new();
        let mut b = SweepBuilder::new().workers(2).loads(&loads).label("obs");
        if let Some(sink) = sink {
            b = b.obs(sink);
        }
        let result = b.load_sweep(&mut host, || ArraySpec::hdd_raid5(4).build(), &trace(50), mode);
        (result, host)
    };

    let (plain, plain_host) = run(None);
    let dir = std::env::temp_dir().join(format!("tracer-obs-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("obs dir");
    let path = dir.join("sweep.jsonl");
    let (observed, observed_host) = run(Some(tracer_obs::Sink::file(&path)));

    assert_eq!(observed, plain, "obs instrumentation must not change sweep results");
    assert_eq!(observed_host.db.records(), plain_host.db.records(), "db must match bit for bit");
    let snapshot = std::fs::read_to_string(&path).expect("obs snapshot written");
    assert!(snapshot.lines().count() > 0, "obs run must leave a snapshot behind");
    std::fs::remove_dir_all(&dir).ok();
}

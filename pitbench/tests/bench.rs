//! The benchmark's own checks: seeded inputs are reproducible, a smoke-sized
//! run of every workload passes every check, and the checks do fail on a
//! corrupted output and on a dropped emission.
//!
//! Run with `cargo test --release --manifest-path pitbench/Cargo.toml`
//! (the smoke runs execute the benchmark binary of the same profile).

use pit_infer::ZooManifest;
use pit_replay::oracle::ModelTable;
use pit_replay::workload::{self, ModelSpec};
use pit_serve::protocol::{encode_client, encode_server, ClientFrame, ServerFrame};
use pitbench::drive::{self, Script, Slot, StreamBook};
use pitbench::models::{self, ZooModel};
use pitbench::report::{Report, PER_LAYER};
use pitbench::trace::Tracer;
use pitbench::{churn, fleet, search, serving};
use rand::rngs::StdRng;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Command;
use std::time::Duration;

fn script_bytes(script: &Script) -> Vec<u8> {
    script
        .slots
        .iter()
        .flat_map(|s| s.bytes.iter().copied())
        .collect()
}

#[test]
fn one_seed_gives_identical_inputs_and_another_seed_different_ones() {
    let (a, b, c) = (
        fleet::generate(7, 1),
        fleet::generate(7, 1),
        fleet::generate(8, 1),
    );
    assert_eq!(script_bytes(&a.script), script_bytes(&b.script));
    assert_eq!(a.samples, b.samples);
    assert_ne!(script_bytes(&a.script), script_bytes(&c.script));

    let specs = vec![
        ModelSpec {
            name: "m0".into(),
            channels: models::CHANNELS,
        },
        ModelSpec {
            name: "m1".into(),
            channels: models::CHANNELS,
        },
    ];
    let gen = |seed| {
        format!(
            "{:?}",
            workload::generate(&churn::workload_config(seed, 1), &specs).conns
        )
    };
    let (a, b, c) = (gen(7), gen(7), gen(8));
    assert_eq!(a, b);
    assert_ne!(a, c);

    let inputs = |seed| {
        let s = search::set_up(seed);
        let n = s.train.len();
        s.train.batches::<StdRng>(n, None)[0].inputs.data().to_vec()
    };
    let (a, b, c) = (inputs(7), inputs(7), inputs(8));
    assert_eq!(a, b);
    assert_ne!(a, c);
}

fn run_bench(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pitbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} failed:\n{stderr}\n{stdout}"
    );
    let last = stdout.lines().last().unwrap_or_default().to_string();
    assert!(
        last.starts_with("{\"correct\": true,"),
        "{workload}: {last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
    last
}

#[test]
fn smoke_runs_of_every_workload_pass_every_check() {
    for workload in ["fleet_i8", "churn_zoo", "search_temponet"] {
        let line = run_bench(workload, false);
        for name in ["setup_s", "step_p50_us", "cpu_ns_per_step", "peak_rss_mb"] {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload} lacks {name}"
            );
        }
    }
    let traced = run_bench("fleet_i8", true);
    for (name, unit) in PER_LAYER {
        assert!(
            traced.contains(&format!("\"{name}\": {{\"value\": ")) && traced.contains(unit),
            "traced run lacks {name}"
        );
    }
}

#[test]
fn a_corrupted_output_fails_the_oracle_check() {
    let dir = serving::scratch_dir("oracle-test").expect("scratch dir");
    let plan = models::temponet_plan(3, "oracle-test", None);
    let qplan = models::quantize(&plan, 3).expect("quantizes");
    let zoo = models::write_zoo(&dir, &[ZooModel::I8(&qplan)]).expect("zoo written");
    let (manifest, base) = ZooManifest::load(&zoo).expect("zoo loads");
    let inputs = &fleet::generate(3, 1).samples[0];
    let table =
        ModelTable::load(&manifest, &base, inputs.len() / models::CHANNELS + 1).expect("table");
    let mut served = table.replay_segment(0, inputs);
    assert!(!served.is_empty());

    let mut report = Report::default();
    serving::oracle_check(&mut report, &table, 0, inputs, &served, || "clean".into());
    assert_eq!((report.attempted, report.failed), (1, 0));

    let mid = served.len() / 2;
    served[mid] = f32::from_bits(served[mid].to_bits() ^ 1);
    serving::oracle_check(&mut report, &table, 0, inputs, &served, || {
        "corrupted".into()
    });
    assert_eq!((report.attempted, report.failed), (2, 1));
    assert!(!report.correct());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives a one-push script against a fake daemon that answers with
/// `emitted` of the two emissions the push owes.
fn drive_against_fake_daemon(emitted: u32) -> drive::Outcome {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut len = [0u8; 4];
        conn.read_exact(&mut len).expect("frame length");
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        conn.read_exact(&mut body).expect("frame body");
        let reply = ServerFrame::Emit {
            stream_id: 0,
            count: emitted,
            dim: 1,
            outputs: vec![0.5; emitted as usize],
        };
        conn.write_all(&encode_server(&reply)).expect("reply");
        // Hold the connection until the client hangs up.
        let mut sink = Vec::new();
        let _ = conn.read_to_end(&mut sink);
    });
    let push = ClientFrame::Push {
        stream_id: 0,
        channels: models::CHANNELS as u32,
        samples: vec![0.0; 2 * models::CHANNELS],
    };
    let script = Script {
        slots: vec![Slot {
            at_us: 0,
            bytes: encode_client(&push),
            frames: 1,
            steps: 2,
            id: 0,
        }],
        books: vec![StreamBook {
            open_at_us: None,
            pushes: vec![(0, 2)],
            closes: false,
            record: false,
        }],
    };
    let conn = TcpStream::connect(addr).expect("connect");
    let out = drive::drive(
        conn,
        &script,
        Duration::from_millis(300),
        &Tracer::new(false),
    )
    .expect("drive");
    server.join().expect("fake daemon");
    out
}

#[test]
fn a_dropped_emission_is_reported_as_a_failure() {
    let whole = drive_against_fake_daemon(2);
    assert_eq!(
        (whole.emissions, whole.missing, whole.failures()),
        (2, 0, 0)
    );
    let dropped = drive_against_fake_daemon(1);
    assert_eq!(
        (dropped.emissions, dropped.missing, dropped.failures()),
        (1, 1, 1)
    );
}

#[test]
fn a_search_that_learns_another_result_is_reported_as_a_failure() {
    let mut report = Report::default();
    let reference: (&[usize], usize) = (&[1, 1, 2, 4], 900);
    search::check_same_result(&mut report, 1, (&[1, 1, 2, 4], 900), reference);
    assert_eq!((report.attempted, report.failed), (1, 0));
    search::check_same_result(&mut report, 2, (&[1, 2, 2, 4], 900), reference);
    search::check_same_result(&mut report, 3, (&[1, 1, 2, 4], 901), reference);
    assert_eq!((report.attempted, report.failed), (3, 2));
    assert!(!report.correct());
}

#[test]
fn scaling_keeps_the_raw_value_and_reports_the_scaled_one() {
    use pitbench::calib::REFERENCE_NS;
    let mut report = Report::default();
    // A host running the reference chunk at half the reference speed.
    let factor = report.record_host(2.0 * REFERENCE_NS, 10);
    assert_eq!(factor, 0.5);
    assert_eq!(report.get("host.speed_factor"), Some(0.5));
    report.e2e_scaled("step_p50_us", "raw.step_p50_us", 300.0, factor);
    assert_eq!(report.get("step_p50_us"), Some(150.0));
    assert_eq!(report.get("raw.step_p50_us"), Some(300.0));
}

#[test]
fn the_setup_clock_times_every_set_up_and_returns_the_last() {
    use pitbench::calib::SetupClock;
    let mut clock = SetupClock::new(3);
    let mut calls = 0;
    let last = clock
        .time(
            2,
            || {
                calls += 1;
                std::thread::sleep(Duration::from_millis(2));
                Ok(calls)
            },
            // Each result stands for a daemon child that ran 5 ms of CPU.
            |_| 5_000_000,
        )
        .expect("set-ups succeed");
    assert_eq!(last, Some(6));
    let t = clock.times();
    assert_eq!(t.count, 6);
    assert!(t.wall_s >= 0.002, "wall {}", t.wall_s);
    // Sleeping costs no CPU; the child's does count.
    assert!(t.raw_cpu_s >= 0.005, "cpu {}", t.raw_cpu_s);
    assert!(t.cpu_s > 0.0);
    let mut report = Report::default();
    report.record_setups(&clock);
    assert_eq!(report.get("setup_s"), Some(t.cpu_s));
    assert_eq!(report.get("raw.setup_s"), Some(t.raw_cpu_s));
    assert_eq!(report.get("raw.setup_wall_s"), Some(t.wall_s));
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_runs_report() {
    use pit_tensor::json::Json;
    use pitbench::report::END_TO_END;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(END_TO_END));
    assert_eq!(listed("per_layer"), owned(PER_LAYER));
}

//! CLI smoke tests: every subcommand must answer `--help` with exit 0, the
//! top-level usage must list every subcommand (so help drift fails loudly),
//! and configuration errors must exit nonzero with a message on stderr.

use std::process::{Command, Output};

use norush::common::config::DelayBurst;
use norush::common::ids::Pc;
use norush::common::json::{self, Value};
use norush::cpu::instr::{Instr, Op};
use norush::sim::fuzz::ScheduleGenome;
use norush::workloads::write_trace;

const BIN: &str = env!("CARGO_BIN_EXE_norush");

fn norush(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn norush")
}

const COMMANDS: &[&str] = &[
    "list", "run", "profile", "compare", "soak", "fuzz", "litmus", "explore", "record", "replay",
];

#[test]
fn every_subcommand_help_succeeds() {
    for cmd in COMMANDS {
        let out = Command::new(BIN)
            .args([cmd, "--help"])
            .output()
            .expect("spawn norush");
        assert!(
            out.status.success(),
            "`norush {cmd} --help` exited {:?}:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !out.stdout.is_empty(),
            "`norush {cmd} --help` printed nothing"
        );
    }
}

#[test]
fn usage_lists_every_subcommand_and_exit_codes() {
    for args in [&[][..], &["help"][..], &["--help"][..]] {
        let out = Command::new(BIN).args(args).output().expect("spawn norush");
        assert!(out.status.success(), "usage via {args:?} failed");
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        for cmd in COMMANDS {
            assert!(
                text.lines().any(|l| l.trim_start().starts_with(cmd)),
                "usage via {args:?} does not list `{cmd}`"
            );
        }
        assert!(
            text.contains("exit codes:"),
            "usage via {args:?} does not document exit codes"
        );
    }
}

#[test]
fn config_errors_exit_nonzero_with_stderr() {
    let cases: &[&[&str]] = &[
        &["litmus", "--test", "nonesuch"],
        &["explore", "--policy", "nonesuch"],
        &["explore", "--replay", "00"], // --replay without --test
        // A non-ASCII replay string is bad hex, not a panic.
        &["fuzz", "--replay", "aéa"],
        &["explore", "--test", "sb", "--replay", "aéa"],
        &["fuzz", "--kernel", "kv"],
        &["run", "nonesuch"],
        &["run", "pc", "--policy", "nonesuch"],
        &["soak", "--policies", "lazy,nonesuch"],
        // Zero cores is a range error, not a panic.
        &["run", "pc", "--cores", "0"],
        &["profile", "pc", "--cores", "0"],
        &["compare", "pc", "--cores", "0"],
        // So is a zero interval.
        &["run", "pc", "--check", "0"],
        &["run", "pc", "--watchdog", "0"],
        &["run", "pc", "--rewind", "0"],
        &["record", "pc", "t.trace", "--tid", "4", "--threads", "4"],
        // Outside numbers are range-checked before anything is built: a
        // jitter cap of u64::MAX wrapped the jitter draw, and a million
        // threads built a million generators.
        &["run", "pc", "--chaos-latency", "18446744073709551615"],
        &["profile", "pc", "--chaos-latency", "18446744073709551615"],
        &["compare", "pc", "--chaos-latency", "18446744073709551615"],
        &["record", "pc", "huge.trace", "--threads", "1000000"],
        // A misspelt flag is an error, not silently ignored; so is a flag
        // missing its value or a switch given one.
        &["run", "pc", "--polcy", "row"],
        &["compare", "pc", "--samples", "8"],
        &["run", "pc", "--policy"],
        &["run", "pc", "--oracle", "1"],
        &["nonesuch"],
        // The tables and figures live in the `figure` binary.
        &["table1"],
        &["microbench"],
        // An empty selection must not pass conformance by running nothing.
        &["litmus", "--test", ","],
        &["litmus", "--test", ""],
        &["litmus", "--test", "sb", "--policies", ","],
        &["explore", "--test", ","],
    ];
    // A replayed genome is validated like any other configuration.
    let mut latency = ScheduleGenome::neutral();
    latency.fault.max_extra_latency = u64::MAX;
    let mut burst = ScheduleGenome::neutral();
    burst.perturb.push(DelayBurst {
        start: 0,
        len: 1_000,
        extra: 4_097,
        salt: 1,
    });
    let (latency, burst) = (latency.to_hex(), burst.to_hex());
    let genomes: &[&[&str]] = &[
        &["fuzz", "--replay", &latency],
        &["fuzz", "--replay", &burst],
    ];
    for args in cases.iter().chain(genomes) {
        let out = norush(args);
        assert_eq!(
            out.status.code(),
            Some(1),
            "`norush {}` should exit 1",
            args.join(" ")
        );
        assert!(
            !out.stderr.is_empty(),
            "`norush {}` failed silently",
            args.join(" ")
        );
    }
}

/// A recorded trace replays; a corrupt one, one naming a register past the
/// register file (its checksum is valid) and one in the unframed first
/// format each exit 1 naming the fault.
#[test]
fn traces_replay_and_bad_traces_exit_1() {
    let dir = std::env::temp_dir().join(format!("norush-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("pc.trace");
    let good = good.to_str().unwrap();
    let out = norush(&["record", "pc", good, "--instr", "500", "--threads", "4"]);
    assert!(out.status.success(), "record: {out:?}");
    let out = norush(&["replay", good, "--policy", "row"]);
    assert!(out.status.success(), "replay: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains(" cycles, IPC "));

    let mut flipped = std::fs::read(good).unwrap();
    flipped[1_000] ^= 1;
    let alu = Instr::simple(Pc::new(0x40), Op::Alu { latency: 1 });
    let register = write_trace(&[alu.with_dst(191)]);
    // "RWTR1\n", a count, and two fences (pc, three 0xff registers, tag 5).
    let mut old = b"RWTR1\n".to_vec();
    old.extend_from_slice(&2u64.to_le_bytes());
    for _ in 0..2 {
        old.extend_from_slice(&0x40u64.to_le_bytes());
        old.extend_from_slice(&[0xff, 0xff, 0xff, 5]);
    }
    for (name, bytes, message) in [
        ("flipped.trace", flipped, "trace file checksum mismatch"),
        ("register.trace", register, "trace register out of range"),
        ("old.trace", old, "not a norush trace file"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        let out = norush(&["replay", path.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(err.contains(message), "{name} must say `{message}`: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `profile --json` prints the `norush-profile-v1` report instead of the
/// table, and the two agree on the simulated cycles.
#[test]
fn profile_json_reports_the_table_cycles() {
    let cell = ["profile", "pc", "--cores", "2", "--instr", "300"];
    let table = norush(&cell);
    assert!(table.status.success(), "profile: {table:?}");
    let table = String::from_utf8_lossy(&table.stdout).into_owned();
    let cycles: u64 = table
        .lines()
        .find_map(|l| l.trim().strip_prefix("cycles "))
        .and_then(|c| c.trim().parse().ok())
        .expect("the table prints its cycles");

    let out = norush(&[&cell[..], &["--json"]].concat());
    assert!(out.status.success(), "profile --json: {out:?}");
    let report = json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(
        report.get("schema").and_then(Value::as_str),
        Some("norush-profile-v1")
    );
    assert_eq!(report.get("cycles").and_then(Value::as_u64), Some(cycles));
    for key in ["core_steps", "idle_cycles", "events"] {
        assert!(report.get(key).and_then(Value::as_u64).is_some(), "{key}");
    }
}

/// Audit is neither hashed nor reported, so an audited exploration writes
/// the plain one's report byte for byte. The bounds are cut to keep the
/// audited debug run short; CI diffs the default bounds in release.
#[test]
fn audited_explore_writes_the_plain_report() {
    let dir = std::env::temp_dir().join(format!("norush-cli-audit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = |name: &str, extra: &[&str]| {
        let path = dir.join(name);
        let repro = dir.join("repro");
        let args = [
            "explore",
            "--test",
            "sb,mp",
            "--depth",
            "4",
            "--delays",
            "2",
            "--out",
            path.to_str().unwrap(),
            "--repro-dir",
            repro.to_str().unwrap(),
        ];
        let out = norush(&[&args[..], extra].concat());
        assert!(out.status.success(), "explore {extra:?}: {out:?}");
        std::fs::read(path).unwrap()
    };
    let plain = report("plain.json", &[]);
    assert!(plain == report("audited.json", &["--audit"]));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--chaos-shrink` shrinks a failing checkpointed run too: its probes are
/// fresh, unsliced runs, so the checkpoint interval does not matter.
#[test]
fn checkpointed_run_shrinks_its_chaos() {
    let dir = std::env::temp_dir().join(format!("norush-cli-shrink-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (ckpt, repro) = (dir.join("ckpt"), dir.join("repro"));
    let out = norush(&[
        "run",
        "pc",
        "--cores",
        "2",
        "--instr",
        "2000",
        "--cycles",
        "3000",
        "--chaos",
        "1",
        "--chaos-shrink",
        "--checkpoint-every",
        "1000",
        "--ckpt-dir",
        ckpt.to_str().unwrap(),
        "--repro-dir",
        repro.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let shrunk = std::fs::read_to_string(repro.join("chaos_repro.txt"))
        .expect("the shrunk repro is written");
    assert!(shrunk.starts_with("norush run pc --cores 2"), "{shrunk}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The shrunk repro replays the failing run: it keeps `--cycles` (and the
/// other flags that decide the outcome), so it fails the same way.
#[test]
fn shrunk_chaos_repro_replays_the_failing_run() {
    let dir = std::env::temp_dir().join(format!("norush-cli-repro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = norush(&[
        "run",
        "pc",
        "--cores",
        "2",
        "--instr",
        "2000",
        "--cycles",
        "3000",
        "--chaos",
        "1",
        "--chaos-shrink",
        "--repro-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let repro =
        std::fs::read_to_string(dir.join("chaos_repro.txt")).expect("the shrunk repro is written");
    let args: Vec<&str> = repro.split_whitespace().skip(1).collect();
    assert!(args.contains(&"--cycles"), "{repro}");
    let replay = norush(&args);
    assert_eq!(replay.status.code(), Some(1), "{repro}: {replay:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--rewind` replays the failed run from its last slice boundary: core 3's
/// L1 fill of request 782 arrives at cycle 3,031, the tick after its
/// access, in the replay as in the forward run.
#[test]
fn rewind_replay_lists_the_forward_runs_events() {
    let out = norush(&[
        "run",
        "canneal",
        "--cores",
        "4",
        "--instr",
        "3000",
        "--watchdog",
        "250",
        "--rewind",
        "101",
    ]);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("rewind replay from checkpoint at cycle 3030 (detected at cycle 3085)"),
        "{err}"
    );
    assert!(
        err.contains("3031: Fill { core: CoreId(3), req_id: 782"),
        "{err}"
    );
}

#[test]
fn unknown_flag_error_names_the_flag() {
    let out = Command::new(BIN)
        .args(["run", "pc", "--polcy", "row"])
        .output()
        .expect("spawn norush");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("--polcy"), "error must name the flag: {err}");
    assert!(out.stdout.is_empty(), "nothing may run: {:?}", out.stdout);
}

#[test]
fn fuzz_kernel_error_names_real_kernels() {
    let out = Command::new(BIN)
        .args(["fuzz", "--kernel", "nonesuch"])
        .output()
        .expect("spawn norush");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    for name in ["counter", "mpmc-queue", "mw-register"] {
        assert!(
            err.contains(name),
            "fuzz --kernel error must name `{name}`: {err}"
        );
    }
}

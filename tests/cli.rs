//! CLI smoke tests: every subcommand must answer `--help` with exit 0, the
//! top-level usage must list every subcommand (so help drift fails loudly),
//! and configuration errors must exit nonzero with a message on stderr.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_norush");

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
    for args in cases {
        let out = Command::new(BIN)
            .args(*args)
            .output()
            .expect("spawn norush");
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

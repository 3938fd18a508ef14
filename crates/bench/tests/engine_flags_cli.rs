//! CLI contract for the campaign-engine flags every figure binary shares:
//! an invalid value or an unknown flag is a readable error and exit
//! status 2, before any model is built — never a silently kept default.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

fn fig04(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_fig04_characterization"), args)
}

/// `batched` names the removed 64-lane kernel: it is an unknown kernel
/// like any other, not an alias for a surviving one.
#[test]
fn unknown_kernel_exits_2_with_a_typed_error() {
    for bad in ["foo", "batched"] {
        let inline = format!("--kernel={bad}");
        for args in [&["--kernel", bad][..], &[inline.as_str()][..]] {
            let out = fig04(args);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {err}");
            assert!(
                err.contains(&format!("error: invalid --kernel value \"{bad}\"")),
                "{args:?}: unreadable message: {err}"
            );
            assert!(!err.contains("panicked"), "{args:?}: panicked: {err}");
            assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
        }
    }
}

/// `--fast-forward` selected the removed exact-cycle snapshot cache. It is
/// rejected rather than skipped like a flag the engine does not own, so a
/// script still passing it learns the flag no longer does anything.
#[test]
fn removed_fast_forward_flag_exits_2_with_a_typed_error() {
    for args in [
        &["--fast-forward", "off"][..],
        &["--fast-forward", "on"][..],
        &["--fast-forward=off"][..],
    ] {
        let out = fig04(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {err}");
        assert!(
            err.contains("error: --fast-forward was removed"),
            "{args:?}: unreadable message: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: panicked: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
    }
}

/// A misspelled engine flag must not run with the defaults (`--thraeds 4`
/// would run single-threaded). `bench_campaign` always runs its smoke
/// gates, so `--smoke` is unknown to it like any other flag;
/// `--bench-json` is its only flag of its own.
#[test]
fn unknown_flag_exits_2_with_a_typed_error() {
    for (exe, args) in [
        (
            env!("CARGO_BIN_EXE_fig04_characterization"),
            &["--thraeds", "4"][..],
        ),
        (env!("CARGO_BIN_EXE_bench_campaign"), &["--smoke"][..]),
        (
            env!("CARGO_BIN_EXE_bench_campaign"),
            &["--bench-json", "/dev/null", "--smoke"][..],
        ),
    ] {
        let out = run(exe, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {err}");
        assert!(
            err.contains("error: unknown flag"),
            "{args:?}: unreadable message: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: panicked: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
    }
}

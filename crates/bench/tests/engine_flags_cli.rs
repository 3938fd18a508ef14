//! CLI contract for the campaign-engine flags every figure binary shares:
//! an invalid value is a readable error and exit status 2, before any
//! model is built — never a silently kept default.

use std::process::{Command, Output};

fn fig04(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig04_characterization"))
        .args(args)
        .output()
        .expect("spawn fig04_characterization")
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

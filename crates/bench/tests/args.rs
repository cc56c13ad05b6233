//! The figure binaries' shared command line, through the built
//! binaries: a bad argument is one stderr line naming it and a nonzero
//! exit, before anything runs or prints.

use std::process::Command;

#[test]
fn bad_arguments_fail_before_anything_runs() {
    let positive = "must be a positive integer, got";
    for (bin, args, named) in [
        (
            env!("CARGO_BIN_EXE_fig5"),
            &["abc"][..],
            format!("instructions {positive} \"abc\""),
        ),
        (
            env!("CARGO_BIN_EXE_fig5"),
            &["0"],
            format!("instructions {positive} \"0\""),
        ),
        (
            env!("CARGO_BIN_EXE_fig6"),
            &["100000", "0"],
            format!("threads {positive} \"0\""),
        ),
        (
            env!("CARGO_BIN_EXE_wear"),
            &["1", "2", "3"],
            "unexpected argument \"3\"".to_owned(),
        ),
        (
            env!("CARGO_BIN_EXE_recovery"),
            &["1000000", "1"],
            "instructions must be at most 400000, got 1000000".to_owned(),
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{bin} {args:?}: exited 0");
        assert!(out.stdout.is_empty(), "{bin} {args:?}: printed to stdout");
        assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(&named),
            "{bin} {args:?}: {stderr}"
        );
    }
}

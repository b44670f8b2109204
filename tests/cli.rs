//! The `mspgemm` binary's argument handling: flags no subcommand reads and
//! values that do not parse are usage errors (exit 2), so a misspelled or
//! retired flag or value can never silently run the default configuration,
//! and a malformed number never panics. An input file the loader rejects
//! exits 1, also without a panic.

use std::process::Command;

fn mspgemm(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mspgemm")).args(args).output().expect("spawn mspgemm")
}

#[test]
fn retired_assembly_flag_is_a_usage_error() {
    let out = mspgemm(&["run", "--graph", "GAP-road", "--scale", "0.02", "--assembly", "legacy"]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --assembly"));
}

#[test]
fn retired_simd_and_bands_flags_are_usage_errors() {
    for (flag, value) in
        [("--simd", "force"), ("--bands", "4"), ("--overbook", "p90"), ("--chunk", "4")]
    {
        let out = mspgemm(&["run", "--graph", "GAP-road", "--scale", "0.02", flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{flag}: {stderr}");
    }
}

#[test]
fn bad_values_are_usage_errors() {
    // malformed numbers, and the retired guided schedule and sort
    // accumulator
    for (flag, value) in
        [("--tiles", "abc"), ("--kappa", "x"), ("--schedule", "guided"), ("--acc", "sort")]
    {
        let out = mspgemm(&["run", "--graph", "GAP-road", "--scale", "0.02", flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(&format!("bad {flag}")), "{flag} {value}: {stderr}");
    }
}

#[test]
fn misspelled_flag_is_a_usage_error() {
    let out = mspgemm(&["run", "--graph", "GAP-road", "--scale", "0.02", "--acc-typo", "dense8"]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --acc-typo"));
}

#[test]
fn rectangular_mtx_is_a_load_error_not_a_panic() {
    // a 3x4 pattern file: valid Matrix Market, but not an adjacency matrix
    let path = std::env::temp_dir().join(format!("mspgemm_cli_rect_{}.mtx", std::process::id()));
    std::fs::write(&path, "%%MatrixMarket matrix coordinate pattern general\n3 4 2\n1 2\n3 4\n")
        .expect("write the .mtx file");
    let file = path.to_string_lossy().into_owned();
    for cmd in ["stats", "tc"] {
        let out = mspgemm(&[cmd, "--mtx", &file]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tiny_valid_run_succeeds() {
    let out = mspgemm(&[
        "run", "--graph", "GAP-road", "--scale", "0.02", "--acc", "dense8", "--threads", "2",
        "--reps", "1",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("output nnz"));
}

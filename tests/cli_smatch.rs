//! End-to-end tests of the `smatch` binary: write graphs to disk, invoke
//! the CLI, check its report.

use std::path::PathBuf;
use std::process::Command;

fn write_fixtures() -> (PathBuf, PathBuf, tempdir::Dir) {
    let dir = tempdir::Dir::new("smatch_cli_test");
    let qpath = dir.path.join("q.graph");
    let gpath = dir.path.join("g.graph");
    std::fs::write(
        &qpath,
        "t 3 3\nv 0 0 2\nv 1 1 2\nv 2 2 2\ne 0 1\ne 1 2\ne 0 2\n",
    )
    .unwrap();
    std::fs::write(
        &gpath,
        "t 5 7\nv 0 0 4\nv 1 1 3\nv 2 2 2\nv 3 1 2\nv 4 2 3\n\
         e 0 1\ne 1 2\ne 0 2\ne 0 3\ne 3 4\ne 0 4\ne 1 4\n",
    )
    .unwrap();
    (qpath, gpath, dir)
}

/// Minimal self-cleaning temp dir (no external crates).
mod tempdir {
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub struct Dir {
        pub path: std::path::PathBuf,
    }
    impl Dir {
        pub fn new(tag: &str) -> Dir {
            // Tests run as threads of one process: the process id alone
            // would hand every test the same directory, and the first
            // `Drop` would delete the fixtures under the rest.
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let path = std::env::temp_dir().join(format!(
                "{tag}_{}_{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).unwrap();
            Dir { path }
        }
    }
    impl Drop for Dir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

fn smatch() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smatch"))
}

#[test]
fn framework_algorithms_report_three_matches() {
    let (q, g, _dir) = write_fixtures();
    for alg in ["gql", "dp", "ri", "cfl", "ceci", "qsi", "2pp"] {
        let out = smatch()
            .args([
                "--query",
                q.to_str().unwrap(),
                "--data",
                g.to_str().unwrap(),
            ])
            .args(["--algorithm", alg])
            .output()
            .expect("smatch runs");
        assert!(out.status.success(), "{alg}: {:?}", out);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("3 match(es)"), "{alg}: {stdout}");
    }
}

#[test]
fn baselines_and_glasgow_agree() {
    let (q, g, _dir) = write_fixtures();
    for alg in ["glasgow", "vf2", "ullmann"] {
        let out = smatch()
            .args([
                "--query",
                q.to_str().unwrap(),
                "--data",
                g.to_str().unwrap(),
            ])
            .args(["--algorithm", alg])
            .output()
            .expect("smatch runs");
        assert!(out.status.success(), "{alg}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("3 match(es)"), "{alg}: {stdout}");
    }
}

#[test]
fn print_flag_lists_embeddings() {
    let (q, g, _dir) = write_fixtures();
    let out = smatch()
        .args([
            "--query",
            q.to_str().unwrap(),
            "--data",
            g.to_str().unwrap(),
        ])
        .args(["--print", "10"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("u0->").count(), 3, "{stdout}");
}

#[test]
fn limit_flag_caps_output() {
    let (q, g, _dir) = write_fixtures();
    let out = smatch()
        .args([
            "--query",
            q.to_str().unwrap(),
            "--data",
            g.to_str().unwrap(),
        ])
        .args(["--limit", "1"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 match(es)"), "{stdout}");
    assert!(stdout.contains("CapReached"), "{stdout}");
}

#[test]
fn explain_prints_the_plan() {
    let (q, g, _dir) = write_fixtures();
    let out = smatch()
        .args([
            "--query",
            q.to_str().unwrap(),
            "--data",
            g.to_str().unwrap(),
        ])
        .args(["--explain", "--algorithm", "ri"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("plan RI"), "{stdout}");
    assert!(stdout.contains("|C| ="), "{stdout}");
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = smatch().output().unwrap();
    assert!(!out.status.success());
    let out = smatch()
        .args(["--query", "/nonexistent", "--data", "/nonexistent"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

//! Captures what the run files must carry about the build: the compiler
//! version, the target-cpu flag and the optimisation profile.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");

    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\x1f')
        .find_map(|f| {
            f.strip_prefix("-Ctarget-cpu=")
                .or_else(|| f.strip_prefix("target-cpu="))
        })
        .unwrap_or("generic")
        .to_string();
    println!("cargo:rustc-env=BENCH_TARGET_CPU={target_cpu}");
    println!(
        "cargo:rustc-env=BENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}

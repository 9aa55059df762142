//! Records the toolchain and code-generation flags the benchmark was
//! built with, so every result can be stamped with them.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    // Flags arrive separated by 0x1f; pull out the target-cpu setting.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let parts: Vec<&str> = flags.split('\x1f').collect();
    let mut target_cpu = "default".to_string();
    for (i, p) in parts.iter().enumerate() {
        if let Some(v) = p.strip_prefix("target-cpu=") {
            target_cpu = v.to_string();
        } else if let Some(v) = p.strip_prefix("-Ctarget-cpu=") {
            target_cpu = v.to_string();
        } else if *p == "-C" {
            if let Some(v) = parts.get(i + 1).and_then(|n| n.strip_prefix("target-cpu=")) {
                target_cpu = v.to_string();
            }
        }
    }
    println!("cargo:rustc-env=BVBENCH_RUSTC={version}");
    println!("cargo:rustc-env=BVBENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-env-changed=RUSTC");
}

//! Embeds the flags and compiler this binary was built with, so every
//! result carries them and a build without the alignment flag can
//! refuse to write one.

use std::process::Command;

fn main() {
    // 0x1f-separated, as cargo hands it to build scripts.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=FC_BENCH_RUSTFLAGS={}",
        flags.replace('\u{1f}', " ")
    );
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    println!("cargo:rustc-env=FC_BENCH_RUSTC={}", version.trim());
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}

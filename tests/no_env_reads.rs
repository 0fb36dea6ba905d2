//! Library crates take their configuration as explicit arguments: no
//! source file under `crates/*/src` may read a process environment
//! variable. `crates/bench` is exempt, because it is the harness crate
//! whose binaries turn `IPFS_REPRO_*` variables into that configuration.

use std::fs;
use std::path::{Path, PathBuf};

/// Calls that read the process environment.
const ENV_READS: [&str; 4] = ["env::var(", "env::var_os(", "env::vars(", "env::vars_os("];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in fs::read_dir(dir).expect("readable dir").map(|e| e.expect("dir entry").path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `file:line: code` for every env read in `text`, comment lines aside.
fn env_reads(file: &Path, text: &str) -> Vec<String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| (i, line.trim_start()))
        .filter(|(_, code)| !code.starts_with("//") && ENV_READS.iter().any(|c| code.contains(c)))
        .map(|(i, code)| format!("{}:{}: {code}", file.display(), i + 1))
        .collect()
}

#[test]
fn library_crates_read_no_env_vars() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut files = Vec::new();
    for dir in fs::read_dir(&crates).expect("crates dir").map(|e| e.expect("dir entry").path()) {
        if !dir.ends_with("bench") {
            rust_files(&dir.join("src"), &mut files);
        }
    }
    assert!(files.iter().any(|f| f.ends_with("simnet/src/engine.rs")), "scan missed simnet");
    let hits: Vec<String> = files
        .iter()
        .flat_map(|f| env_reads(f, &fs::read_to_string(f).expect("readable source file")))
        .collect();
    assert!(hits.is_empty(), "library crates read env vars:\n{}", hits.join("\n"));
}

#[test]
fn the_scan_sees_an_env_read() {
    let text = "// env::var(\"X\") in a comment\nlet v = std::env::var_os(\"X\");\n";
    let hits = env_reads(Path::new("lib.rs"), text);
    assert_eq!(hits, vec!["lib.rs:2: let v = std::env::var_os(\"X\");".to_string()]);
}

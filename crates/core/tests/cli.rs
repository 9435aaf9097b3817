//! Black-box tests of the `velus` command-line interface.

use std::io::Write;
use std::process::{Command, Stdio};

fn velus_bin() -> &'static str {
    env!("CARGO_BIN_EXE_velus")
}

fn tracker_path() -> String {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .join("benchmarks/tracker.lus")
        .display()
        .to_string()
}

#[test]
fn check_reports_program_statistics() {
    let out = Command::new(velus_bin())
        .args(["check", &tracker_path()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("root tracker"), "{stdout}");
}

#[test]
fn compile_emits_c_to_stdout() {
    let out = Command::new(velus_bin())
        .args(["compile", &tracker_path(), "--node", "tracker"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("struct tracker {"), "{stdout}");
    assert!(stdout.contains("int main(void)"), "{stdout}");
}

#[test]
fn run_interprets_stdin_instants() {
    let mut child = Command::new(velus_bin())
        .args(["run", &tracker_path(), "--node", "tracker"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The §2.2 inputs: acc and limit.
    let input = "0 5\n2 5\n4 5\n-2 5\n0 5\n3 5\n-3 5\n2 5\n";
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 8);
    // p and t at the last instant: 33 and 3.
    assert_eq!(lines[7], "33 3");
}

#[test]
fn validate_reports_checks() {
    let out = Command::new(velus_bin())
        .args(["validate", &tracker_path(), "--steps", "12"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("validated 12 instants"), "{stdout}");
}

#[test]
fn wcet_prints_cycles_for_all_models() {
    for model in ["cc", "gcc", "gcci"] {
        let out = Command::new(velus_bin())
            .args(["wcet", &tracker_path(), "--model", model])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("cycles"), "{stdout}");
    }
}

#[test]
fn dump_prints_intermediate_representations() {
    for (ir, marker) in [
        ("nlustre", "node tracker"),
        ("snlustre", "node tracker"),
        ("obc", "class tracker"),
        ("obc-fused", "class tracker"),
    ] {
        let out = Command::new(velus_bin())
            .args(["dump", &tracker_path(), "--ir", ir])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(marker), "--ir {ir}: {stdout}");
    }
}

/// `velus dump` prints, byte for byte, the IRs the one-shot compile
/// builds, on every paper benchmark and at every stage, while running
/// only the stages up to the one it prints.
#[test]
fn dump_matches_the_one_shot_compile_on_every_benchmark() {
    let dir = std::path::Path::new(&tracker_path())
        .parent()
        .expect("benchmarks directory")
        .to_path_buf();
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "lus"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 14);
    for path in &files {
        let node = path.file_stem().unwrap().to_str().unwrap();
        let source = std::fs::read_to_string(path).unwrap();
        let c = velus::compile(&source, Some(node)).unwrap();
        for (ir, want) in [
            ("nlustre", c.nlustre.to_string()),
            ("snlustre", c.snlustre.to_string()),
            ("obc", c.obc.to_string()),
            ("obc-fused", c.obc_fused.to_string()),
        ] {
            let out = Command::new(velus_bin())
                .args(["dump", path.to_str().unwrap(), "--node", node, "--ir", ir])
                .output()
                .unwrap();
            assert!(out.status.success(), "{node} --ir {ir}");
            assert_eq!(
                String::from_utf8(out.stdout).unwrap(),
                format!("{want}\n"),
                "{node} --ir {ir}"
            );
        }
    }
}

#[test]
fn syntax_errors_exit_nonzero_with_position() {
    let dir = std::env::temp_dir().join("velus-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.lus");
    std::fs::write(&bad, "node f() returns (y: int) let y = ; tel").unwrap();
    let out = Command::new(velus_bin())
        .args(["check", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error"), "{stderr}");
    assert!(stderr.contains("1:"), "position missing: {stderr}");
}

#[test]
fn batch_compiles_a_directory_with_full_warm_hits() {
    let benchmarks = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .join("benchmarks");
    let out = Command::new(velus_bin())
        .args([
            "batch",
            benchmarks.to_str().unwrap(),
            "--workers",
            "4",
            "--passes",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The suite has 14 programs; the cold pass compiles them all...
    assert!(
        stdout.contains("pass 1: 14 ok, 0 failed, 0 cache hits"),
        "{stdout}"
    );
    // ...and the warm pass is answered from the cache, byte-identically.
    assert!(
        stdout.contains("pass 2: 14 ok, 0 failed, 14 cache hits"),
        "{stdout}"
    );
    assert!(
        stdout.contains("warm pass: every artifact served from cache, byte-identical output"),
        "{stdout}"
    );
    // The statistics table reports every pipeline stage.
    for stage in [
        "frontend",
        "schedule",
        "translate",
        "fuse",
        "generate",
        "emit",
    ] {
        assert!(stdout.contains(stage), "missing stage {stage}: {stdout}");
    }
}

#[test]
fn batch_with_cache_cap_evicts_and_still_verifies_warm_passes() {
    let benchmarks = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .join("benchmarks");
    let out = Command::new(velus_bin())
        .args([
            "batch",
            benchmarks.to_str().unwrap(),
            "--workers",
            "2",
            "--passes",
            "2",
            "--cache-cap",
            "4",
        ])
        .output()
        .unwrap();
    // Evicted programs recompile on pass 2; the recompiled C must still
    // match pass 1 byte for byte, so the run succeeds as a whole.
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache cap 4"), "{stdout}");
    // 14 programs through a 4-entry cache: evictions are certain and
    // surface in the statistics table.
    let evictions: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("cache: "))
        .and_then(|l| l.split(", ").nth(2))
        .and_then(|f| f.strip_suffix(" evictions"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no eviction counter in stats: {stdout}"));
    assert!(evictions > 0, "{stdout}");
    assert!(
        stdout.contains("4 entries"),
        "cache must sit at its cap: {stdout}"
    );
}

#[test]
fn compile_emit_selects_artifacts_and_skips_c() {
    // A multi-kind emit prints headed sections.
    let out = Command::new(velus_bin())
        .args([
            "compile",
            &tracker_path(),
            "--node",
            "tracker",
            "--emit",
            "wcet,obc-fused",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== wcet:cc =="), "{stdout}");
    assert!(stdout.contains("tracker step:"), "{stdout}");
    assert!(stdout.contains("== obc-fused =="), "{stdout}");
    assert!(stdout.contains("class tracker"), "{stdout}");
    // No C was printed: the emission stage never ran.
    assert!(!stdout.contains("int main(void)"), "{stdout}");

    // An unknown kind is a usage error.
    let bad = Command::new(velus_bin())
        .args(["compile", &tracker_path(), "--emit", "c,bogus"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown artifact kind"));
}

#[test]
fn batch_emit_wcet_serves_reports_through_the_cache() {
    let benchmarks = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .join("benchmarks");
    let out = Command::new(velus_bin())
        .args([
            "batch",
            benchmarks.to_str().unwrap(),
            "--workers",
            "2",
            "--passes",
            "2",
            "--emit",
            "c,wcet",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The warm pass serves every request — both kinds — from the cache.
    assert!(
        stdout.contains("pass 2: 14 ok, 0 failed, 14 cache hits"),
        "{stdout}"
    );
    // Per-kind statistics rows: 14 programs x 2 passes per kind.
    let kind_row = |name: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with(name) && l.split_whitespace().count() == 4)
            .unwrap_or_else(|| panic!("no `{name}` kind row in:\n{stdout}"))
            .to_owned()
    };
    for name in ["c", "wcet"] {
        let row = kind_row(name);
        let fields: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(fields[1..], ["28", "14", "14"], "{row}");
    }
    // The mixed batch compiled each source's front half exactly once:
    // the frontend stage ran 14 times for 28 kind-requests.
    let frontend = stdout
        .lines()
        .find(|l| l.starts_with("frontend"))
        .expect("frontend stage row");
    assert_eq!(frontend.split_whitespace().nth(1), Some("14"), "{frontend}");
}

#[test]
fn batch_reports_failures_without_aborting_the_sweep() {
    let dir = std::env::temp_dir().join(format!("velus-batch-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("good.lus"),
        "node good(x: int) returns (y: int) let y = x + (0 fby y); tel",
    )
    .unwrap();
    std::fs::write(dir.join("bad.lus"), "node bad( returns").unwrap();
    let out = Command::new(velus_bin())
        .args(["batch", dir.to_str().unwrap(), "--passes", "1"])
        .output()
        .unwrap();
    // The sweep fails overall (nonzero exit) but still reports both rows.
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pass 1: 1 ok, 1 failed"), "{stdout}");
    assert!(stdout.contains("good"), "{stdout}");
    assert!(stdout.contains("bad"), "{stdout}");
}

/// Writes `source` to a temp `.lus` file and returns its path.
fn temp_lus(name: &str, source: &str) -> String {
    let path = std::env::temp_dir().join(format!("velus-cli-{name}.lus"));
    std::fs::write(&path, source).unwrap();
    path.display().to_string()
}

#[test]
fn error_format_json_emits_machine_readable_diagnostics() {
    let file = temp_lus(
        "unknown-var",
        "node f(x: int) returns (y: int)\nlet y = z + 1; tel\n",
    );
    let out = Command::new(velus_bin())
        .args(["compile", &file, "--error-format", "json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One JSON object on stdout; nothing duplicated on stderr.
    assert!(stdout.trim_end().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"code\":\"E0201\""), "{stdout}");
    assert!(stdout.contains("\"stage\":\"elaborate\""), "{stdout}");
    assert!(stdout.contains("\"line\":2"), "{stdout}");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn scheduling_cycles_point_at_the_offending_equation() {
    let file = temp_lus(
        "cycle",
        "node f(x: int) returns (y: int)\nvar a, b: int;\nlet\n  a = b + x;\n  b = a;\n  y = a;\ntel\n",
    );
    let out = Command::new(velus_bin())
        .args(["compile", &file])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The mid-end failure carries its code, stage, and a *source* span:
    // the caret points at the first equation on the cycle.
    assert!(stderr.contains("error[E0408]"), "{stderr}");
    assert!(stderr.contains("(schedule)"), "{stderr}");
    assert!(stderr.contains(" --> 4:3"), "{stderr}");
    assert!(stderr.contains("a = b + x;"), "{stderr}");
}

#[test]
fn emit_report_serves_the_validation_report_as_json() {
    let out = Command::new(velus_bin())
        .args([
            "compile",
            &tracker_path(),
            "--node",
            "tracker",
            "--emit",
            "report",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"root\":\"tracker\""), "{stdout}");
    assert!(
        stdout.contains("\"validated_stages\":[\"elaborate\""),
        "{stdout}"
    );
}

#[test]
fn misspelled_flag_tokens_get_a_did_you_mean() {
    let out = Command::new(velus_bin())
        .args(["compile", &tracker_path(), "--emit", "reprot"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[E0901]"), "{stderr}");
    assert!(stderr.contains("did you mean `report`"), "{stderr}");
}

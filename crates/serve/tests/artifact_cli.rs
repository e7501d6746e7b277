//! Two-process artifact-store tests against the real `bqsim` binary:
//! concurrent cold starts on the same store directory single-flight
//! through the on-disk lock (identical digests, one published file),
//! a separate process warm-hits what an earlier process published, and
//! auditing a store that does not exist is an error that creates nothing.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bqsim-cli-{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One `bqsim run` invocation sharing `store`; returns (stdout, stderr).
fn run_once(store: &PathBuf, journal: &PathBuf) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bqsim"))
        .args([
            "run",
            "--family",
            "qft",
            "--qubits",
            "6",
            "--batches",
            "2",
            "--batch-size",
            "4",
        ])
        .arg("--journal")
        .arg(journal)
        .arg("--artifact-dir")
        .arg(store)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn bqsim");
    assert!(
        out.status.success(),
        "bqsim run failed: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn digest_of(stdout: &str) -> &str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("campaign digest: "))
        .expect("run must print a campaign digest")
}

#[test]
fn concurrent_processes_single_flight_and_later_process_warm_hits() {
    let store = temp_dir("store");
    let work = temp_dir("journals");

    // Two processes race the same cold store. Whichever loses the leader
    // election either follows the winner's publication or compiles the
    // same deterministic artifact — either way both succeed and agree.
    let children: Vec<_> = (0..2)
        .map(|i| {
            let journal = work.join(format!("race-{i}.journal"));
            let store = store.clone();
            std::thread::spawn(move || run_once(&store, &journal))
        })
        .collect();
    let outputs: Vec<(String, String)> = children
        .into_iter()
        .map(|c| c.join().expect("racer thread"))
        .collect();
    assert_eq!(
        digest_of(&outputs[0].0),
        digest_of(&outputs[1].0),
        "racing processes must produce identical digests"
    );
    for (stdout, stderr) in &outputs {
        assert!(
            stdout.contains("artifact store:"),
            "store counters missing from output: {stdout}"
        );
        assert!(
            !stderr.contains("warning"),
            "cold races must not warn: {stderr}"
        );
        // The stage-time line is for whoever compiled: the race's leader
        // prints it, a follower that loaded the leader's artifact does not.
        assert_eq!(
            stdout.contains("compile: fusion "),
            stdout.contains("artifact store: cold compile"),
            "compile line must accompany exactly the cold compiles: {stdout}"
        );
    }
    let published: Vec<_> = std::fs::read_dir(&store)
        .expect("read store dir")
        .filter_map(|e| {
            let p = e.expect("dir entry").path();
            (p.extension().is_some_and(|x| x == "bqc")).then_some(p)
        })
        .collect();
    assert_eq!(
        published.len(),
        1,
        "the racers share one key, so one artifact: {published:?}"
    );

    // A third, fresh process must load the published executable.
    let (stdout, _) = run_once(&store, &work.join("warm.journal"));
    assert!(
        stdout.contains("artifact store: warm compile"),
        "third process must warm-hit: {stdout}"
    );
    assert!(
        !stdout.contains("compile: fusion "),
        "a warm start compiled nothing: {stdout}"
    );
    assert_eq!(digest_of(&outputs[0].0), digest_of(&stdout));

    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn auditing_a_missing_store_fails_and_creates_nothing() {
    let parent = temp_dir("missing-store");
    let store = parent.join("absent");
    let out = Command::new(env!("CARGO_BIN_EXE_bqsim"))
        .arg("analyze")
        .arg("--artifact")
        .arg(&store)
        .output()
        .expect("spawn bqsim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(&store.display().to_string()),
        "the error must name the store path: {stderr}"
    );
    assert!(!store.exists(), "an audit must not create the store");
    let _ = std::fs::remove_dir_all(&parent);
}

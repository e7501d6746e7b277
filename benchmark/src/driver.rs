//! The closed-loop driver: one client, one op in flight. Each op spawns
//! the release `bqsim` binary and is timed from outside the program, on
//! the host wall clock, from submit to exit; its digest lines are then
//! judged against the in-process references.
//!
//! Ops are spawned by a *spawner*: this same executable started in
//! `--spawner` mode before set-up allocates anything. Linux folds the
//! spawning process's own resident-set high-water into a child's
//! `ru_maxrss` at `exec`, so a child of the harness — which holds every
//! compiled reference — would never read below the harness's own peak.
//! The spawner stays a couple of MiB, which makes `peak_rss_mb` the
//! program's number.

use crate::reference::References;
use crate::workloads::{Action, Op, Store};
use bqsim_campaign::state_path;
use bqsim_serve::SubmitSpec;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

/// Separates the words of a command on the spawner's request line.
const WORD_SEPARATOR: char = '\x1f';

/// What one timed op produced.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Submit → exit, in seconds.
    pub wall_s: f64,
    /// Exit status 0 and every digest equal to its reference.
    pub ok: bool,
    /// High-water resident set of the op's `bqsim` process, in MiB.
    pub peak_rss_mib: f64,
    /// Bytes the op published into its fresh artifact directory (0 for
    /// ops on the warm store).
    pub published_bytes: u64,
}

/// How one spawned process ended.
#[derive(Debug)]
struct Exit {
    wall_s: f64,
    ok: bool,
    peak_rss_mib: f64,
    stdout: String,
}

/// Whether a `bqsim run` op succeeded: clean exit and exactly the
/// reference digest on its `campaign digest:` line.
pub fn judge_campaign(exit_ok: bool, stdout: &str, expected: u64) -> bool {
    let want = format!("campaign digest: {expected:016x}");
    exit_ok && stdout.lines().any(|l| l == want)
}

/// Whether a `bqsim serve` session succeeded: clean exit, and for every
/// submission both the session's `completed digest=` line and the later
/// `bqsim status` `done digest=` line carry the reference digest.
pub fn judge_fleet(
    exit_ok: bool,
    serve_stdout: &str,
    status_stdout: &str,
    expected: &[(&SubmitSpec, u64)],
) -> bool {
    exit_ok
        && expected.iter().all(|(spec, digest)| {
            let completed = format!(
                "{}/{}: completed digest={digest:016x} ",
                spec.tenant, spec.id
            );
            let done = format!("{}/{}: done digest={digest:016x}", spec.tenant, spec.id);
            serve_stdout.lines().any(|l| l.starts_with(&completed))
                && status_stdout.lines().any(|l| l == done)
        })
}

/// Summed size of the files directly in `dir` (0 when it does not exist).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The driver: the spawner it sends ops through, the program, and where
/// per-op state lives.
#[derive(Debug)]
pub struct Driver {
    spawner: Child,
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
    /// The release `bqsim` binary.
    bqsim: PathBuf,
    /// Scratch directory for journals, state dirs, and fresh stores.
    pub scratch: PathBuf,
    /// The artifact store set-up populated.
    pub warm_store: PathBuf,
}

impl Driver {
    /// Starts the spawner. Call before anything large is allocated.
    ///
    /// # Errors
    ///
    /// Propagates the failure to re-execute this binary.
    pub fn start(bqsim: PathBuf) -> std::io::Result<Driver> {
        let mut spawner = Command::new(std::env::current_exe()?)
            .arg("--spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        Ok(Driver {
            requests: spawner.stdin.take(),
            replies: BufReader::new(spawner.stdout.take().expect("stdout was piped")),
            spawner,
            bqsim,
            scratch: PathBuf::new(),
            warm_store: PathBuf::new(),
        })
    }

    /// Runs `bqsim` with `args` through the spawner.
    fn bqsim(&mut self, args: &[String]) -> Exit {
        let mut line = self.bqsim.to_string_lossy().into_owned();
        for arg in args {
            line.push(WORD_SEPARATOR);
            line.push_str(arg);
        }
        line.push('\n');
        self.exchange(&line).unwrap_or_else(|e| {
            eprintln!("benchmark: spawner: {e}");
            Exit {
                wall_s: 0.0,
                ok: false,
                peak_rss_mib: 0.0,
                stdout: String::new(),
            }
        })
    }

    fn exchange(&mut self, request: &str) -> std::io::Result<Exit> {
        let bad = |what: &str| std::io::Error::other(format!("malformed reply ({what})"));
        let requests = self.requests.as_mut().expect("open until drop");
        requests.write_all(request.as_bytes())?;
        requests.flush()?;
        let mut header = String::new();
        self.replies.read_line(&mut header)?;
        let mut fields = header.split_whitespace();
        let mut field = |what| fields.next().ok_or_else(|| bad(what));
        let wall_ns: u64 = field("wall")?.parse().map_err(|_| bad("wall"))?;
        let ok = field("ok")? == "1";
        let rss_kib: u64 = field("rss")?.parse().map_err(|_| bad("rss"))?;
        let len: usize = field("len")?.parse().map_err(|_| bad("len"))?;
        let mut stdout = vec![0u8; len];
        self.replies.read_exact(&mut stdout)?;
        Ok(Exit {
            wall_s: wall_ns as f64 / 1e9,
            ok,
            peak_rss_mib: rss_kib as f64 / 1024.0,
            stdout: String::from_utf8_lossy(&stdout).into_owned(),
        })
    }

    /// Wall time of a `bqsim` invocation that does no work — the floor
    /// under every op.
    pub fn spawn_floor_s(&mut self) -> f64 {
        let exit = self.bqsim(&["--help".to_string()]);
        assert!(exit.ok, "`bqsim --help` failed");
        exit.wall_s
    }

    /// Runs one op and judges it. Per-op files are created before and
    /// removed after the timed window.
    pub fn run_op(&mut self, op: &Op, refs: &References) -> Sample {
        match &op.action {
            Action::Campaign {
                spec,
                full_state,
                store,
            } => self.run_campaign_op(spec, *full_state, *store, refs.digest(spec)),
            Action::Fleet { specs } => {
                let expected: Vec<_> = specs.iter().map(|s| (s, refs.digest(s))).collect();
                self.run_fleet_op(specs, &expected)
            }
        }
    }

    fn run_campaign_op(
        &mut self,
        spec: &SubmitSpec,
        full_state: bool,
        store: Store,
        expected: u64,
    ) -> Sample {
        let journal = self.scratch.join("op.journal");
        let fresh = self.scratch.join("op.store");
        let artifact_dir = match store {
            Store::Fresh => &fresh,
            Store::Warm => &self.warm_store,
        };
        let path = |p: &Path| p.to_string_lossy().into_owned();
        let args = [
            "run".to_string(),
            "--family".to_string(),
            spec.family.clone(),
            "--qubits".to_string(),
            spec.qubits.to_string(),
            "--batches".to_string(),
            spec.batches.to_string(),
            "--batch-size".to_string(),
            spec.batch_size.to_string(),
            "--seed".to_string(),
            spec.seed.to_string(),
            "--journal-state".to_string(),
            if full_state { "full" } else { "checksum" }.to_string(),
            "--journal".to_string(),
            path(&journal),
            "--artifact-dir".to_string(),
            path(artifact_dir),
        ];
        let exit = self.bqsim(&args);
        let published_bytes = match store {
            Store::Fresh => dir_bytes(&fresh),
            Store::Warm => 0,
        };
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(state_path(&journal));
        let _ = std::fs::remove_dir_all(&fresh);
        Sample {
            wall_s: exit.wall_s,
            ok: judge_campaign(exit.ok, &exit.stdout, expected),
            peak_rss_mib: exit.peak_rss_mib,
            published_bytes,
        }
    }

    fn run_fleet_op(&mut self, specs: &[SubmitSpec], expected: &[(&SubmitSpec, u64)]) -> Sample {
        let state_dir = self.scratch.join("op.state");
        let submissions = self.scratch.join("op.submissions");
        let lines: String = specs.iter().map(|s| s.render_line() + "\n").collect();
        if let Err(e) = std::fs::write(&submissions, lines) {
            eprintln!("benchmark: {}: {e}", submissions.display());
        }
        let path = |p: &Path| p.to_string_lossy().into_owned();
        let served = self.bqsim(&[
            "serve".to_string(),
            "--devices".to_string(),
            "2".to_string(),
            "--queue-cap".to_string(),
            "16".to_string(),
            "--state-dir".to_string(),
            path(&state_dir),
            "--submissions".to_string(),
            path(&submissions),
            "--artifact-dir".to_string(),
            path(&self.warm_store),
        ]);
        let status = self.bqsim(&[
            "status".to_string(),
            "--state-dir".to_string(),
            path(&state_dir),
        ]);
        let _ = std::fs::remove_dir_all(&state_dir);
        let _ = std::fs::remove_file(&submissions);
        Sample {
            wall_s: served.wall_s,
            ok: judge_fleet(
                served.ok && status.ok,
                &served.stdout,
                &status.stdout,
                expected,
            ),
            peak_rss_mib: served.peak_rss_mib,
            published_bytes: 0,
        }
    }
}

impl Drop for Driver {
    /// Closing the request pipe ends the spawner; wait for it.
    fn drop(&mut self) {
        drop(self.requests.take());
        let _ = self.spawner.wait();
    }
}

/// `--spawner` mode: for each request line (a command's words joined by
/// [`WORD_SEPARATOR`]), run the command with stdout captured, and reply
/// `<wall ns> <exit ok 0|1> <peak rss KiB> <stdout bytes>\n` followed by
/// the captured stdout. Ends at end of input.
pub fn spawner_main() -> ExitCode {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let exit = run_command(line.split(WORD_SEPARATOR));
        let reply = writeln!(
            stdout,
            "{} {} {} {}",
            (exit.wall_s * 1e9) as u64,
            u8::from(exit.ok),
            (exit.peak_rss_mib * 1024.0) as u64,
            exit.stdout.len()
        )
        .and_then(|()| stdout.write_all(exit.stdout.as_bytes()))
        .and_then(|()| stdout.flush());
        if reply.is_err() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs one command to completion, timing spawn → stdout closed → reaped.
fn run_command<'a>(mut words: impl Iterator<Item = &'a str>) -> Exit {
    let mut cmd = Command::new(words.next().unwrap_or_default());
    cmd.args(words).stdin(Stdio::null()).stdout(Stdio::piped());
    let started = Instant::now();
    let mut stdout = String::new();
    let reaped = cmd.spawn().and_then(|mut child| {
        let mut pipe = child.stdout.take().expect("stdout was piped");
        pipe.read_to_string(&mut stdout)?;
        reap(child.id())
    });
    let wall_s = started.elapsed().as_secs_f64();
    let (ok, peak_rss_mib) = reaped.unwrap_or_else(|e| {
        eprintln!("benchmark: cannot run {:?}: {e}", cmd.get_program());
        (false, 0.0)
    });
    Exit {
        wall_s,
        ok,
        peak_rss_mib,
        stdout,
    }
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then `ru_maxrss`
/// leading fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps child `pid` with `wait4`, which unlike `Child::wait` also hands
/// back the child's own resource usage: (exited with status 0, high-water
/// resident set in MiB). The caller must not wait on the child again.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn reap(pid: u32) -> std::io::Result<(bool, f64)> {
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, writable, and correctly
    // sized and aligned for this target (`struct rusage` is 144 bytes:
    // two 16-byte timevals and fourteen 8-byte longs); `wait4` only
    // writes into them. `pid` is a child this process spawned and has
    // not reaped, so no other process's state is touched.
    let rc = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // WIFEXITED && WEXITSTATUS == 0: no terminating signal, exit code 0.
    let exited_ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((exited_ok, usage.maxrss_kib as f64 / 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::workload;

    #[test]
    fn a_wrong_reference_fails_the_campaign_op() {
        let stdout = "execution: precision=f64\ncampaign digest: 00000000000000ff\n";
        assert!(judge_campaign(true, stdout, 0xff));
        // A wrong reference, a non-zero exit, and a missing digest line
        // each count as a failed op.
        assert!(!judge_campaign(true, stdout, 0xfe));
        assert!(!judge_campaign(false, stdout, 0xff));
        assert!(!judge_campaign(
            true,
            "campaign interrupted before batch 3\n",
            0xff
        ));
    }

    #[test]
    fn a_wrong_reference_fails_the_fleet_op() {
        let w = workload("fleet", 1).unwrap();
        let specs = &w.ops[0].specs()[..2];
        let serve = "t0/j0: completed digest=000000000000000a executed=12 resumed=0\n\
                     t1/j1: completed digest=000000000000000b executed=12 resumed=0\n";
        let status = "t0/j0: done digest=000000000000000a\nt1/j1: done digest=000000000000000b\n";
        let good = [(&specs[0], 0xa), (&specs[1], 0xb)];
        assert!(judge_fleet(true, serve, status, &good));
        let wrong = [(&specs[0], 0xa), (&specs[1], 0xc)];
        assert!(!judge_fleet(true, serve, status, &wrong));
        assert!(!judge_fleet(false, serve, status, &good));
        // The status line must agree too.
        assert!(!judge_fleet(
            true,
            serve,
            "t0/j0: done digest=000000000000000a\n",
            &good
        ));
    }

    #[test]
    fn run_command_reports_exit_status_stdout_and_peak_rss() {
        let echo = ["sh", "-c", "echo campaign digest: 00000000000000ff"];
        let exit = run_command(echo.into_iter());
        assert!(exit.ok && exit.wall_s > 0.0 && exit.peak_rss_mib > 0.0);
        assert!(judge_campaign(exit.ok, &exit.stdout, 0xff));
        assert!(!run_command(["sh", "-c", "exit 3"].into_iter()).ok);
        assert!(!run_command(["/nonexistent/bqsim"].into_iter()).ok);
    }
}

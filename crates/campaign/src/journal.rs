//! The write-ahead campaign journal: an append-only, fsync'd record log
//! plus a binary state sidecar that make a batch campaign crash-safe and
//! resumable.
//!
//! # Format (DESIGN.md §12)
//!
//! The journal is a text file of newline-terminated records, one per line:
//!
//! ```text
//! <crc>:<payload>
//! ```
//!
//! where `<crc>` is the 16-hex-digit FNV-1a 64 hash of `<payload>`. The
//! first record is always the `plan` header — the campaign's
//! [`Fingerprint`] — written and fsync'd **before** any batch runs (the
//! write-ahead discipline). Each completed batch appends a `batch` record
//! carrying the output-state checksum; each integrity failure appends a
//! `quarantine` record instead.
//!
//! A journal is written in one of two [`StateMode`]s, declared by the
//! header's `state=` field:
//!
//! * **`full`** — the amplitudes live in a **state sidecar** at
//!   [`state_path`] (`<journal>.state`): a headerless binary file of
//!   fixed-size per-batch slots (batch `b` at byte offset
//!   `b * slot_bytes`), holding raw little-endian `f64` bit patterns. The
//!   commit protocol is strictly ordered — slot write, sidecar fsync,
//!   *then* journal record, journal fsync — so a `batch` record in the
//!   journal proves its slot is durable. An uncommitted (possibly torn)
//!   slot is simply ignored: without its record it is recomputed on
//!   resume. On resume each committed slot is re-verified by hashing its
//!   raw bytes against the record checksum, and completed batches are
//!   rematerialized bit-exactly without recomputation.
//! * **`checksum`** — no sidecar; a `batch` record carries only the
//!   output checksum. Completed batches are still skipped on resume (and
//!   still contribute their recorded checksum to the campaign digest),
//!   but their amplitudes are not rematerialized. Durability traffic is a
//!   few dozen bytes per batch instead of the full state.
//!
//! # Torn-tail truncation rule
//!
//! A crash can tear only the *tail* of an append-only file. On read, the
//! last line is dropped (and the file later physically truncated to the
//! valid prefix) iff it is unterminated **or** fails its CRC while being
//! the final line. A CRC-invalid or malformed line *followed by more
//! data* cannot be a torn write and is reported as
//! [`JournalError::Corrupt`].

use crate::checksum::{fnv1a, parse_hex_u64};
use crate::inputs::Generator;
use bqsim_core::{Layout, Precision};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Identity of a campaign plan, persisted in the journal header and
/// verified on `--resume`: resuming under a different circuit, option
/// set, input set, fault seed, layout, or precision would silently
/// produce a run that is *not* bit-identical to the uninterrupted one, so
/// every such field must match exactly. `threads` is recorded but not
/// compared (see [`Fingerprint::mismatch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV-1a over the circuit's canonical debug rendering (name, qubit
    /// count, and every gate with its parameters).
    pub circuit: u64,
    /// FNV-1a over the `BqSimOptions` debug rendering (device, CPU, τ,
    /// launch/exec modes, ablation flags) — *excluding* `threads`, layout
    /// and precision, which are recorded as their own fields below.
    pub options: u64,
    /// Where the inputs come from: `None` for explicit batches, else the
    /// generator that makes batch `b` from the shape fields below.
    pub source: Option<Generator>,
    /// FNV-1a over the raw bit patterns of every input amplitude for
    /// explicit batches; of batch 0's alone for a generated source, which
    /// the other fields already name, so a generator whose output changed
    /// is still a mismatch.
    pub inputs: u64,
    /// The compile's content address (`bqsim_core::artifact_key`) — the
    /// same key that names the circuit executable in an artifact store.
    /// Recorded whether or not a store is in use, so a resume can refuse
    /// a journal whose compile came from a different circuit/option
    /// combination even when `circuit` and `options` hash-collide, and so
    /// an operator can correlate a journal with its store entry.
    pub artifact: u64,
    /// Fault-injection seed, or `None` for a fault-free campaign.
    pub fault_seed: Option<u64>,
    /// spMM lanes per launch (`BqSimOptions::threads`) of the session
    /// that wrote the header. Informational only: lanes split each
    /// launch over disjoint output rows, so outputs are bit-identical at
    /// every count and a resume may use a different one. Kept in the
    /// header so every existing journal still parses.
    pub threads: usize,
    /// Effective amplitude layout (`BqSimOptions::effective_layout()`).
    /// Fingerprinted as its own field so the mismatch report can name
    /// it: both layouts are proven bit-identical, but a resume must still
    /// replay the campaign it joined, not a variant.
    pub layout: Layout,
    /// Effective amplitude precision
    /// (`BqSimOptions::effective_precision()`). Named in the header for
    /// the same reason as `layout`, and more so: narrow precisions are
    /// *not* bit-identical to `f64`, so resuming a campaign under a
    /// different precision would splice incompatible amplitudes into one
    /// digest.
    pub precision: Precision,
    /// Total batches in the campaign.
    pub num_batches: usize,
    /// State vectors per batch.
    pub batch_size: usize,
    /// Amplitudes per state vector (`2^n`).
    pub amps: usize,
}

impl Fingerprint {
    /// Returns the name of the first field on which `self` and `other`
    /// disagree, or `None` when they match. `threads` is not compared: it
    /// does not change a single output bit.
    pub fn mismatch(&self, other: &Fingerprint) -> Option<&'static str> {
        if self.circuit != other.circuit {
            return Some("circuit");
        }
        if self.options != other.options {
            return Some("options");
        }
        match (self.source, other.source) {
            (Some(Generator::Random { seed: a }), Some(Generator::Random { seed: b }))
                if a != b =>
            {
                return Some("seed")
            }
            (a, b) if a != b => return Some("source"),
            _ => {}
        }
        // The shape before the input hash: a different batch size also
        // changes batch 0's bytes, and the shape is the better name.
        if self.num_batches != other.num_batches {
            return Some("num_batches");
        }
        if self.batch_size != other.batch_size {
            return Some("batch_size");
        }
        if self.amps != other.amps {
            return Some("amps");
        }
        if self.inputs != other.inputs {
            return Some("inputs");
        }
        if self.artifact != other.artifact {
            return Some("artifact");
        }
        if self.fault_seed != other.fault_seed {
            return Some("fault_seed");
        }
        if self.layout != other.layout {
            return Some("layout");
        }
        if self.precision != other.precision {
            return Some("precision");
        }
        None
    }
}

/// What a journal persists per completed batch, declared in the header's
/// `state=` field and fixed for the journal's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateMode {
    /// `state=full`: every completed batch's amplitudes are fsync'd into
    /// the state sidecar before its record commits, so resume
    /// rematerializes them bit-exactly.
    Full,
    /// `state=checksum`: records carry only output checksums; resume
    /// skips completed batches without rematerializing their amplitudes.
    ChecksumOnly,
}

impl StateMode {
    /// The header's `state=` token (`full` or `checksum`), also used by
    /// `bqsim run --journal-state` and the service manifest.
    pub fn token(self) -> &'static str {
        match self {
            StateMode::Full => "full",
            StateMode::ChecksumOnly => "checksum",
        }
    }

    /// Inverse of [`token`](Self::token); `None` for anything else.
    pub fn parse(token: &str) -> Option<StateMode> {
        match token {
            "full" => Some(StateMode::Full),
            "checksum" => Some(StateMode::ChecksumOnly),
            _ => None,
        }
    }
}

/// One journal record past the header.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Batch `index` completed; its output state is durable in the
    /// sidecar slot this record commits, and `checksum` is the
    /// [`crate::checksum::state_checksum`] of that slot's bytes.
    Batch {
        /// Batch index within the campaign.
        index: usize,
        /// Checksum of the raw output bit patterns.
        checksum: u64,
    },
    /// Batch `index` failed its numerical-integrity check and was
    /// quarantined; the campaign continued without it.
    Quarantine {
        /// Batch index within the campaign.
        index: usize,
        /// Why the batch was quarantined (a space-free token, e.g.
        /// `norm-drift` or `non-finite`).
        reason: String,
        /// Observed norm drift, as raw `f64` bits for lossless
        /// round-tripping (`f64::INFINITY` for non-finite outputs).
        drift_bits: u64,
    },
}

impl Record {
    /// The batch index this record is about.
    pub fn index(&self) -> usize {
        match self {
            Record::Batch { index, .. } | Record::Quarantine { index, .. } => *index,
        }
    }
}

/// Why a journal could not be written, read, or trusted.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A record that cannot be explained by a torn tail write: a CRC or
    /// parse failure in the middle of the file, a duplicate header, an
    /// out-of-range batch index, or a duplicate completion.
    Corrupt {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The journal's header fingerprint does not match the present plan;
    /// resuming would not reproduce the original campaign.
    FingerprintMismatch {
        /// First fingerprint field that differs.
        field: &'static str,
    },
    /// The file has no valid `plan` header record.
    MissingHeader,
    /// A committed batch's sidecar slot could not be read back or failed
    /// its checksum — the journal promised durable state that is not
    /// there.
    State {
        /// Batch index whose slot is damaged.
        index: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
            JournalError::FingerprintMismatch { field } => write!(
                f,
                "journal fingerprint mismatch on '{field}': refusing to resume a \
                 different campaign"
            ),
            JournalError::MissingHeader => {
                write!(f, "journal has no valid plan header record")
            }
            JournalError::State { index, reason } => {
                write!(
                    f,
                    "state sidecar slot for batch {index} is damaged: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

fn render_header(fp: &Fingerprint, mode: StateMode) -> String {
    let seed = match fp.fault_seed {
        Some(s) => s.to_string(),
        None => "none".to_string(),
    };
    format!(
        "plan circuit={:016x} options={:016x} source={} inputs={:016x} artifact={:016x} \
         fault_seed={} threads={} layout={} precision={} batches={} batch_size={} amps={} \
         state={}",
        fp.circuit,
        fp.options,
        fp.source
            .map_or_else(|| "explicit".to_string(), |g| g.to_string()),
        fp.inputs,
        fp.artifact,
        seed,
        fp.threads,
        fp.layout.token(),
        fp.precision.token(),
        fp.num_batches,
        fp.batch_size,
        fp.amps,
        mode.token(),
    )
}

fn render_record(rec: &Record) -> String {
    match rec {
        Record::Batch { index, checksum } => {
            format!("batch index={index} checksum={checksum:016x}")
        }
        Record::Quarantine {
            index,
            reason,
            drift_bits,
        } => format!("quarantine index={index} drift={drift_bits:016x} reason={reason}"),
    }
}

fn render_line(payload: &str) -> String {
    format!("{:016x}:{payload}\n", fnv1a(payload.as_bytes()))
}

/// Path of the binary state sidecar belonging to the journal at `path`:
/// the same file name with `.state` appended.
pub fn state_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".state");
    PathBuf::from(os)
}

/// Append-only journal writer, plus its state sidecar in
/// [`StateMode::Full`]. The low-level staging API
/// ([`write_slot`](Self::write_slot), [`append_unsynced`](Self::append_unsynced),
/// [`sync_state`](Self::sync_state), [`sync_journal`](Self::sync_journal))
/// lets a group-commit caller amortize fsyncs over several records, as
/// long as it preserves the write-ahead order: every staged slot must be
/// `sync_state`'d **before** the record committing it is written to the
/// journal file at all. [`append`](Self::append) does one fully durable
/// record per call.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    /// `Some` iff the journal was opened in [`StateMode::Full`].
    state: Option<File>,
}

fn open_state(path: &Path) -> Result<File, JournalError> {
    // Never truncate here: `open_append` must keep committed slots
    // (`create` empties the sidecar itself via `set_len(0)`).
    Ok(OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(state_path(path))?)
}

impl JournalWriter {
    /// Creates (or truncates) the journal at `path` and durably writes
    /// the `plan` header before returning — the write-ahead step. In
    /// [`StateMode::Full`] the sidecar is created (truncated); in
    /// [`StateMode::ChecksumOnly`] any stale sidecar from a previous
    /// full-mode journal at the same path is removed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path, fp: &Fingerprint, mode: StateMode) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(render_line(&render_header(fp, mode)).as_bytes())?;
        file.sync_all()?;
        let state = match mode {
            StateMode::Full => {
                let state = open_state(path)?;
                state.set_len(0)?;
                Some(state)
            }
            StateMode::ChecksumOnly => {
                // A stale full-mode sidecar must not survive next to a
                // checksum-only journal: a later full-mode resume at the
                // same path would find slots from a different plan.
                // Only "it was never there" is benign.
                if let Err(e) = std::fs::remove_file(state_path(path)) {
                    if e.kind() != std::io::ErrorKind::NotFound {
                        return Err(JournalError::Io(e));
                    }
                }
                None
            }
        };
        Ok(JournalWriter { file, state })
    }

    /// Reopens an existing journal for appending after a resume,
    /// physically truncating any torn tail first (`valid_len` and `mode`
    /// come from [`read_journal`]). The sidecar is opened without
    /// truncation — its committed slots are live data.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_append(path: &Path, valid_len: u64, mode: StateMode) -> Result<Self, JournalError> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.sync_all()?;
        let mut file = OpenOptions::new().append(true).open(path)?;
        // Defensive: make sure the append cursor is at the truncated end.
        file.flush()?;
        let state = match mode {
            StateMode::Full => Some(open_state(path)?),
            StateMode::ChecksumOnly => None,
        };
        Ok(JournalWriter { file, state })
    }

    /// Stages batch `index`'s fixed-size sidecar slot (`state` bytes at
    /// offset `index * state.len()`) **without** fsyncing it. The slot is
    /// not durable until [`sync_state`](Self::sync_state) returns; no
    /// record committing it may touch the journal file before then.
    ///
    /// # Errors
    ///
    /// Fails on a [`StateMode::ChecksumOnly`] journal (it has no
    /// sidecar), plus filesystem errors.
    pub fn write_slot(&mut self, index: usize, state: &[u8]) -> Result<(), JournalError> {
        let Some(f) = &mut self.state else {
            return Err(JournalError::Io(std::io::Error::other(
                "checksum-only journal has no state sidecar to write",
            )));
        };
        f.seek(SeekFrom::Start((index * state.len()) as u64))?;
        f.write_all(state)?;
        Ok(())
    }

    /// Fsyncs the state sidecar, making every staged slot durable. A
    /// no-op on a checksum-only journal.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn sync_state(&mut self) -> Result<(), JournalError> {
        if let Some(f) = &self.state {
            f.sync_data()?;
        }
        Ok(())
    }

    /// Appends one record line **without** fsyncing the journal. The
    /// record is not durable until [`sync_journal`](Self::sync_journal)
    /// returns.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append_unsynced(&mut self, rec: &Record) -> Result<(), JournalError> {
        self.file
            .write_all(render_line(&render_record(rec)).as_bytes())?;
        Ok(())
    }

    /// Fsyncs the journal file, making every appended record durable.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn sync_journal(&mut self) -> Result<(), JournalError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Durably appends one record (write + fsync). On a full-mode journal
    /// a `batch` record must follow its synced slot — a bare one would
    /// commit a sidecar slot that was never written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&mut self, rec: &Record) -> Result<(), JournalError> {
        self.append_unsynced(rec)?;
        self.sync_journal()
    }
}

/// Reads back batch `index`'s sidecar slot of `slot_bytes` bytes.
///
/// # Errors
///
/// [`JournalError::State`] when the sidecar is missing or too short to
/// hold the slot — a committed record pointing at absent state — plus
/// filesystem errors.
pub fn read_state_slot(
    journal_path: &Path,
    index: usize,
    slot_bytes: usize,
) -> Result<Vec<u8>, JournalError> {
    let sidecar = state_path(journal_path);
    let mut file = File::open(&sidecar).map_err(|e| JournalError::State {
        index,
        reason: format!("cannot open {}: {e}", sidecar.display()),
    })?;
    file.seek(SeekFrom::Start((index * slot_bytes) as u64))?;
    let mut buf = vec![0u8; slot_bytes];
    file.read_exact(&mut buf).map_err(|e| JournalError::State {
        index,
        reason: format!("short read: {e}"),
    })?;
    Ok(buf)
}

/// Everything a valid journal prefix contains.
#[derive(Debug)]
pub struct JournalContents {
    /// The `plan` header.
    pub fingerprint: Fingerprint,
    /// The header's declared state-persistence mode.
    pub state_mode: StateMode,
    /// All records after the header, in append order.
    pub records: Vec<Record>,
    /// Whether a torn tail (unterminated or CRC-failing final line) was
    /// dropped.
    pub torn: bool,
    /// Byte length of the valid prefix; pass to
    /// [`JournalWriter::open_append`] to truncate the tear before
    /// appending.
    pub valid_len: u64,
}

fn parse_kv<'a>(token: &'a str, key: &str) -> Option<&'a str> {
    token.strip_prefix(key)?.strip_prefix('=')
}

/// Parses the `plan` header; `None` when it is malformed. A header that
/// is well-formed except for a precision token this build does not execute
/// (a journal written when `precision=mixed` existed) is a campaign this
/// build cannot resume, not damage: it is a fingerprint mismatch on
/// `precision`.
fn parse_header(payload: &str) -> Option<Result<(Fingerprint, StateMode), JournalError>> {
    let mut t = payload.split(' ');
    if t.next()? != "plan" {
        return None;
    }
    let circuit = parse_hex_u64(parse_kv(t.next()?, "circuit")?.as_bytes())?;
    let options = parse_hex_u64(parse_kv(t.next()?, "options")?.as_bytes())?;
    let mut next = t.next()?;
    // Headers written before generated sources existed carry no
    // `source=` token; their inputs were always hashed in full.
    let source = match parse_kv(next, "source") {
        Some("explicit") => {
            next = t.next()?;
            None
        }
        Some(token) => {
            next = t.next()?;
            Some(Generator::parse(token)?)
        }
        None => None,
    };
    let inputs = parse_hex_u64(parse_kv(next, "inputs")?.as_bytes())?;
    let artifact = parse_hex_u64(parse_kv(t.next()?, "artifact")?.as_bytes())?;
    let seed = parse_kv(t.next()?, "fault_seed")?;
    let fault_seed = if seed == "none" {
        None
    } else {
        Some(seed.parse().ok()?)
    };
    let threads = parse_kv(t.next()?, "threads")?.parse().ok()?;
    let layout = Layout::parse(parse_kv(t.next()?, "layout")?)?;
    let precision = Precision::parse(parse_kv(t.next()?, "precision")?);
    let num_batches = parse_kv(t.next()?, "batches")?.parse().ok()?;
    let batch_size = parse_kv(t.next()?, "batch_size")?.parse().ok()?;
    let amps = parse_kv(t.next()?, "amps")?.parse().ok()?;
    let mode = StateMode::parse(parse_kv(t.next()?, "state")?)?;
    if t.next().is_some() {
        return None;
    }
    let Some(precision) = precision else {
        return Some(Err(JournalError::FingerprintMismatch {
            field: "precision",
        }));
    };
    Some(Ok((
        Fingerprint {
            circuit,
            options,
            source,
            inputs,
            artifact,
            fault_seed,
            threads,
            layout,
            precision,
            num_batches,
            batch_size,
            amps,
        },
        mode,
    )))
}

fn parse_record(payload: &str) -> Option<Record> {
    let mut t = payload.split(' ');
    match t.next()? {
        "batch" => {
            let index = parse_kv(t.next()?, "index")?.parse().ok()?;
            let checksum = parse_hex_u64(parse_kv(t.next()?, "checksum")?.as_bytes())?;
            if t.next().is_some() {
                return None;
            }
            Some(Record::Batch { index, checksum })
        }
        "quarantine" => {
            let index = parse_kv(t.next()?, "index")?.parse().ok()?;
            let drift_bits = parse_hex_u64(parse_kv(t.next()?, "drift")?.as_bytes())?;
            let reason = parse_kv(t.next()?, "reason")?.to_string();
            if t.next().is_some() {
                return None;
            }
            Some(Record::Quarantine {
                index,
                reason,
                drift_bits,
            })
        }
        _ => None,
    }
}

/// Validates a line's CRC envelope and returns its payload.
fn check_line(line: &str) -> Option<&str> {
    let (crc_hex, payload) = line.split_once(':')?;
    let crc = parse_hex_u64(crc_hex.as_bytes())?;
    if crc != fnv1a(payload.as_bytes()) {
        return None;
    }
    Some(payload)
}

/// Reads and validates a journal, applying the torn-tail truncation rule.
///
/// # Errors
///
/// [`JournalError::Corrupt`] for damage a torn write cannot explain,
/// [`JournalError::MissingHeader`] when the first record is not a valid
/// `plan` header, [`JournalError::FingerprintMismatch`] when the header
/// names a precision this build does not execute, plus filesystem errors.
pub fn read_journal(path: &Path) -> Result<JournalContents, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;

    // Split into newline-terminated lines; an unterminated trailing chunk
    // is by definition a torn write.
    let mut lines: Vec<&[u8]> = Vec::new();
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            lines.push(&bytes[start..i]);
            start = i + 1;
        }
    }
    let mut torn = start < bytes.len();

    let mut fingerprint: Option<(Fingerprint, StateMode)> = None;
    let mut records = Vec::new();
    let mut valid_len = 0u64;
    let n = lines.len();
    for (i, raw) in lines.iter().enumerate() {
        let last_line = i + 1 == n && !torn;
        let payload = std::str::from_utf8(raw).ok().and_then(check_line);
        let Some(payload) = payload else {
            if last_line {
                // CRC-failing final record: the torn tail. Drop it.
                torn = true;
                break;
            }
            return Err(JournalError::Corrupt {
                line: i + 1,
                reason: "checksum mismatch before end of journal".to_string(),
            });
        };
        if i == 0 {
            fingerprint = Some(parse_header(payload).ok_or(JournalError::MissingHeader)??);
        } else if payload.starts_with("plan ") {
            return Err(JournalError::Corrupt {
                line: i + 1,
                reason: "duplicate plan header".to_string(),
            });
        } else {
            let Some(rec) = parse_record(payload) else {
                // The CRC passed, so the payload is exactly what was
                // written — an unparseable record is corruption, not a
                // torn write.
                return Err(JournalError::Corrupt {
                    line: i + 1,
                    reason: "unparseable record payload".to_string(),
                });
            };
            records.push(rec);
        }
        valid_len += raw.len() as u64 + 1;
    }

    let Some((fingerprint, state_mode)) = fingerprint else {
        return Err(JournalError::MissingHeader);
    };
    Ok(JournalContents {
        fingerprint,
        state_mode,
        records,
        torn,
        valid_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fp() -> Fingerprint {
        Fingerprint {
            circuit: 0x1111,
            options: 0x2222,
            source: None,
            inputs: 0x3333,
            artifact: 0x4444,
            fault_seed: Some(42),
            threads: 4,
            layout: Layout::Planar,
            precision: Precision::F64,
            num_batches: 3,
            batch_size: 2,
            amps: 8,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bqsim-journal-test-{}-{name}", std::process::id()));
        p
    }

    fn cleanup(path: &Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(state_path(path)).ok();
    }

    /// Commits batch `index` durably: its slot first, then its record.
    fn commit_slot(w: &mut JournalWriter, index: usize, slot: &[u8]) {
        w.write_slot(index, slot).unwrap();
        w.sync_state().unwrap();
        w.append(&Record::Batch {
            index,
            checksum: fnv1a(slot),
        })
        .unwrap();
    }

    #[test]
    fn header_and_records_roundtrip() {
        let path = tmp("roundtrip");
        let mut w = JournalWriter::create(&path, &fp(), StateMode::ChecksumOnly).unwrap();
        let rec0 = Record::Batch {
            index: 0,
            checksum: 0xdead_beef,
        };
        let rec1 = Record::Quarantine {
            index: 1,
            reason: "norm-drift".to_string(),
            drift_bits: 1.5e-3_f64.to_bits(),
        };
        w.append(&rec0).unwrap();
        w.append(&rec1).unwrap();
        drop(w);
        let read = read_journal(&path).unwrap();
        assert_eq!(read.fingerprint, fp());
        assert_eq!(read.state_mode, StateMode::ChecksumOnly);
        assert_eq!(read.records, vec![rec0, rec1]);
        assert!(!read.torn);
        assert_eq!(
            read.valid_len,
            std::fs::metadata(&path).unwrap().len(),
            "a clean journal's valid prefix is the whole file"
        );
        cleanup(&path);
    }

    /// A journal written when `precision=mixed` existed is refused as a
    /// plan mismatch (exit 4), not parsed as f64 and not called corrupt.
    #[test]
    fn header_names_the_input_source_and_older_headers_read_as_explicit() {
        let path = tmp("source-token");
        let generated = Fingerprint {
            source: Some(Generator::Random { seed: 42 }),
            ..fp()
        };
        let header = render_header(&generated, StateMode::Full);
        assert!(header.contains(" source=random:42 "), "{header}");
        std::fs::write(&path, render_line(&header)).unwrap();
        assert_eq!(read_journal(&path).unwrap().fingerprint, generated);
        // A header written before generated sources existed has no
        // `source=` token; its inputs were hashed in full.
        let explicit = render_header(&fp(), StateMode::Full);
        assert!(explicit.contains(" source=explicit "), "{explicit}");
        std::fs::write(
            &path,
            render_line(&explicit.replace(" source=explicit ", " ")),
        )
        .unwrap();
        assert_eq!(read_journal(&path).unwrap().fingerprint, fp());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retired_precision_token_is_a_fingerprint_mismatch() {
        let path = tmp("retired-precision");
        let header = render_header(&fp(), StateMode::ChecksumOnly);
        assert!(header.contains(" precision=f64 "));
        std::fs::write(
            &path,
            render_line(&header.replace(" precision=f64 ", " precision=mixed ")),
        )
        .unwrap();
        match read_journal(&path) {
            Err(JournalError::FingerprintMismatch { field: "precision" }) => {}
            other => panic!("expected a precision mismatch, got {other:?}"),
        }
        // Any other malformed header field is still a missing header.
        std::fs::write(
            &path,
            render_line(&header.replace(" layout=planar ", " layout=diagonal ")),
        )
        .unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(JournalError::MissingHeader)
        ));
        cleanup(&path);
    }

    #[test]
    fn sidecar_slots_roundtrip_and_land_at_their_offsets() {
        let path = tmp("sidecar");
        let mut w = JournalWriter::create(&path, &fp(), StateMode::Full).unwrap();
        let slot_a = vec![0xaau8; 32];
        let slot_b = vec![0xbbu8; 32];
        // Out-of-order completion (batch 2 before batch 0) must still put
        // every slot at `index * slot_bytes`.
        commit_slot(&mut w, 2, &slot_b);
        commit_slot(&mut w, 0, &slot_a);
        drop(w);
        assert_eq!(read_state_slot(&path, 0, 32).unwrap(), slot_a);
        assert_eq!(read_state_slot(&path, 2, 32).unwrap(), slot_b);
        match read_state_slot(&path, 3, 32) {
            Err(JournalError::State { index: 3, .. }) => {}
            other => panic!("expected short-read State error, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn unterminated_tail_is_torn_not_corrupt() {
        let path = tmp("torn");
        let mut w = JournalWriter::create(&path, &fp(), StateMode::ChecksumOnly).unwrap();
        w.append(&Record::Batch {
            index: 0,
            checksum: 1,
        })
        .unwrap();
        drop(w);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"0123456789abcdef:batch index=1 chec").unwrap();
        drop(f);
        let read = read_journal(&path).unwrap();
        assert!(read.torn);
        assert_eq!(read.records.len(), 1);
        assert_eq!(read.valid_len, clean_len);
        cleanup(&path);
    }

    #[test]
    fn crc_failing_final_line_is_torn_but_midfile_is_corrupt() {
        let path = tmp("midfile");
        let mut w = JournalWriter::create(&path, &fp(), StateMode::ChecksumOnly).unwrap();
        w.append(&Record::Batch {
            index: 0,
            checksum: 1,
        })
        .unwrap();
        drop(w);
        // A complete but CRC-failing final line: torn (fsync'd length can
        // exceed the data that survived).
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"0000000000000000:batch index=1 checksum=0\n")
            .unwrap();
        drop(f);
        let read = read_journal(&path).unwrap();
        assert!(read.torn);
        assert_eq!(read.records.len(), 1);

        // The same bad line followed by a good one: corruption.
        let good = render_line(&render_record(&Record::Batch {
            index: 2,
            checksum: 3,
        }));
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(good.as_bytes()).unwrap();
        drop(f);
        match read_journal(&path) {
            Err(JournalError::Corrupt { line: 3, .. }) => {}
            other => panic!("expected Corrupt at line 3, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_append_truncates_the_tear() {
        let path = tmp("truncate");
        let mut w = JournalWriter::create(&path, &fp(), StateMode::ChecksumOnly).unwrap();
        w.append(&Record::Batch {
            index: 0,
            checksum: 1,
        })
        .unwrap();
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"torn garbage with no newline").unwrap();
        drop(f);
        let read = read_journal(&path).unwrap();
        assert!(read.torn);
        let mut w = JournalWriter::open_append(&path, read.valid_len, read.state_mode).unwrap();
        w.append(&Record::Batch {
            index: 1,
            checksum: 2,
        })
        .unwrap();
        drop(w);
        let read = read_journal(&path).unwrap();
        assert!(!read.torn, "truncation must remove the tear");
        assert_eq!(read.records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_names_the_first_field() {
        let a = fp();
        let mut b = fp();
        assert_eq!(a.mismatch(&b), None);
        b.threads = 1;
        assert_eq!(a.mismatch(&b), None, "lane count never changes outputs");
        b.layout = Layout::Aos;
        assert_eq!(a.mismatch(&b), Some("layout"));
        b = fp();
        b.fault_seed = None;
        assert_eq!(a.mismatch(&b), Some("fault_seed"));
    }

    #[test]
    fn missing_header_is_reported() {
        let path = tmp("noheader");
        std::fs::write(&path, render_line("batch index=0 checksum=0")).unwrap();
        match read_journal(&path) {
            Err(JournalError::MissingHeader) => {}
            other => panic!("expected MissingHeader, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}

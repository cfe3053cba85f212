//! The JSON-lines event log: an append-only timeline of span and
//! lifecycle events, written as atomic segments.
//!
//! The on-disk layout mirrors the schedule registry's: a directory of
//! `evt-<seq>.jsonl` segments, each written to a tempfile and `rename`d
//! into place, so a crashed process leaves at most an orphaned tempfile
//! (ignored on open) — never a half-written segment that poisons the
//! log. Every line is one event:
//!
//! ```json
//! {"v":1,"seq":12,"us":48211,"name":"asynd_job_synthesis","fields":{"id":"job-3"}}
//! ```
//!
//! Reopening a log directory recovers every parseable event and *skips*
//! truncated or corrupt lines (counting them in the report), the same
//! never-trust-the-disk discipline the registry uses. Sequence numbers
//! continue after the highest recovered one.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use serde_json::{Map, Value};

/// Event record format version written by this module.
const FORMAT_VERSION: u64 = 1;

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic sequence number (unique within the log directory).
    pub seq: u64,
    /// Microseconds since the log (or a prior incarnation) was opened —
    /// a relative timeline, not wall-clock time.
    pub us: u64,
    /// Event name (by convention, the span name that produced it).
    pub name: String,
    /// Free-form JSON payload.
    pub fields: Value,
}

impl Event {
    fn to_json(&self) -> Value {
        let mut map = Map::new();
        map.insert("v", Value::from(FORMAT_VERSION));
        map.insert("seq", Value::from(self.seq));
        map.insert("us", Value::from(self.us));
        map.insert("name", Value::from(self.name.as_str()));
        map.insert("fields", self.fields.clone());
        Value::Object(map)
    }

    fn from_line(line: &str) -> Result<Event, String> {
        let value: Value = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
        match value.get("v").and_then(Value::as_u64) {
            Some(FORMAT_VERSION) => {}
            Some(other) => return Err(format!("unsupported event version {other}")),
            None => return Err("missing event version".to_string()),
        }
        let seq =
            value.get("seq").and_then(Value::as_u64).ok_or_else(|| "missing `seq`".to_string())?;
        let us =
            value.get("us").and_then(Value::as_u64).ok_or_else(|| "missing `us`".to_string())?;
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing `name` string".to_string())?;
        let fields = value.get("fields").cloned().unwrap_or(Value::Null);
        Ok(Event { seq, us, name: name.to_string(), fields })
    }
}

/// The result of opening an event log directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLogReport {
    /// Segment files scanned.
    pub segments: usize,
    /// Events recovered.
    pub events: usize,
    /// Corrupt or truncated lines skipped (never recovered). A segment's
    /// unterminated last line counts as truncated even when it parses.
    pub skipped: usize,
}

struct LogState {
    /// Recovered plus newly recorded events, in order. Unflushed events
    /// start at `flushed`.
    events: Vec<Event>,
    flushed: usize,
    next_seq: u64,
    next_file_seq: u64,
}

/// An append-only, crash-tolerant JSON-lines event log.
///
/// Recording appends to an in-memory buffer; [`EventLog::flush`] writes
/// the buffered tail as one atomic segment. The full timeline (recovered
/// and new) stays in memory, which suits the diagnostic sessions this log
/// serves — attach, run a workload, flush, inspect.
pub struct EventLog {
    dir: PathBuf,
    opened: Instant,
    state: Mutex<LogState>,
}

impl EventLog {
    /// Opens (or creates) a log directory, recovering every parseable
    /// newline-terminated event from its segments and skipping corrupt or
    /// truncated lines.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be created or a segment
    /// cannot be read. Malformed *lines* are skipped, not errors.
    pub fn open(dir: impl AsRef<Path>) -> Result<(EventLog, EventLogReport), std::io::Error> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut segments: Vec<(String, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("evt-") && name.ends_with(".jsonl") {
                segments.push((name, entry.path()));
            }
        }
        segments.sort_by(|a, b| a.0.cmp(&b.0));
        let mut next_file_seq = 0u64;
        for (name, _) in &segments {
            let digits = name.trim_start_matches("evt-").trim_end_matches(".jsonl");
            if let Ok(seq) = digits.parse::<u64>() {
                next_file_seq = next_file_seq.max(seq + 1);
            }
        }
        let mut events = Vec::new();
        let mut skipped = 0usize;
        for (_, path) in &segments {
            // Bytes, not text: one bit-rotted line must not brick the
            // whole segment.
            let bytes = fs::read(path)?;
            for raw in bytes.split_inclusive(|&b| b == b'\n') {
                // Only a newline-terminated line is whole: an unterminated
                // tail is a torn write, even when what is left parses.
                let Some(raw) = raw.strip_suffix(b"\n") else {
                    skipped += 1;
                    continue;
                };
                match std::str::from_utf8(raw) {
                    Ok(line) if line.trim().is_empty() => {}
                    Ok(line) => match Event::from_line(line) {
                        Ok(event) => events.push(event),
                        Err(_) => skipped += 1,
                    },
                    Err(_) => skipped += 1,
                }
            }
        }
        let next_seq = events.iter().map(|e| e.seq + 1).max().unwrap_or(0);
        let report = EventLogReport { segments: segments.len(), events: events.len(), skipped };
        let flushed = events.len();
        let log = EventLog {
            dir,
            opened: Instant::now(),
            state: Mutex::new(LogState { events, flushed, next_seq, next_file_seq }),
        };
        Ok((log, report))
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one event to the in-memory buffer (no I/O).
    pub fn record(&self, name: &str, fields: Value) {
        let us = u64::try_from(self.opened.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut state = self.state.lock().expect("event log poisoned");
        let seq = state.next_seq;
        state.next_seq += 1;
        state.events.push(Event { seq, us, name: name.to_string(), fields });
    }

    /// Events not yet written to disk.
    pub fn pending(&self) -> usize {
        let state = self.state.lock().expect("event log poisoned");
        state.events.len() - state.flushed
    }

    /// The full in-memory timeline: recovered events followed by every
    /// event recorded since open.
    pub fn events(&self) -> Vec<Event> {
        self.state.lock().expect("event log poisoned").events.clone()
    }

    /// Writes all pending events as one new segment, atomically
    /// (tempfile + rename). A no-op when nothing is pending.
    ///
    /// # Errors
    ///
    /// Returns an error when the segment cannot be written; the pending
    /// buffer is kept so a later flush can retry.
    pub fn flush(&self) -> Result<usize, std::io::Error> {
        let mut state = self.state.lock().expect("event log poisoned");
        let pending = &state.events[state.flushed..];
        if pending.is_empty() {
            return Ok(0);
        }
        let mut text = String::new();
        for event in pending {
            text.push_str(
                &serde_json::to_string(&event.to_json())
                    .expect("event serialization is infallible"),
            );
            text.push('\n');
        }
        let seq = state.next_file_seq;
        let tmp = self.dir.join(format!(".tmp-evt-{seq:010}"));
        let path = self.dir.join(format!("evt-{seq:010}.jsonl"));
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        let written = state.events.len() - state.flushed;
        state.next_file_seq += 1;
        state.flushed = state.events.len();
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asynd-events-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fields(id: &str) -> Value {
        let mut map = Map::new();
        map.insert("id", Value::from(id));
        Value::Object(map)
    }

    #[test]
    fn record_flush_reopen_roundtrip() {
        let dir = scratch("roundtrip");
        let (log, report) = EventLog::open(&dir).unwrap();
        assert_eq!(report.events, 0);
        log.record("job_synthesis", fields("a"));
        log.record("job_store", fields("a"));
        assert_eq!(log.pending(), 2);
        assert_eq!(log.flush().unwrap(), 2);
        assert_eq!(log.pending(), 0);
        assert_eq!(log.flush().unwrap(), 0, "flush with nothing pending is a no-op");
        drop(log);

        let (reopened, report) = EventLog::open(&dir).unwrap();
        assert_eq!(report.segments, 1);
        assert_eq!(report.events, 2);
        assert_eq!(report.skipped, 0);
        let events = reopened.events();
        assert_eq!(events[0].name, "job_synthesis");
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        // Sequence numbers continue after the recovered tail.
        reopened.record("next", Value::Null);
        assert_eq!(reopened.events()[2].seq, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_lines_are_skipped_on_reopen() {
        let dir = scratch("corrupt");
        let (log, _) = EventLog::open(&dir).unwrap();
        log.record("ok", Value::Null);
        log.flush().unwrap();
        drop(log);
        // A truncated line, a non-UTF-8 line, and an orphaned tempfile.
        fs::write(dir.join("evt-9999999998.jsonl"), "{\"v\":1,\"seq\":9,\"us\":1,\"na").unwrap();
        fs::write(dir.join("evt-9999999999.jsonl"), b"\xff\xfe{}\n").unwrap();
        fs::write(dir.join(".tmp-evt-0000000042"), "ignored").unwrap();
        let (reopened, report) = EventLog::open(&dir).unwrap();
        assert_eq!(report.events, 1);
        assert_eq!(report.skipped, 2);
        assert_eq!(reopened.events()[0].name, "ok");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unterminated_last_line_is_skipped_even_when_it_parses() {
        let dir = scratch("unterminated");
        let (log, _) = EventLog::open(&dir).unwrap();
        for id in ["a", "b", "c"] {
            log.record("job_store", fields(id));
        }
        log.flush().unwrap();
        drop(log);
        // A cut that removes exactly the final newline leaves a complete
        // JSON object behind.
        let segment = dir.join("evt-0000000000.jsonl");
        let mut bytes = fs::read(&segment).unwrap();
        assert_eq!(bytes.pop(), Some(b'\n'));
        fs::write(&segment, &bytes).unwrap();
        let (reopened, report) = EventLog::open(&dir).unwrap();
        assert_eq!((report.events, report.skipped), (2, 1));
        assert_eq!(reopened.events().last().unwrap().fields, fields("b"));
        fs::remove_dir_all(&dir).unwrap();
    }
}

//! Event sinks: where span events go when someone is watching.
//!
//! Two sinks exist. The JSON Lines sink appends one compact JSON object
//! per event to a file — machine-readable, safe to `tail -f`, and the
//! format the analysis notebooks ingest. The human sink writes indented
//! `[obs]` lines to stderr for `--verbose` interactive runs. At most one
//! sink is installed at a time; with no sink installed, span events cost
//! only their metric updates.

use crate::json::Json;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::Mutex;
use std::time::Duration;

enum Sink {
    Jsonl(BufWriter<File>),
    Human,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Installs the JSON Lines sink, truncating `path`. Replaces (and
/// flushes) any previously installed sink.
pub fn install_jsonl(path: &str) -> std::io::Result<()> {
    let file = File::create(path)?;
    *SINK.lock().expect("sink lock") = Some(Sink::Jsonl(BufWriter::new(file)));
    Ok(())
}

/// Installs the human-readable stderr sink.
pub fn install_human() {
    *SINK.lock().expect("sink lock") = Some(Sink::Human);
}

/// Removes the installed sink, flushing buffered output.
pub fn uninstall() {
    let mut guard = SINK.lock().expect("sink lock");
    if let Some(Sink::Jsonl(mut w)) = guard.take() {
        let _ = w.flush();
    }
}

pub(crate) fn emit_span(kind: &str, name: &str, depth: usize, t: Duration, dur: Option<Duration>) {
    let mut guard = SINK.lock().expect("sink lock");
    let Some(sink) = guard.as_mut() else { return };
    match sink {
        Sink::Jsonl(w) => {
            let mut pairs = vec![
                ("ev", Json::str(kind)),
                ("name", Json::str(name)),
                ("depth", Json::U64(depth as u64)),
                ("t_ns", Json::U64(t.as_nanos() as u64)),
            ];
            if let Some(d) = dur {
                pairs.push(("dur_ns", Json::U64(d.as_nanos() as u64)));
            }
            let _ = writeln!(w, "{}", Json::obj(pairs).to_string_compact());
        }
        Sink::Human => {
            let indent = "  ".repeat(depth);
            match dur {
                Some(d) => {
                    eprintln!("[obs] {indent}{name} done in {:.3} ms", d.as_secs_f64() * 1e3)
                }
                None => eprintln!("[obs] {indent}{name} ..."),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    // Both tests hold the crate's test lock: the sink is process-global,
    // and every test that opens a span writes to whatever sink is
    // installed.
    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let _l = crate::test_lock();
        let path = std::env::temp_dir().join(format!("obs_sink_test.{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap();
        install_jsonl(path).unwrap();
        emit_span("span_begin", "stage", 0, Duration::from_nanos(5), None);
        emit_span("span_end", "stage", 0, Duration::from_nanos(5), Some(Duration::from_nanos(7)));
        uninstall();
        let text = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let end = Json::parse(lines[1]).unwrap();
        assert_eq!(end.get("ev").unwrap().as_str(), Some("span_end"));
        assert_eq!(end.get("dur_ns").unwrap().as_u64(), Some(7));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn no_sink_is_a_quiet_no_op() {
        let _l = crate::test_lock();
        uninstall();
        emit_span("span_begin", "quiet", 1, Duration::ZERO, None);
    }
}

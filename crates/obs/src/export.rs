//! Exporters: Chrome `trace_event` JSON and JSON-lines dumps.
//!
//! Both formats are assembled by hand (the workspace has no serialization
//! crate), matching the `BENCH_*.json` writer idiom used by the bench bins.
//!
//! [`chrome_trace_json`] produces the legacy `trace_event` array format
//! loadable in `chrome://tracing` and Perfetto: each finished span becomes a
//! complete (`"ph":"X"`) event, each instant event an `"i"` event.  The
//! *trace id* is mapped to the `pid` field so every job groups into its own
//! process row, with the recorder's thread index as `tid`; span/parent ids
//! ride in `args` so the job → superstep → block tree stays
//! reconstructible from the file alone.

use crate::trace::SpanRecord;

fn push_us(out: &mut String, ns: u64) {
    out.push_str(&(ns / 1000).to_string());
    out.push('.');
    let frac = ns % 1000;
    out.push((b'0' + (frac / 100) as u8) as char);
    out.push((b'0' + (frac / 10 % 10) as u8) as char);
    out.push((b'0' + (frac % 10) as u8) as char);
}

fn push_common(out: &mut String, span: &SpanRecord) {
    out.push_str("\"name\":\"");
    out.push_str(span.name);
    out.push_str("\",\"cat\":\"aohpc\",\"pid\":");
    out.push_str(&span.trace.to_string());
    out.push_str(",\"tid\":");
    out.push_str(&span.thread.to_string());
    out.push_str(",\"ts\":");
    push_us(out, span.start_ns);
    out.push_str(",\"args\":{\"trace\":");
    out.push_str(&span.trace.to_string());
    out.push_str(",\"span\":");
    out.push_str(&span.span.to_string());
    out.push_str(",\"parent\":");
    out.push_str(&span.parent.to_string());
    out.push_str(",\"a\":");
    out.push_str(&span.a.to_string());
    out.push_str(",\"b\":");
    out.push_str(&span.b.to_string());
    out.push('}');
}

/// Render spans as a Chrome `trace_event` JSON document.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 * spans.len() + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        if span.end_ns > span.start_ns {
            out.push_str("\"ph\":\"X\",\"dur\":");
            push_us(&mut out, span.duration_ns());
            out.push(',');
        } else {
            out.push_str("\"ph\":\"i\",\"s\":\"t\",");
        }
        push_common(&mut out, span);
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Render spans as JSON lines (one object per span), cheap to grep and diff.
pub fn json_lines(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 * spans.len());
    for span in spans {
        out.push_str("{\"trace\":");
        out.push_str(&span.trace.to_string());
        out.push_str(",\"span\":");
        out.push_str(&span.span.to_string());
        out.push_str(",\"parent\":");
        out.push_str(&span.parent.to_string());
        out.push_str(",\"name\":\"");
        out.push_str(span.name);
        out.push_str("\",\"start_ns\":");
        out.push_str(&span.start_ns.to_string());
        out.push_str(",\"end_ns\":");
        out.push_str(&span.end_ns.to_string());
        out.push_str(",\"thread\":");
        out.push_str(&span.thread.to_string());
        out.push_str(",\"a\":");
        out.push_str(&span.a.to_string());
        out.push_str(",\"b\":");
        out.push_str(&span.b.to_string());
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u64, parent: u64, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace: 1,
            span,
            parent,
            name: "Kernel::execute_block",
            start_ns: start,
            end_ns: end,
            thread: 3,
            a: 7,
            b: 4096,
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let json = chrome_trace_json(&[span(2, 1, 1500, 4750), span(3, 2, 4750, 4750)]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        // Complete event with µs timestamps (1500ns = 1.500µs, dur 3.250µs).
        assert!(json.contains("\"ph\":\"X\",\"dur\":3.250,"), "{json}");
        assert!(json.contains("\"ts\":1.500,"), "{json}");
        // Instant event for the zero-duration record.
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\""), "{json}");
        // Parent linkage rides in args.
        assert!(json.contains("\"span\":2,\"parent\":1"), "{json}");
        assert!(json.contains("\"pid\":1,"), "trace id must map to pid: {json}");
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }

    #[test]
    fn json_lines_one_object_per_span() {
        let text = json_lines(&[span(2, 1, 10, 20), span(3, 2, 20, 30)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"trace\":1,\"span\":2,\"parent\":1,"));
        assert!(lines[1].contains("\"start_ns\":20,\"end_ns\":30"));
    }
}

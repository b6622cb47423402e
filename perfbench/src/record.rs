//! Result records: the fingerprint that pins a run's simulated outcome,
//! the flow statistics the end-to-end metrics report, and the one-line
//! JSON report the harness (`run.py`) parses.

use crate::trace::Span;
use fatpaths_sim::{FlowRecord, SimResult, Summary};
use std::fmt::Write as _;

/// FNV-1a over a stream of words.
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in everything a pure-speed change must leave identical:
    /// per-flow finish, retransmissions, trims and fault outcome, plus
    /// the run's trims, drops, unroutable count and end time.
    pub fn result(&mut self, r: &SimResult) {
        self.word(r.flows.len() as u64);
        for f in &r.flows {
            self.word(f.finish.unwrap_or(u64::MAX));
            self.word(f.retx as u64);
            self.word(f.trims as u64);
            self.word(f.host_dead as u64 | (f.aborted as u64) << 1);
        }
        for w in [r.trims, r.drops, r.unroutable, r.end_time] {
            self.word(w);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Fingerprint of one run's result.
pub fn fingerprint(r: &SimResult) -> String {
    let mut fp = Fingerprint::new();
    fp.result(r);
    fp.hex()
}

/// Operation accounting: an operation is one eligible flow; it fails
/// when it did not complete by the horizon or was aborted.
pub fn ops(r: &SimResult) -> (u64, u64) {
    let eligible = r.eligible().count() as u64;
    let done = r
        .eligible()
        .filter(|f| f.finish.is_some() && !f.aborted)
        .count() as u64;
    (eligible, eligible - done)
}

/// Simulated flow statistics over the flows a workload scores.
pub struct FlowStats {
    pub fct: Summary,
    pub tput_mib_s: f64,
}

pub fn flow_stats<'a>(flows: impl Iterator<Item = &'a FlowRecord>) -> FlowStats {
    let (mut fcts_us, mut tputs) = (Vec::new(), Vec::new());
    for f in flows {
        if let (Some(s), Some(t)) = (f.fct_s(), f.throughput_mib_s()) {
            fcts_us.push(s * 1e6);
            tputs.push(t);
        }
    }
    FlowStats {
        fct: Summary::of(&fcts_us),
        tput_mib_s: Summary::of(&tputs).mean,
    }
}

/// Payload bytes of completed flows, in GiB.
pub fn completed_gib(r: &SimResult) -> f64 {
    r.completed().map(|f| f.size).sum::<u64>() as f64 / (1u64 << 30) as f64
}

/// The child's report: metrics, self-checks, provenance and spans.
#[derive(Default)]
pub struct Report {
    pub fingerprint: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub checks: Vec<(&'static str, bool, String)>,
    pub info: Vec<(&'static str, String)>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, v: f64) {
        self.metrics.push((name, v));
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push((name, ok, detail));
    }

    pub fn info(&mut self, name: &'static str, v: impl ToString) {
        self.info.push((name, v.to_string()));
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"fingerprint\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            quote(&self.fingerprint),
            self.attempted,
            self.failed
        );
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let _ = write!(s, "{}{}:{}", comma(i), quote(k), num(*v));
        }
        s.push_str("},\"checks\":[");
        for (i, (k, ok, detail)) in self.checks.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"name\":{},\"ok\":{ok},\"detail\":{}}}",
                comma(i),
                quote(k),
                quote(detail)
            );
        }
        s.push_str("],\"info\":{");
        for (i, (k, v)) in self.info.iter().enumerate() {
            let _ = write!(s, "{}{}:{}", comma(i), quote(k), quote(v));
        }
        s.push_str("},\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}{{\"name\":{},\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                comma(i),
                quote(sp.name),
                num(sp.start_s),
                num(sp.end_s)
            );
        }
        s.push_str("]}");
        s
    }
}

fn comma(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ","
    }
}

/// JSON number; non-finite values (never expected) become `null` so
/// the harness rejects them instead of mis-parsing.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

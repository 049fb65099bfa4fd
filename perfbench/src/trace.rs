//! In-memory spans of the traced run, recorded by the driver thread around
//! its own calls into the program: one root span per request, with
//! `generate`, `submit` and `wait` children. Written out as TSV when the run
//! ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// From the start of generation until the reply; its duration minus the
    /// `generate` child is the request's submit-to-reply latency.
    Request,
    /// `Workload::generate`.
    Generate,
    /// `Session::submit_request`.
    Submit,
    /// `Session::wait`.
    Wait,
}

impl SpanKind {
    fn label(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Generate => "generate",
            SpanKind::Submit => "submit",
            SpanKind::Wait => "wait",
        }
    }
}

#[derive(Clone, Debug)]
struct Span {
    request: u64,
    parent: Option<usize>,
    kind: SpanKind,
    start_ns: u64,
    end_ns: u64,
    /// Executor phase time the reply carried (`wait` spans only).
    exec_ns: u64,
}

/// The span store plus running totals over the traced phase.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_request: u64,
    pub generate_ns: u64,
    pub submit_ns: u64,
    /// Sum of the executor phases all replies carried.
    pub exec_ns: u64,
    /// Sum of the submit-to-reply latency of all replies.
    pub reply_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_request: 0,
            generate_ns: 0,
            submit_ns: 0,
            exec_ns: 0,
            reply_ns: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens the root span of a new request; returns its index.
    pub fn open(&mut self, start: Instant) -> usize {
        let request = self.next_request;
        self.next_request += 1;
        let start_ns = self.ns(start);
        self.spans.push(Span { request, parent: None, kind: SpanKind::Request, start_ns, end_ns: 0, exec_ns: 0 });
        self.spans.len() - 1
    }

    /// Records a finished child span of the request rooted at `root`.
    pub fn span(&mut self, root: usize, kind: SpanKind, start: Instant, end: Instant, exec_ns: u64) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        match kind {
            SpanKind::Generate => self.generate_ns += end_ns - start_ns,
            SpanKind::Submit => self.submit_ns += end_ns - start_ns,
            SpanKind::Wait => self.exec_ns += exec_ns,
            SpanKind::Request => {}
        }
        let request = self.spans[root].request;
        self.spans.push(Span { request, parent: Some(root), kind, start_ns, end_ns, exec_ns });
    }

    /// Closes the root span at the reply; `submitted` is when the request
    /// was handed to the session.
    pub fn close(&mut self, root: usize, submitted: Instant, done: Instant) {
        self.reply_ns += done.saturating_duration_since(submitted).as_nanos() as u64;
        self.spans[root].end_ns = self.ns(done);
    }

    /// One TSV row per span. A root whose `end_ns` is 0 belongs to a request
    /// the traced phase left in flight.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("request\tspan\tparent\tname\tstart_ns\tend_ns\texec_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request,
                s.kind.label(),
                s.start_ns,
                s.end_ns,
                s.exec_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_under_their_request_and_feed_the_totals() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let a = t.open(t0);
        t.span(a, SpanKind::Generate, t0, ms(1), 0);
        t.span(a, SpanKind::Submit, ms(1), ms(2), 0);
        let b = t.open(ms(2));
        t.span(a, SpanKind::Wait, ms(2), ms(5), 1_500_000);
        t.close(a, ms(1), ms(5));
        assert_eq!((t.generate_ns, t.submit_ns, t.exec_ns, t.reply_ns), (1_000_000, 1_000_000, 1_500_000, 4_000_000));
        let tsv = t.to_tsv();
        let rows: Vec<&str> = tsv.lines().collect();
        assert_eq!(rows.len(), 1 + 5);
        assert!(rows[1].starts_with("0\t0\t-\trequest\t"));
        assert!(rows[3].starts_with("0\t2\t0\tsubmit\t"));
        assert!(rows[4].starts_with(&format!("1\t{b}\t-\trequest\t")));
        assert!(rows[5].starts_with("0\t4\t0\twait\t"));
    }
}

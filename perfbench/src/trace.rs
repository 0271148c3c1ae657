//! In-memory spans for the traced run, written out when the run ends.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! the program (each `NetClient` call, each `Protocol` call); spans of one
//! request share its id. Server-reported splits (queue, service) arrive as
//! durations on the server's clock and are recorded as child spans on that
//! clock. The buffer is capped so a long traced run cannot grow without
//! bound; spans past the cap are counted, not kept.

use std::io::Write;
use std::time::Instant;

/// Most spans one run keeps.
const MAX_SPANS: usize = 1 << 18;

/// Which clock a span's timestamps are on.
#[derive(Clone, Copy)]
pub enum Clock {
    /// Nanoseconds since the trace's epoch, on the benchmark's clock.
    Local,
    /// Nanoseconds since the server front-end's epoch.
    Server,
}

#[derive(Clone, Copy)]
struct Span {
    id: u64,
    name: &'static str,
    parent: &'static str,
    clock: Clock,
    start_ns: u64,
    end_ns: u64,
}

/// A run's span buffer.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::with_capacity(1 << 16),
            dropped: 0,
        }
    }

    /// Nanoseconds since the trace epoch.
    pub fn now(&self) -> u64 {
        crate::ns_since(self.epoch)
    }

    /// Record span `name` of request `id`, caused by span `parent` of the
    /// same request (`""` for a root span).
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: &'static str,
        clock: Clock,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                id,
                name,
                parent,
                clock,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Write the spans as tab-separated lines to
    /// `perfbench/traces/<workload>-seed<seed>.tsv`, replacing an earlier
    /// run's file. Failing to write is reported, not fatal: the metrics
    /// were already derived.
    pub fn write(&self, workload: &str, seed: u64) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{workload}-seed{seed}.tsv"));
        let result = std::fs::create_dir_all(&dir).and_then(|()| {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            writeln!(out, "# id\tname\tparent\tclock\tstart_ns\tend_ns")?;
            writeln!(
                out,
                "# spans past the {MAX_SPANS}-span cap: {}",
                self.dropped
            )?;
            for s in &self.spans {
                let clock = match s.clock {
                    Clock::Local => "local",
                    Clock::Server => "server",
                };
                writeln!(
                    out,
                    "{}\t{}\t{}\t{clock}\t{}\t{}",
                    s.id, s.name, s.parent, s.start_ns, s.end_ns
                )?;
            }
            out.flush()
        });
        match result {
            Ok(()) => eprintln!(
                "trace: {} spans written to {}",
                self.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
    }
}

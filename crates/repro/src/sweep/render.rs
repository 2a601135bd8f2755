//! Deterministic sweep rendering and trace splicing.
//!
//! [`SweepOutcome::render`] is a pure function of the resolved spec and
//! the cell values: no wall-clock content, no thread counts, and — new
//! with sharding — no cache counters, which depend on how the grid was
//! partitioned (each shard's cache sees only its own lookups). Those
//! live in [`SweepOutcome::render_timings`] with the other per-process
//! diagnostics. The payoff is the invariant the shard tests assert: the
//! rendered report is bit-identical across thread counts, shard counts,
//! and kill/resume cycles.

use super::checkpoint::{self, Meta};
use super::exec::SweepOutcome;
use paradrive_engine::Trace;
use std::fmt::Write as _;

impl SweepOutcome {
    /// The deterministic report: per-cell rows plus per-topology and
    /// per-calibration rollups — bit-identical at any thread count,
    /// shard count, or resume history.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for run in &self.runs {
            if run.verify == "off" {
                let _ = writeln!(out, "== sweep ({} costing) ==", run.costing);
            } else {
                let _ = writeln!(
                    out,
                    "== sweep ({} costing, {} verification) ==",
                    run.costing, run.verify
                );
            }
            // Drifted runs carry two extra columns (epoch + policy
            // decision); static runs keep the legacy layout byte for
            // byte.
            let fleet_run = run.fleet.is_some();
            if fleet_run {
                let _ = writeln!(
                    out,
                    "{:<16} {:<12} {:<11} {:>5} {:>3} {:>8} {:>6} {:>6} {:>7} {:>10} {:>10} \
                     {:>7} {:>9} {:>9}",
                    "topology",
                    "calibration",
                    "benchmark",
                    "seed",
                    "ep",
                    "decision",
                    "swaps",
                    "depth",
                    "blocks",
                    "D[base]",
                    "D[opt]",
                    "Δ%",
                    "FT imp%",
                    "F[T]opt"
                );
            } else {
                let _ = writeln!(
                    out,
                    "{:<16} {:<12} {:<11} {:>5} {:>6} {:>6} {:>7} {:>10} {:>10} {:>7} {:>9} {:>9}",
                    "topology",
                    "calibration",
                    "benchmark",
                    "seed",
                    "swaps",
                    "depth",
                    "blocks",
                    "D[base]",
                    "D[opt]",
                    "Δ%",
                    "FT imp%",
                    "F[T]opt"
                );
            }
            for c in self
                .cells
                .iter()
                .filter(|c| c.costing == run.costing && c.verify == run.verify)
            {
                if fleet_run {
                    let _ = write!(
                        out,
                        "{:<16} {:<12} {:<11} {:>5} {:>3} {:>8}",
                        c.topology, c.calibration, c.benchmark, c.suite_seed, c.epoch, c.decision,
                    );
                } else {
                    let _ = write!(
                        out,
                        "{:<16} {:<12} {:<11} {:>5}",
                        c.topology, c.calibration, c.benchmark, c.suite_seed,
                    );
                }
                let _ = write!(
                    out,
                    " {:>6} {:>6} {:>7} {:>10.2} {:>10.2} {:>7.1} {:>9.2} {:>9.4}",
                    c.swaps,
                    c.depth,
                    c.blocks,
                    c.baseline_duration,
                    c.optimized_duration,
                    c.reduction_pct,
                    c.ft_improvement_pct,
                    c.optimized_ft,
                );
                match &c.verification {
                    Some(v) => {
                        let _ = writeln!(out, "  {v}");
                    }
                    None => {
                        let _ = writeln!(out);
                    }
                }
            }
            let _ = writeln!(out, "by topology:");
            for g in &run.by_topology {
                let _ = writeln!(
                    out,
                    "  {:<16} {} cells, {} swaps, mean Δ {:.1}%",
                    g.topology, g.circuits, g.total_swaps, g.mean_reduction_pct
                );
            }
            let _ = writeln!(out, "by calibration:");
            for g in &run.by_calibration {
                let _ = writeln!(
                    out,
                    "  {:<16} {} cells, {} swaps, mean Δ {:.1}%, mean F[T]opt {:.4}",
                    g.calibration,
                    g.circuits,
                    g.total_swaps,
                    g.mean_reduction_pct,
                    g.mean_optimized_ft
                );
            }
            if let Some(f) = &run.fleet {
                let _ = writeln!(out, "fleet:");
                for e in &f.epochs {
                    let _ = writeln!(
                        out,
                        "  epoch {:>2}: {} cells, {} fresh, {} kept, {} retrans, \
                         mean F[T]opt {:.4}, route reuse {:.1}%",
                        e.epoch,
                        e.cells,
                        e.fresh,
                        e.kept,
                        e.retranspiled,
                        e.mean_delivered_ft,
                        e.route_reuse_rate * 100.0,
                    );
                }
                let _ = writeln!(
                    out,
                    "  mean delivered F[T]opt {:.4}, {} re-transpiles, re-transpile rate {:.1}%",
                    f.mean_delivered_ft,
                    f.total_retranspiles,
                    f.retranspile_rate * 100.0,
                );
            }
            if let Some(v) = &run.verification {
                let _ = writeln!(out, "{v}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Wall-clock timings and other per-process diagnostics (thread
    /// count, per-run and slowest-cell times, per-stage histograms, and
    /// the decomposition-cache counters, which vary with how the grid
    /// was partitioned). Separate from [`SweepOutcome::render`] because
    /// these are the things that legitimately vary run to run.
    pub fn render_timings(&self) -> String {
        let mut out = String::new();
        for run in &self.runs {
            let slowest = self
                .cells
                .iter()
                .filter(|c| c.costing == run.costing && c.verify == run.verify)
                .max_by_key(|c| c.wall);
            let _ = write!(
                out,
                "[timings] {} costing ({} verification): {:.1} ms on {} threads",
                run.costing,
                run.verify,
                run.wall_clock.as_secs_f64() * 1e3,
                run.threads,
            );
            if run.fleet.is_some() {
                // Fleet spans are keyed by fleet job, not by cell, so no
                // cell's time can be read back from the trace.
                let _ = write!(out, "; fleet runs do not time cells");
            } else if let Some(c) = slowest {
                // The full deterministic cell label: the point is to know
                // *which* cell to rerun, not just that one was slow.
                let _ = write!(
                    out,
                    "; slowest cell {} at {:.1} ms",
                    c.label(),
                    c.wall.as_secs_f64() * 1e3
                );
            }
            let _ = writeln!(out);
            match run.cache {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "[timings]   cache: {} hits / {} misses ({:.1}% hit rate), {} entries",
                        s.hits,
                        s.misses,
                        s.hit_rate().unwrap_or(0.0) * 100.0,
                        s.entries,
                    );
                }
                None => {
                    let _ = writeln!(out, "[timings]   cache: disabled");
                }
            }
            for s in run.trace.stage_summary() {
                let ms = |ns: u64| ns as f64 / 1e6;
                let _ = writeln!(
                    out,
                    "[timings]   {:<12} {:>4} spans, p50 {:.3} ms, p95 {:.3} ms, max {:.3} ms",
                    s.name,
                    s.count,
                    ms(s.p50_ns),
                    ms(s.p95_ns),
                    ms(s.max_ns),
                );
            }
        }
        out
    }

    /// Concatenates every run's trace into one exportable timeline: runs
    /// are laid end to end (each shifted past the previous run's last
    /// span) and their counters namespaced `<costing>.<verify>.`, so one
    /// file carries the whole sweep without colliding counter names.
    pub fn merged_trace(&self) -> Trace {
        let mut merged = Trace::default();
        for run in &self.runs {
            let mut t = run.trace.clone();
            t.shift(merged.end_ns());
            t.prefix_counters(&format!("{}.{}.", run.costing, run.verify));
            merged.merge(t);
        }
        merged
    }

    /// The machine-readable mirror of the outcome, in the journal dialect
    /// (see [`super::read_journal`]): a `sweep-meta` header, one `cell`
    /// line per cell in ordinal order, and a `shard-done` trailer. The
    /// rollups are left out because `sweep merge` re-derives them from the
    /// cells. Fully deterministic for a given spec and shard slice — a
    /// merged outcome serializes byte-identically to a single-process run.
    pub fn to_jsonl(&self) -> String {
        let meta = Meta {
            fingerprint: self.fingerprint,
            shards: self.shards,
            shard: self.shard,
        };
        let mut out = checkpoint::meta_line(&meta);
        out.push('\n');
        for cell in &self.cells {
            out.push_str(&checkpoint::cell_line(cell));
            out.push('\n');
        }
        out.push_str(&checkpoint::done_line(self.cells.len()));
        out.push('\n');
        out
    }
}

/// Splices per-shard traces into one timeline for the merged sweep:
/// shard `i`'s trace is shifted past the previous shard's last span and
/// its counters namespaced `shard<i>.`, so counters that are genuinely
/// per-process (cache hits, stage totals) stay attributed to the shard
/// that produced them instead of silently summing.
pub fn splice_shard_traces(traces: &[Trace]) -> Trace {
    let mut merged = Trace::default();
    for (i, t) in traces.iter().enumerate() {
        let mut t = t.clone();
        t.shift(merged.end_ns());
        t.prefix_counters(&format!("shard{i}."));
        merged.merge(t);
    }
    merged
}

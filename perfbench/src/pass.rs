//! One HTTP pass over a workload: set-up, the timed phase, the
//! correctness gate, and restarts.

use std::path::Path;

use sketches_serve::{Json, Sampling};
use sketches_streamdb::SketchEngine;

use crate::check;
use crate::drive::{self, Live, Load};
use crate::workload::{rows, Inputs, Mode, Params};

/// Report passes over the sampled groups in a closed-loop workload's
/// quiescent probe: 64 × 16 groups leaves 10 samples beyond p99.
const PROBE_ROUNDS: usize = 64;
/// View pulls in a closed-loop workload's quiescent probe.
const PROBE_VIEWS: usize = 32;

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub struct Pass {
    /// The timed phase.
    pub load: Load,
    /// The quiescent probe after it.
    pub probe: Load,
    /// Seconds per set-up (server start plus preload).
    pub setup_s: Vec<f64>,
    /// Seconds per restart (drain to ready).
    pub restart_s: Vec<f64>,
    /// Checks outside the request phases, and the post-restart reads.
    pub gate: Load,
    /// `/metrics?format=json` after the timed phase (traced passes).
    pub metrics: Option<Json>,
    /// `/v1/debug/traces` after the timed phase (traced passes).
    pub traces: Option<Json>,
    /// Connections the server shed.
    pub shed_total: u64,
    /// Ingest retries the server made.
    pub retry_total: u64,
}

impl Pass {
    /// Requests attempted across every phase.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.load.attempted + self.probe.attempted + self.gate.attempted
    }

    /// Requests failed or answered wrongly, plus failed checks.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.load.failed + self.probe.failed + self.gate.failed
    }

    /// The first few failure descriptions.
    #[must_use]
    pub fn errors(&self) -> Vec<String> {
        [&self.load, &self.probe, &self.gate]
            .iter()
            .flat_map(|l| l.errors.iter().cloned())
            .take(20)
            .collect()
    }

    /// Rows acknowledged per second of the timed phase.
    #[must_use]
    pub fn rows_per_s(&self) -> f64 {
        self.load.rows_timed as f64 / self.load.seconds
    }

    /// The report and view latencies the workload is judged on: under
    /// load for the open loop, from the quiescent probe otherwise.
    #[must_use]
    pub fn reads(&self, p: &Params) -> &Load {
        match p.mode {
            Mode::Open { .. } => &self.load,
            Mode::Closed { .. } => &self.probe,
        }
    }
}

/// Runs one pass: `setups` set-ups (all but the last drained again),
/// the timed phase, the correctness gate, and `restarts` restarts, each
/// followed by a re-read of the sampled groups.
///
/// # Errors
/// A server that cannot be set up or restarted.
pub fn run(
    p: &Params,
    inputs: &Inputs,
    sampling: Sampling,
    seconds: f64,
    setups: usize,
    restarts: usize,
    dir: &Path,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let wal_dir = |i: usize| p.durable.then(|| dir.join(format!("wal-{i}")));
    let mut live: Option<Live> = None;
    for i in 0..setups.max(1) {
        if let Some(previous) = live.take() {
            let _ = previous.server.shutdown();
        }
        if let Some(d) = i.checked_sub(1).and_then(wal_dir) {
            let _ = std::fs::remove_dir_all(d);
        }
        if let Some(d) = wal_dir(i) {
            let _ = std::fs::remove_dir_all(&d);
        }
        let (l, s) = drive::start(p, inputs, sampling, wal_dir(i))?;
        pass.setup_s.push(s);
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");

    pass.load = match p.mode {
        Mode::Closed { clients } => drive::closed_loop(live.addr, p, inputs, clients, seconds),
        Mode::Open {
            slots_per_s,
            views_per_s,
            reports_per_s,
        } => drive::open_loop(
            live.addr,
            p,
            inputs,
            slots_per_s,
            views_per_s,
            reports_per_s,
            seconds,
        ),
    };
    pass.shed_total = live.server.metrics().shed_total();
    pass.retry_total = live.server.metrics().retry_attempts_total();
    if sampling != Sampling::Off {
        pass.metrics = Some(drive::get_json(live.addr, "/metrics?format=json")?);
        pass.traces = Some(drive::get_json(live.addr, "/v1/debug/traces?count=256")?);
    }

    let (rounds, views) = match p.mode {
        Mode::Open { .. } => (1, 1),
        Mode::Closed { .. } => (PROBE_ROUNDS, PROBE_VIEWS),
    };
    let (probe, before) = drive::probe(live.addr, &inputs.sample_groups, rounds, views);
    pass.probe = probe;
    gate(p, inputs, &live, &mut pass, &before);

    for _ in 0..restarts {
        let (l, s) = drive::restart(live, p, sampling)?;
        live = l;
        pass.restart_s.push(s);
        let (reread, after) = drive::probe(live.addr, &inputs.sample_groups, 1, 0);
        pass.gate.absorb(reread);
        for ((group, was), (_, now)) in before.iter().zip(&after) {
            if was != now {
                pass.gate
                    .fail(format!("group {group}: report changed across restart"));
            }
        }
    }
    let drained = live.server.shutdown();
    if let Some(e) = drained.checkpoint_error {
        pass.gate.fail(format!("final drain checkpoint: {e}"));
    }
    if let Some(d) = wal_dir(setups.max(1) - 1) {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(pass)
}

/// The correctness gate after the timed phase.
fn gate(p: &Params, inputs: &Inputs, live: &Live, pass: &mut Pass, reports: &[(u64, String)]) {
    let mut acked = pass.load.acked.clone();
    acked.sort_unstable();
    let counts = check::exact_counts(p.groups, &inputs.preload, &inputs.batches, &acked);
    let g = &mut pass.gate;

    // Every acked row, and nothing else, was applied.
    let expected = inputs.preload.len() as u64 + pass.load.rows_acked;
    let applied = live.server.reader().rows_processed();
    if applied != expected {
        g.fail(format!(
            "rows_processed {applied} != preload + acked rows {expected}"
        ));
    }

    // Sampled reports: bit-exact against the sequential engine when one
    // writer fixes the apply order, exact counts otherwise.
    let single_writer = !matches!(p.mode, Mode::Closed { clients } if clients > 1);
    let reference = single_writer.then(|| {
        let mut engine = SketchEngine::new(p.spec()).expect("benchmark spec is valid");
        let mut apply = |events: &[_]| {
            engine
                .process_batch(&rows(events))
                .expect("reference accepts generated rows");
        };
        apply(&inputs.preload);
        for &i in &acked {
            apply(&inputs.batches[i % inputs.batches.len()]);
        }
        engine
    });
    for (group, body) in reports {
        if body.is_empty() {
            continue; // already counted as a failed request
        }
        let verdict = match &reference {
            Some(engine) => check::matches_reference(body, *group, engine),
            None => check::report_count(body).and_then(|c| {
                let want = counts[*group as usize];
                (c == want)
                    .then_some(())
                    .ok_or(format!("group {group}: count {c} != exact {want}"))
            }),
        };
        if let Err(e) = verdict {
            g.fail(e);
        }
    }

    // Reports read under load saw a committed prefix: at least the
    // preload, at most the final count, and never going backwards.
    let mut last_seen = vec![0u64; p.groups as usize + 1];
    for &(group, count) in &pass.load.seen_counts {
        let i = group as usize;
        if count == 0 || count > counts[i] || count < last_seen[i] {
            g.fail(format!(
                "group {group}: read count {count} outside [{}, {}]",
                last_seen[i].max(1),
                counts[i]
            ));
        }
        last_seen[i] = last_seen[i].max(count);
    }

    // Every view pulled decoded, covers every group, and holds at least
    // the preload.
    let preload = inputs.preload.len() as u64;
    for view in pass.load.views.iter().chain(&pass.probe.views) {
        match view {
            Ok((groups, rows)) if *groups == p.groups && *rows >= preload => {}
            Ok((groups, rows)) => g.fail(format!(
                "view covers {groups} groups and {rows} rows, expected {} and at least {preload}",
                p.groups
            )),
            Err(e) => g.fail(e.clone()),
        }
    }
}

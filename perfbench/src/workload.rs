//! The three workloads and their seeded inputs.
//!
//! Everything a run sends is generated here, before any timing starts,
//! from `(workload, seed)` alone: the preload (every group once), a pool
//! of ingest batches rendered to request bodies, the open-loop report
//! keys, and the sampled groups the correctness gate checks.

use std::fmt::Write as _;

use sketches_streamdb::{Aggregate, QuerySpec, Row, Value};
use sketches_workloads::{ServingEvent, ServingWorkload};

/// Shards behind every engine the benchmark builds.
pub const SHARDS: usize = 4;
/// Zipf exponent of the group key for every workload.
pub const SKEW: f64 = 1.1;
/// Largest ingest body the preload sends in one request.
const PRELOAD_CHUNK: usize = 8_192;

/// How a workload offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// `clients` threads, each sending its next ingest when the last one
    /// answered.
    Closed {
        /// Client threads.
        clients: usize,
    },
    /// A writer thread with `slots_per_s` fixed slots a second (of which
    /// `views_per_s` pull `/v1/view`, the rest ingest) and a reader thread
    /// sending `reports_per_s` reports a second, both on a schedule.
    Open {
        /// Writer slots per second.
        slots_per_s: u32,
        /// Of those, view pulls per second.
        views_per_s: u32,
        /// Reader requests per second.
        reports_per_s: u32,
    },
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Name on the command line.
    pub name: &'static str,
    /// Distinct groups; the preload creates every one of them.
    pub groups: u64,
    /// Rows per ingest request.
    pub batch_rows: usize,
    /// Whether the query carries a FREQUENCY (SF-sketch) aggregate.
    pub frequency: bool,
    /// Whether the server runs on `DurableEngine<ConcurrentEngine>`.
    pub durable: bool,
    /// Offered load.
    pub mode: Mode,
    /// Distinct ingest batches generated; the stream cycles through them.
    pub pool_batches: usize,
    /// WAL rows between checkpoints (durable workloads).
    pub checkpoint_rows: u64,
}

/// The workloads, in the order `--workload` documents them.
#[must_use]
pub fn all() -> Vec<Params> {
    vec![
        Params {
            name: "ingest-durable-fewgroups",
            groups: 1_000,
            batch_rows: 8_192,
            frequency: true,
            durable: true,
            mode: Mode::Closed { clients: 2 },
            pool_batches: 96,
            checkpoint_rows: 655_360,
        },
        Params {
            name: "ingest-manygroups",
            groups: 20_000,
            batch_rows: 512,
            frequency: false,
            durable: false,
            mode: Mode::Closed { clients: 1 },
            pool_batches: 1_024,
            checkpoint_rows: 131_072,
        },
        Params {
            name: "serve-mixed",
            groups: 10_000,
            batch_rows: 4_096,
            frequency: false,
            durable: false,
            mode: Mode::Open {
                slots_per_s: 7,
                views_per_s: 2,
                reports_per_s: 100,
            },
            pool_batches: 256,
            checkpoint_rows: 131_072,
        },
    ]
}

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Params> {
    all().into_iter().find(|p| p.name == name)
}

impl Params {
    /// `GROUP BY group` with COUNT, COUNT DISTINCT(user), QUANTILES(value)
    /// and, for the ad-reach shape, FREQUENCY(user).
    #[must_use]
    pub fn spec(&self) -> QuerySpec {
        let mut aggregates = vec![
            Aggregate::Count,
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
        ];
        if self.frequency {
            aggregates.push(Aggregate::Frequency { field: 1 });
        }
        QuerySpec::new(vec![0], aggregates).expect("the benchmark spec has aggregates")
    }
}

/// Everything one run sends, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// One event per group, `1..=groups`.
    pub preload: Vec<ServingEvent>,
    /// The preload as ingest bodies of at most `PRELOAD_CHUNK` rows.
    pub preload_bodies: Vec<String>,
    /// The ingest batch pool.
    pub batches: Vec<Vec<ServingEvent>>,
    /// `batches` rendered as `POST /v1/ingest` bodies.
    pub bodies: Vec<String>,
    /// Zipf-hot report keys for the open-loop reader.
    pub query_keys: Vec<u64>,
    /// Groups the correctness gate checks: the hottest ones plus a seeded
    /// spread of cold ones.
    pub sample_groups: Vec<u64>,
}

impl Inputs {
    /// Generates the inputs for `params` from `seed`.
    ///
    /// # Panics
    /// Only if the fixed workload parameters are invalid for the
    /// generator.
    #[must_use]
    pub fn generate(params: &Params, seed: u64) -> Self {
        let mut stream =
            ServingWorkload::new(params.groups, SKEW, seed).expect("valid workload parameters");
        let batches = stream.batches(params.pool_batches, params.batch_rows);
        let query_keys = stream.query_keys(4_096);
        let mut side = ServingWorkload::new(params.groups, SKEW, seed ^ 0x005E_ED0F_9E1A)
            .expect("valid workload parameters");
        let preload: Vec<ServingEvent> = (1..=params.groups)
            .map(|group| ServingEvent {
                group,
                ..side.next_event()
            })
            .collect();
        let preload_bodies = preload.chunks(PRELOAD_CHUNK).map(body).collect();
        let bodies = batches.iter().map(|b| body(b)).collect();
        Self {
            preload,
            preload_bodies,
            batches,
            bodies,
            query_keys,
            sample_groups: sample_groups(params.groups, seed),
        }
    }
}

/// The engine row for one event: `[group, user, value]`, all `U64`, the
/// same values the server parses out of the body.
#[must_use]
pub fn row(e: &ServingEvent) -> Row {
    vec![
        Value::U64(e.group),
        Value::U64(e.user),
        Value::U64(e.value as u64),
    ]
}

/// Engine rows for a batch of events.
#[must_use]
pub fn rows(events: &[ServingEvent]) -> Vec<Row> {
    events.iter().map(row).collect()
}

/// The `POST /v1/ingest` body for a batch: `{"rows":[[g,u,v],...]}`.
#[must_use]
pub fn body(events: &[ServingEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 32 + 16);
    out.push_str("{\"rows\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{},{}]", e.group, e.user, e.value as u64);
    }
    out.push_str("]}");
    out
}

/// The 8 hottest groups plus 8 cold ones drawn uniformly (seeded) from
/// the rest, ascending and distinct.
fn sample_groups(groups: u64, seed: u64) -> Vec<u64> {
    let hot = groups.min(8);
    let mut out: Vec<u64> = (1..=hot).collect();
    let mut state = seed ^ 0xC01D_C01D;
    while out.len() < 16 && (out.len() as u64) < groups {
        state = splitmix64(state);
        let g = hot + 1 + state % (groups - hot).max(1);
        if g <= groups && !out.contains(&g) {
            out.push(g);
        }
    }
    out.sort_unstable();
    out
}

/// One step of the splitmix64 generator.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> Params {
        Params {
            groups: 300,
            batch_rows: 64,
            pool_batches: 6,
            ..by_name(name).unwrap()
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_bodies() {
        for p in all() {
            let p = small(p.name);
            let a = Inputs::generate(&p, 7);
            let b = Inputs::generate(&p, 7);
            assert_eq!(a.bodies, b.bodies, "{}", p.name);
            assert_eq!(a.preload_bodies, b.preload_bodies, "{}", p.name);
            assert_eq!(a.query_keys, b.query_keys);
            assert_eq!(a.sample_groups, b.sample_groups);
        }
    }

    #[test]
    fn different_seed_gives_different_bodies() {
        let p = small("serve-mixed");
        let a = Inputs::generate(&p, 7);
        let b = Inputs::generate(&p, 8);
        assert_ne!(a.bodies, b.bodies);
        assert_ne!(a.preload_bodies, b.preload_bodies);
    }

    #[test]
    fn preload_covers_every_group_once_and_samples_are_valid() {
        let p = small("ingest-manygroups");
        let inputs = Inputs::generate(&p, 3);
        let groups: Vec<u64> = inputs.preload.iter().map(|e| e.group).collect();
        assert_eq!(groups, (1..=p.groups).collect::<Vec<_>>());
        assert_eq!(inputs.sample_groups.len(), 16);
        assert!(inputs
            .sample_groups
            .iter()
            .all(|g| (1..=p.groups).contains(g)));
        assert!(inputs.sample_groups.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn body_parses_back_to_the_same_rows() {
        let p = small("serve-mixed");
        let inputs = Inputs::generate(&p, 11);
        let doc = sketches_serve::Json::parse(&inputs.bodies[0]).unwrap();
        let parsed: Vec<Row> = doc
            .get("rows")
            .and_then(sketches_serve::Json::as_array)
            .unwrap()
            .iter()
            .map(|r| {
                r.as_array()
                    .unwrap()
                    .iter()
                    .map(|c| c.to_value().unwrap())
                    .collect()
            })
            .collect();
        assert_eq!(parsed, rows(&inputs.batches[0]));
    }
}

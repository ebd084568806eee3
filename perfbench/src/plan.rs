//! Seed → inputs. Every input the program under test sees is a pure
//! function of the workload seed: the program order, the `Input` seed,
//! the serve probe's program draw and its request sequence.

use cbsp_program::{Input, Scale};

/// The base interval target of every query (the CLI default).
pub const BASE_INTERVAL: u64 = 100_000;

/// The 21-program suite split into four strata by measured cold-query
/// cost (cheapest first). The query order interleaves them, so every
/// prefix mixes branchy L1-resident, streaming/stencil and DRAM-bound
/// codes.
pub const COST_STRATA: [&[&str]; 4] = [
    &["eon", "twolf", "sixtrack", "vortex", "gzip"],
    &["perlbmk", "crafty", "swim", "bzip2", "mesa"],
    &["mcf", "wupwise", "lucas", "vpr", "gcc"],
    &["applu", "fma3d", "apsi", "art", "equake", "ammp"],
];

/// Programs the serve probe warms and asks about.
pub const SERVE_PROGRAMS: usize = 2;

/// One serve-probe request in this many asks a fresh interval.
pub const FRESH_EVERY: u64 = 100;

/// SplitMix64: a tiny, well-mixed generator, so the plan depends on
/// nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A serve-probe request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    PipelineRun,
    EstimateCpi,
    SimpointsGet,
}

impl Method {
    pub fn wire(self) -> &'static str {
        match self {
            Method::PipelineRun => "pipeline.run",
            Method::EstimateCpi => "estimate.cpi",
            Method::SimpointsGet => "simpoints.get",
        }
    }
}

/// One request of the serve-probe sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub method: Method,
    /// Index into [`Plan::serve_programs`].
    pub program: usize,
    pub interval: u64,
    /// A never-before-asked interval: the daemon re-runs vli, simpoint
    /// and map and cuts new slices.
    pub fresh: bool,
}

/// Everything a run's inputs are made from.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub seed: u64,
    /// The whole suite in seeded order (cold-estimate, warm-requery and
    /// the traced layer sweep walk it), interleaved across the cost
    /// strata so every prefix mixes cheap and costly programs alike.
    pub programs: Vec<&'static str>,
    /// The input every estimate query runs on.
    pub input: Input,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let mut strata: Vec<Vec<&'static str>> = COST_STRATA.iter().map(|s| s.to_vec()).collect();
        for stratum in &mut strata {
            rng.shuffle(stratum);
        }
        rng.shuffle(&mut strata);
        let rounds = strata.iter().map(Vec::len).max().unwrap_or(0);
        let programs: Vec<&'static str> = (0..rounds)
            .flat_map(|r| strata.iter().filter_map(move |s| s.get(r).copied()))
            .collect();
        let input = Input::new("bench", rng.next_u64(), Scale::Reference);
        Plan {
            seed,
            programs,
            input,
        }
    }

    /// The serve probe's programs: the first of the plan, which come
    /// from different cost strata.
    pub fn serve_programs(&self) -> &[&'static str] {
        &self.programs[..SERVE_PROGRAMS]
    }

    /// Request `i` of the serve-probe sequence (a pure function of the
    /// seed and `i`). Every [`FRESH_EVERY`]th request asks a fresh
    /// interval, alternating `pipeline.run` and `estimate.cpi`; the rest
    /// are warm: 68% `pipeline.run`, 30% `estimate.cpi`, 2%
    /// `simpoints.get`. A fixed fresh count keeps the daemon's result
    /// cache from evicting warm runs within a window. Requests go to the
    /// serve programs in turn.
    pub fn request(&self, i: u64) -> Request {
        let mut rng = Rng::new(self.seed ^ 0x5E2F_E000_0000_0000 ^ i.wrapping_mul(0x2545_F491));
        // Programs take turns, so every run spreads its requests evenly
        // over the drawn programs.
        let program = (i % SERVE_PROGRAMS as u64) as usize;
        let fresh = i % FRESH_EVERY == FRESH_EVERY / 2;
        let method = if fresh {
            if (i / FRESH_EVERY) % 2 == 0 {
                Method::PipelineRun
            } else {
                Method::EstimateCpi
            }
        } else {
            match rng.below(100) {
                0..=67 => Method::PipelineRun,
                68..=97 => Method::EstimateCpi,
                _ => Method::SimpointsGet,
            }
        };
        // Fresh intervals are unique per request index, so none is ever
        // a result-cache or store hit.
        let interval = if fresh {
            BASE_INTERVAL + 1 + i
        } else {
            BASE_INTERVAL
        };
        Request {
            method,
            program,
            interval,
            fresh,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbsp_program::workloads;

    #[test]
    fn plan_is_a_pure_function_of_the_seed() {
        assert_eq!(Plan::new(7), Plan::new(7));
        let a = Plan::new(7);
        let b = Plan::new(7);
        for i in 0..500 {
            assert_eq!(a.request(i), b.request(i));
        }
        assert_ne!(Plan::new(7), Plan::new(8));
        assert_ne!(Plan::new(7).input.seed, Plan::new(8).input.seed);
    }

    #[test]
    fn plan_covers_the_suite_and_every_stratum() {
        let plan = Plan::new(3);
        let mut names = plan.programs.clone();
        names.sort_unstable();
        let mut suite: Vec<&str> = workloads::suite().iter().map(|w| w.name).collect();
        suite.sort_unstable();
        assert_eq!(names, suite);
        // Every run of four consecutive programs (bar the tail) takes
        // one from each stratum.
        for chunk in plan.programs.chunks(4).filter(|c| c.len() == 4) {
            for stratum in COST_STRATA {
                assert_eq!(chunk.iter().filter(|p| stratum.contains(p)).count(), 1);
            }
        }
        let strata: Vec<&str> = COST_STRATA.iter().flat_map(|s| s.iter().copied()).collect();
        let mut sorted = strata.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, suite, "strata partition the suite");
        assert_eq!(plan.input.scale, Scale::Reference);
    }

    #[test]
    fn fresh_intervals_never_repeat_and_warm_ones_do() {
        let plan = Plan::new(11);
        let reqs: Vec<Request> = (0..2000).map(|i| plan.request(i)).collect();
        let fresh: Vec<u64> = reqs
            .iter()
            .filter(|r| r.fresh)
            .map(|r| r.interval)
            .collect();
        let mut unique = fresh.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), fresh.len());
        assert!(reqs
            .iter()
            .filter(|r| !r.fresh)
            .all(|r| r.interval == BASE_INTERVAL));
        // The mix is roughly as specified.
        let share = |m: Method, f: bool| {
            reqs.iter()
                .filter(|r| r.method == m && r.fresh == f)
                .count() as f64
                / 2000.0
        };
        assert!((share(Method::PipelineRun, false) - 0.68).abs() < 0.05);
        assert!((share(Method::SimpointsGet, false) - 0.02).abs() < 0.015);
        assert_eq!(fresh.len() as u64, 2000 / FRESH_EVERY);
        assert!(reqs
            .iter()
            .any(|r| r.fresh && r.method == Method::EstimateCpi));
        assert!(reqs
            .iter()
            .any(|r| r.fresh && r.method == Method::PipelineRun));
    }
}

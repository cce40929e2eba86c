//! Open-loop load generation through the threaded runtime: Poisson phases at a fixed
//! rate, the capacity search over a geometric rate ladder, and the saturation phase.
//!
//! One generator thread (the caller's) submits every request. A request's latency is
//! timed from when it was *due*: the runtime's measured latency (completion minus
//! submit) plus how late the generator submitted it. Both sides read one shared
//! [`WallClock`].

use std::sync::Arc;
use std::time::Duration;

use imars::serve::{
    Clock, RuntimeConfig, ServeEngine, ServeError, ServeReport, ServeRuntime, WallClock,
};

use crate::workload::{Fixture, Reference};

/// Worker threads of the runtime (one per core of the 2-core reference host).
pub const WORKERS: usize = 2;
/// Bound of the runtime's request queue.
pub const QUEUE_CAPACITY: usize = 1024;
/// The latency limit `capacity_qps` is measured against, on p99 from due time.
pub const P99_LIMIT_MS: f64 = 25.0;
/// Ratio between neighbouring rungs of a workload's rate ladder.
pub const LADDER_RATIO: f64 = 1.06;
/// Rungs on the ladder: from the workload's ladder base up to 10.2 times it.
pub const LADDER_RUNGS: usize = 41;
/// Probes the capacity search runs: a fixed count, so every run is as long.
pub const PROBES: usize = 9;
/// Width of the windows the saturation rate is taken over.
const RATE_WINDOW_US: f64 = 100_000.0;
/// Head start between starting a phase's runtime and its first due time.
const LEAD_US: f64 = 2_000.0;

/// Offered rate of rung `index` of a ladder starting at `base_qps`.
pub fn ladder_qps(base_qps: f64, index: usize) -> f64 {
    base_qps * LADDER_RATIO.powi(index as i32)
}

/// Requests in flight beyond which a phase at `rate_qps` has a backlog: more than one
/// latency limit's worth of arrivals, plus a full batch per worker in service.
pub fn backlog_limit(rate_qps: f64) -> u64 {
    (rate_qps * P99_LIMIT_MS / 1e3) as u64 + 64 * WORKERS as u64
}

/// Sorted samples with exact nearest-rank percentiles.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sort `values` (NaN-free by construction) into a sample.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    fn rank(&self, q: f64) -> usize {
        ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len())
    }

    /// The nearest-rank `q` quantile (0 for an empty sample).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(q) - 1]
    }

    /// Add `other`'s samples.
    pub fn merge(&mut self, other: &Samples) {
        self.sorted.extend_from_slice(&other.sorted);
        self.sorted.sort_by(f64::total_cmp);
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).quantile(0.5)
}

/// Result of one Poisson phase at a fixed offered rate.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    /// Offered rate, queries per second.
    pub offered_qps: f64,
    /// Requests the generator tried to submit.
    pub attempted: u64,
    /// Requests the full queue refused.
    pub refused: u64,
    /// Answers that differ from the reference.
    pub wrong: u64,
    /// Accepted requests that never got an answer.
    pub missing: u64,
    /// Latency from due time of every answered request, milliseconds.
    pub latency: Samples,
    /// How late the generator submitted each request, milliseconds.
    pub late_ms: Samples,
    /// Median requests in flight over the second and the last quarter of the phase.
    pub backlog: (f64, f64),
    /// The generator gave up early on an overloaded runtime.
    pub aborted: bool,
    /// Length of the arrival schedule, seconds.
    pub seconds: f64,
    /// The runtime's own report for the phase.
    pub report: ServeReport,
}

impl OpenLoop {
    /// Refused, wrong and missing requests.
    pub fn failures(&self) -> u64 {
        self.refused + self.wrong + self.missing
    }

    /// Whether the requests in flight grew over the phase: the last quarter's median
    /// is above both twice the second quarter's and [`backlog_limit`].
    pub fn backlog_grew(&self) -> bool {
        let (early, late) = self.backlog;
        late > (2.0 * early).max(backlog_limit(self.offered_qps) as f64)
    }

    /// Whether the phase met the latency limit: nothing refused or failed, p99 from due
    /// time within [`P99_LIMIT_MS`], and no growing backlog.
    pub fn meets_limit(&self) -> bool {
        !self.aborted
            && self.failures() == 0
            && self.latency.quantile(0.99) <= P99_LIMIT_MS
            && !self.backlog_grew()
    }
}

/// Result of the saturation phase.
#[derive(Debug, Clone)]
pub struct Saturation {
    /// Completions per second in each 100 ms window after the first fifth of the
    /// phase, once the queue is full.
    pub window_qps: Vec<f64>,
    /// Completions over the windows, and the seconds they span.
    pub completed: (u64, f64),
    /// Requests submitted.
    pub attempted: u64,
    /// Answers that differ from the reference.
    pub wrong: u64,
    /// Submitted requests that never got an answer.
    pub missing: u64,
}

/// One probed rung of the capacity search.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Ladder index.
    pub rung: usize,
    /// Whether the phase met the latency limit.
    pub passed: bool,
    /// The phase run at that rung.
    pub phase: OpenLoop,
}

impl OpenLoop {
    /// Answers per second of the phase: the throughput the runtime sustained.
    pub fn answered_qps(&self) -> f64 {
        self.latency.len() as f64 / self.seconds
    }
}

/// The load generator: the shared clock, the requests and their answers.
pub struct Generator<'a> {
    fixture: &'a Fixture,
    reference: &'a Reference,
    clock: Arc<WallClock>,
    next_id: u64,
    rng: u64,
}

impl<'a> Generator<'a> {
    /// A generator drawing requests from `fixture` and arrival gaps from `seed`.
    pub fn new(
        fixture: &'a Fixture,
        reference: &'a Reference,
        clock: Arc<WallClock>,
        seed: u64,
    ) -> Self {
        Self {
            fixture,
            reference,
            clock,
            next_id: 0,
            rng: seed ^ 0xA076_1D64_78BD_642F,
        }
    }

    /// A uniform draw from (0, 1] (splitmix64).
    fn uniform(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    fn start(&self, engine: &ServeEngine) -> Result<ServeRuntime, ServeError> {
        ServeRuntime::start(
            engine,
            RuntimeConfig::new(WORKERS, QUEUE_CAPACITY)?,
            self.clock.clone(),
        )
    }

    fn next_request(&mut self, arrival_us: f64) -> imars::serve::ServeRequest {
        let id = self.next_id;
        self.next_id += 1;
        let mut request = self.fixture.request(id).clone();
        request.id = id;
        request.arrival_us = arrival_us;
        request
    }

    /// Offer Poisson arrivals at `rate_qps` for `seconds` with non-blocking submits.
    /// With `abort_on_overload`, the phase stops at the first refusal or once the
    /// backlog reaches four times [`backlog_limit`].
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (a dead worker, an engine error).
    pub fn open_loop(
        &mut self,
        engine: &ServeEngine,
        rate_qps: f64,
        seconds: f64,
        abort_on_overload: bool,
    ) -> Result<OpenLoop, ServeError> {
        let runtime = self.start(engine)?;
        let first_id = self.next_id;
        let mut late_us: Vec<f64> = Vec::with_capacity((rate_qps * seconds * 1.1) as usize + 16);
        let (mut accepted, mut refused) = (0u64, 0u64);
        let mut aborted = false;
        let mut in_flight: Vec<(f64, u64)> = Vec::new();
        let overload = 4 * backlog_limit(rate_qps);
        let start_us = self.clock.now_us() + LEAD_US;
        let mut offset_us = 0.0;
        while offset_us < seconds * 1e6 {
            let due_us = start_us + offset_us;
            wait_until(&self.clock, due_us);
            let request = self.next_request(offset_us);
            let now_us = self.clock.now_us();
            late_us.push(now_us - due_us);
            match runtime.try_submit(request) {
                Ok(()) => accepted += 1,
                Err(ServeError::QueueFull { .. }) => {
                    refused += 1;
                    if abort_on_overload {
                        aborted = true;
                        break;
                    }
                }
                // The runtime stopped under us: shutdown surfaces the root cause.
                Err(_) => break,
            }
            if late_us.len().is_multiple_of(32) {
                let outstanding = accepted.saturating_sub(runtime.completed());
                in_flight.push((offset_us, outstanding));
                if abort_on_overload && outstanding > overload {
                    aborted = true;
                    break;
                }
            }
            offset_us += -self.uniform().ln() * 1e6 / rate_qps;
        }
        let outcome = runtime.shutdown()?;
        let quarter = |q: f64| {
            let span = seconds * 1e6;
            let in_quarter: Vec<f64> = in_flight
                .iter()
                .filter(|&&(at, _)| at >= (q - 1.0) * span / 4.0 && at < q * span / 4.0)
                .map(|&(_, outstanding)| outstanding as f64)
                .collect();
            median(&in_quarter)
        };
        let latency_ms: Vec<f64> = outcome
            .responses
            .iter()
            .map(|response| {
                (response.latency_us + late_us[(response.id - first_id) as usize]) / 1e3
            })
            .collect();
        Ok(OpenLoop {
            offered_qps: rate_qps,
            attempted: late_us.len() as u64,
            refused,
            wrong: self.reference.wrong(&outcome.responses),
            missing: accepted.saturating_sub(outcome.responses.len() as u64),
            latency: Samples::new(latency_ms),
            late_ms: Samples::new(late_us.iter().map(|us| us / 1e3).collect()),
            backlog: (quarter(2.0), quarter(4.0)),
            aborted,
            seconds,
            report: outcome.report,
        })
    }

    /// Submit back to back with blocking submits for `seconds`, counting completions
    /// in 100 ms windows after the first fifth of the phase, once the queue is full.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn saturate(
        &mut self,
        engine: &ServeEngine,
        seconds: f64,
    ) -> Result<Saturation, ServeError> {
        let runtime = self.start(engine)?;
        let start_us = self.clock.now_us();
        let end_us = start_us + seconds * 1e6;
        let mut next_mark_us = start_us + 0.2 * seconds * 1e6;
        let mut marks: Vec<(f64, u64)> = Vec::new();
        let mut attempted = 0u64;
        loop {
            let now_us = self.clock.now_us();
            if now_us >= end_us {
                break;
            }
            if now_us >= next_mark_us {
                marks.push((now_us, runtime.completed()));
                next_mark_us = now_us + RATE_WINDOW_US;
            }
            let request = self.next_request(now_us - start_us);
            attempted += 1;
            if runtime.submit(request).is_err() {
                break;
            }
        }
        let outcome = runtime.shutdown()?;
        let completed = match (marks.first(), marks.last()) {
            (Some(first), Some(last)) => (last.1 - first.1, (last.0 - first.0) / 1e6),
            _ => (0, 0.0),
        };
        Ok(Saturation {
            completed,
            window_qps: marks
                .windows(2)
                .map(|pair| (pair[1].1 - pair[0].1) as f64 / ((pair[1].0 - pair[0].0) / 1e6))
                .collect(),
            attempted,
            wrong: self.reference.wrong(&outcome.responses),
            missing: attempted.saturating_sub(outcome.responses.len() as u64),
        })
    }

    /// Run the capacity search's next probe for `seconds`.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn probe(
        &mut self,
        engine: &ServeEngine,
        capacity: &mut Capacity,
        seconds: f64,
    ) -> Result<(), ServeError> {
        let rung = capacity.search.next_rung();
        let rate_qps = ladder_qps(self.fixture.workload.ladder_base_qps(), rung);
        let phase = self.open_loop(engine, rate_qps, seconds, true)?;
        capacity.record(rung, phase);
        Ok(())
    }
}

/// The capacity search: a bisection over the workload's rate ladder for the highest
/// rung that meets the latency limit. One failed probe may be a host stall, so a first
/// failure is probed again at once, and a rung fails only when more of its probes
/// failed than passed. Once the search has narrowed to two neighbouring rungs, the
/// probes left over re-probe whichever of the two has had fewer probes (the failing
/// one on a tie), so that both verdicts rest on more than one probe.
#[derive(Debug, Clone, Default)]
pub struct Search {
    /// Each probe's rung and whether it passed, in the order run.
    outcomes: Vec<(usize, bool)>,
}

/// What a rung's probes so far say about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Unprobed,
    Passed,
    FailedOnce,
    Failed,
}

impl Search {
    fn verdict(&self, rung: usize) -> Verdict {
        let (mut passed, mut failed) = (0, 0);
        for &(_, pass) in self.outcomes.iter().filter(|&&(r, _)| r == rung) {
            if pass {
                passed += 1;
            } else {
                failed += 1;
            }
        }
        match (passed, failed) {
            (0, 0) => Verdict::Unprobed,
            (0, 1) => Verdict::FailedOnce,
            _ if passed >= failed => Verdict::Passed,
            _ => Verdict::Failed,
        }
    }

    fn count(&self, rung: usize) -> usize {
        self.outcomes.iter().filter(|&&(r, _)| r == rung).count()
    }

    /// The highest passing rung (`None` when none passed yet) and the lowest failed
    /// rung above it ([`LADDER_RUNGS`] when none failed).
    fn bracket(&self) -> (Option<usize>, usize) {
        let pass = (0..LADDER_RUNGS)
            .rev()
            .find(|&rung| self.verdict(rung) == Verdict::Passed);
        let fail = (pass.map_or(0, |rung| rung + 1)..LADDER_RUNGS)
            .find(|&rung| self.verdict(rung) == Verdict::Failed)
            .unwrap_or(LADDER_RUNGS);
        (pass, fail)
    }

    /// The rung to probe next.
    pub fn next_rung(&self) -> usize {
        if let Some(&(last, _)) = self.outcomes.last() {
            if self.verdict(last) == Verdict::FailedOnce {
                return last;
            }
        }
        let (pass, fail) = self.bracket();
        let low = pass.map_or(-1, |rung| rung as isize);
        if fail as isize - low > 1 {
            return ((low + fail as isize) / 2) as usize;
        }
        match pass {
            Some(pass) if fail == LADDER_RUNGS || self.count(pass) < self.count(fail) => pass,
            _ => fail,
        }
    }

    /// Record a probe of `rung`.
    pub fn record(&mut self, rung: usize, passed: bool) {
        self.outcomes.push((rung, passed));
    }

    /// The highest rung that met the limit, `None` when none did.
    pub fn capacity_rung(&self) -> Option<usize> {
        self.bracket().0
    }
}

/// The capacity search with the phases its probes ran.
#[derive(Debug, Clone, Default)]
pub struct Capacity {
    search: Search,
    /// Every probe, in the order run.
    pub probes: Vec<Probe>,
}

impl Capacity {
    /// Record a probe's outcome.
    pub fn record(&mut self, rung: usize, phase: OpenLoop) {
        let passed = phase.meets_limit();
        self.search.record(rung, passed);
        self.probes.push(Probe {
            rung,
            passed,
            phase,
        });
    }

    /// The throughput answered at the highest rung that met the limit: the median over
    /// its passing probes (0 when no rung passed).
    pub fn qps(&self) -> f64 {
        let Some(rung) = self.search.capacity_rung() else {
            return 0.0;
        };
        let answered: Vec<f64> = self
            .probes
            .iter()
            .filter(|probe| probe.rung == rung && probe.passed)
            .map(|probe| probe.phase.answered_qps())
            .collect();
        median(&answered)
    }
}

fn wait_until(clock: &WallClock, due_us: f64) {
    loop {
        let remaining_us = due_us - clock.now_us();
        if remaining_us <= 0.0 {
            return;
        }
        std::thread::sleep(Duration::from_secs_f64(remaining_us / 1e6));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `probes` probes of a search whose probe `i` passes when `passes(i, rung)`.
    fn search(probes: usize, passes: impl Fn(usize, usize) -> bool) -> (Search, Vec<usize>) {
        let mut search = Search::default();
        let mut rungs = Vec::new();
        for i in 0..probes {
            let rung = search.next_rung();
            search.record(rung, passes(i, rung));
            rungs.push(rung);
        }
        (search, rungs)
    }

    #[test]
    fn a_steady_knee_is_found_by_bisection() {
        let (found, rungs) = search(PROBES, |_, rung| rung <= 27);
        assert_eq!(found.capacity_rung(), Some(27));
        assert_eq!(&rungs[..4], &[20, 30, 30, 25]);
    }

    #[test]
    fn one_failed_probe_does_not_fail_a_rung() {
        // The first probe of rung 20 is hit by a stall; its re-probe passes.
        let (found, rungs) = search(PROBES, |i, rung| i != 0 && rung <= 33);
        assert_eq!(&rungs[..3], &[20, 20, 30]);
        assert_eq!(found.capacity_rung(), Some(33));
    }

    #[test]
    fn a_late_pass_does_not_outvote_two_failures() {
        // Rung 30 fails twice, then passes once among the left-over probes.
        let (found, _) = search(PROBES + 3, |i, rung| rung <= 29 || (rung == 30 && i > 8));
        assert_eq!(found.capacity_rung(), Some(29));
    }

    #[test]
    fn nothing_passing_gives_no_capacity_and_the_top_rung_is_reachable() {
        assert_eq!(search(PROBES, |_, _| false).0.capacity_rung(), None);
        let (found, _) = search(PROBES, |_, _| true);
        assert_eq!(found.capacity_rung(), Some(LADDER_RUNGS - 1));
    }
}

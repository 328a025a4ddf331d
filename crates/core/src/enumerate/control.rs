//! Run-lifecycle bookkeeping shared by every engine: the run's counter
//! block (matches and recursions included), the output cap,
//! cancellation polling, and the cross-worker coordination of parallel
//! runs. The framework's candidate loop (under
//! either next-vertex strategy) and the historical Ullmann/VF2 baselines
//! all drive one [`RunControl`] instead of each keeping its own copy of
//! this state machine. The cap arithmetic exists once, in
//! [`RunControl::record_matches`]: a materializing loop records one match
//! at a time, a count-only run reserves a counted suffix's whole product
//! in one step, and both stop at exactly the same match.

use crate::enumerate::{EnumStats, MatchConfig, Outcome, RunTotals};
use sm_runtime::trace::{Counter, CounterBlock};
use sm_runtime::{CancelReason, CancelToken};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `a += k`, saturating at `u64::MAX`; returns the previous value. The
/// cross-worker totals below take whole products of candidate counts
/// from count-only runs, which a wrapping add could carry past zero.
fn saturating_fetch_add(a: &AtomicU64, k: u64) -> u64 {
    a.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
        Some(b.saturating_add(k))
    })
    .unwrap_or_else(|b| b)
}

/// Cross-worker misprediction guard for the planner's jump-redo path: a
/// backtrack budget derived from the cost model's prediction for the
/// chosen plan. Engines flush their live backtrack counts here at every
/// cancellation-poll boundary (so the hot path pays nothing between
/// polls); the observation that pushes the shared total past the budget
/// cancels the run token with [`CancelReason::Stopped`] and latches
/// [`BailoutMonitor::triggered`] — which is how the planner distinguishes
/// "the model mispredicted, replan with the next-best combo" from an
/// ordinary cap hit.
#[derive(Debug)]
pub struct BailoutMonitor {
    budget: u64,
    backtracks: AtomicU64,
    triggered: AtomicBool,
}

impl BailoutMonitor {
    /// A monitor that bails out once the run's total backtracks exceed
    /// `budget`.
    pub fn new(budget: u64) -> Arc<Self> {
        Arc::new(BailoutMonitor {
            budget,
            backtracks: AtomicU64::new(0),
            triggered: AtomicBool::new(false),
        })
    }

    /// Fold `delta` freshly observed backtracks into the shared total and
    /// cancel `cancel` if the budget is now exceeded. Called by
    /// [`RunControl::tick`] at poll boundaries.
    #[inline]
    pub fn observe(&self, delta: u64, cancel: &CancelToken) {
        if delta == 0 {
            return;
        }
        let total = saturating_fetch_add(&self.backtracks, delta).saturating_add(delta);
        if total > self.budget && !self.triggered.swap(true, Ordering::Relaxed) {
            cancel.cancel(CancelReason::Stopped);
        }
    }

    /// Whether the budget was exceeded and the run cancelled.
    pub fn triggered(&self) -> bool {
        self.triggered.load(Ordering::Relaxed)
    }

    /// Backtracks observed so far (across all workers of the run).
    pub fn observed(&self) -> u64 {
        self.backtracks.load(Ordering::Relaxed)
    }

    /// The backtrack budget this monitor enforces.
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

/// Shared state coordinating the worker engines of a parallel run: a
/// global match counter (so the 10^5 cap applies to the *sum*), the cap
/// itself, and one [`CancelToken`] every worker polls. Any worker hitting
/// the cap (or a deadline expiring on any worker) cancels the token, and
/// the reason distinguishes cap from timeout when outcomes are merged.
///
/// Because the control carries the *run-scoped* budget (cap + token), it
/// is also the hook a multi-query service uses to execute one immutable
/// cached [`crate::QueryPlan`] under many different per-request budgets:
/// build a control with [`SharedControl::with_token`] and pass it to
/// every engine invocation (morsel) of that run.
pub struct SharedControl {
    /// Cancellation shared by every worker of the run.
    pub cancel: CancelToken,
    /// Total matches across workers.
    pub matches: AtomicU64,
    /// Match cap applied to the cross-worker total (`u64::MAX` = none).
    /// Overrides the plan config's `max_matches` for this run.
    pub cap: u64,
    /// Jump-redo misprediction guard shared by every worker (see
    /// [`BailoutMonitor`]); `None` = no bailout for this run.
    pub bailout: Option<Arc<BailoutMonitor>>,
}

impl Default for SharedControl {
    fn default() -> Self {
        SharedControl {
            cancel: CancelToken::default(),
            matches: AtomicU64::new(0),
            cap: u64::MAX,
            bailout: None,
        }
    }
}

impl SharedControl {
    /// Shared state for a run of `config` that started at `started`:
    /// carries the config's deadline (and caller token, when attached) so
    /// every worker observes the same cancellation, the config's cap, and
    /// the config's bailout monitor when one is attached.
    pub fn for_run(config: &MatchConfig, started: Instant) -> Self {
        SharedControl {
            cancel: config.run_token(started),
            matches: AtomicU64::new(0),
            cap: config.effective_cap().unwrap_or(u64::MAX),
            bailout: config.bailout.clone(),
        }
    }

    /// Shared state with an explicit run token and cap, independent of
    /// any plan's config — the per-request budget of a service executing
    /// a cached plan.
    pub fn with_token(cancel: CancelToken, cap: Option<u64>) -> Self {
        SharedControl {
            cancel,
            matches: AtomicU64::new(0),
            cap: cap.unwrap_or(u64::MAX),
            bailout: None,
        }
    }
}

/// Counters and stop conditions of one engine run. Engines call
/// [`RunControl::tick`] on every search-tree node and
/// [`RunControl::record_match`] on every emitted embedding, or
/// [`RunControl::record_matches`] once for a counted suffix's product;
/// everything else (cap, deadline, caller cancellation, parallel
/// coordination) is handled here.
pub struct RunControl<'a> {
    /// This engine run's registry counters: the control ticks
    /// `recursions` and `matches` here, the engines add intersections,
    /// backtracks, peak depth and cache hits with plain `u64` adds;
    /// [`RunControl::into_stats`] hands the block to [`EnumStats`].
    pub counters: CounterBlock,
    cap: u64,
    /// Cancellation is polled every `poll_mask + 1` recursions.
    poll_mask: u64,
    cancel: CancelToken,
    stopped: Option<Outcome>,
    shared: Option<&'a SharedControl>,
    /// Jump-redo guard: local backtracks are flushed here at poll
    /// boundaries; `bt_flushed` remembers how many were already folded
    /// into the shared total.
    bailout: Option<Arc<BailoutMonitor>>,
    bt_flushed: u64,
}

impl<'a> RunControl<'a> {
    /// Control for a run of `config` started at `started`. Workers of a
    /// parallel run pass their [`SharedControl`] and share its token and
    /// global cap; a solo run derives a token from the config (deadline +
    /// caller token).
    pub fn new(
        config: &MatchConfig,
        shared: Option<&'a SharedControl>,
        started: Instant,
        poll_mask: u64,
    ) -> Self {
        RunControl {
            counters: CounterBlock::new(),
            cap: match shared {
                Some(sh) => sh.cap,
                None => config.effective_cap().unwrap_or(u64::MAX),
            },
            poll_mask,
            cancel: match shared {
                Some(sh) => sh.cancel.clone(),
                None => config.run_token(started),
            },
            stopped: None,
            bailout: match shared {
                Some(sh) => sh.bailout.clone(),
                None => config.bailout.clone(),
            },
            bt_flushed: 0,
            shared,
        }
    }

    /// Count one search-tree node and periodically poll cancellation
    /// (flushing live backtracks into the jump-redo monitor first, so a
    /// blown budget is observed at the same boundary).
    #[inline]
    pub fn tick(&mut self) {
        self.counters.bump(Counter::Recursions);
        if self.counters.get(Counter::Recursions) & self.poll_mask == 0 {
            if let Some(monitor) = &self.bailout {
                let seen = self.counters.get(Counter::Backtracks);
                monitor.observe(seen - self.bt_flushed, &self.cancel);
                self.bt_flushed = seen;
            }
            if let Some(reason) = self.cancel.poll() {
                self.stopped = Some(match reason {
                    CancelReason::Deadline => Outcome::TimedOut,
                    CancelReason::Stopped => Outcome::CapReached,
                });
            }
        }
    }

    /// Whether the run must unwind (cap, deadline or cancellation).
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.stopped.is_some()
    }

    /// Count one found match and apply the cap: `record_matches(1)`.
    /// Returns whether the match is within the cap and should be counted
    /// and emitted to the sink; `false` means another worker already
    /// claimed the cap's last slot, so the engines must drop the match.
    ///
    /// A run that walks every level reserves its slots only here, one at
    /// a time, so its shared total cannot wrap and a plain `fetch_add`
    /// takes the slot (see [`RunControl::record_matches`] for the runs
    /// that need a saturating one).
    ///
    /// `inline(always)`: this runs once per embedding inside the engine's
    /// candidate loop, which LLVM stops inlining into once the loop has
    /// several instantiations.
    #[inline(always)]
    #[must_use = "a false return means the match must not be emitted"]
    pub fn record_match(&mut self) -> bool {
        let base = self
            .shared
            .map(|sh| sh.matches.fetch_add(1, Ordering::Relaxed));
        self.settle(1, base).0 == 1
    }

    /// Count `k` found matches in one step and apply the cap — against
    /// the shared cross-worker total in parallel runs, the local count
    /// otherwise. Returns `(accepted, claims)`: what calling
    /// [`RunControl::record_match`] up to `k` times, stopping once the run
    /// is stopped, would give — `claims` calls, `accepted` of them `true`.
    /// This keeps capped counts *exact*: the sum across workers is
    /// `min(true total, cap)` regardless of interleaving.
    ///
    /// Solo, `min(k, cap − matches)` are accepted. Shared, one saturating
    /// add reserves slots `base + 1 ..= base + k`: the cap'th slot cancels
    /// the run's token, and a reservation that starts at or past the cap
    /// rejects its one claim (the slots it over-reserves lie past the cap,
    /// where every later reservation is rejected anyway). The add
    /// saturates because a count-only suffix's product can be any `u64`
    /// and must not wrap the shared total back below the cap; a run that
    /// reserves here reserves nowhere else, so no one-slot `fetch_add` of
    /// [`RunControl::record_match`] ever meets a saturated total.
    #[inline(always)]
    pub fn record_matches(&mut self, k: u64) -> (u64, u64) {
        if k == 0 {
            return (0, 0);
        }
        let base = self.shared.map(|sh| saturating_fetch_add(&sh.matches, k));
        self.settle(k, base)
    }

    /// The cap arithmetic of a reservation of `k ≥ 1` slots, given the
    /// shared total before it (`None` in a solo run).
    #[inline(always)]
    fn settle(&mut self, k: u64, base: Option<u64>) -> (u64, u64) {
        // `room`: the 1-based call that reaches the cap and stops the run.
        let (room, past_cap) = match base {
            Some(base) => (self.cap.saturating_sub(base).max(1), base >= self.cap),
            None => (
                self.cap
                    .saturating_sub(self.counters.get(Counter::Matches))
                    .max(1),
                false,
            ),
        };
        let claims = k.min(room);
        let accepted = if past_cap { 0 } else { claims };
        self.counters.add(Counter::Matches, accepted);
        if k >= room {
            if let (Some(sh), false) = (self.shared, past_cap) {
                sh.cancel.cancel(CancelReason::Stopped);
            }
            self.stopped = Some(Outcome::CapReached);
        }
        (accepted, claims)
    }

    /// Why the run ended ([`Outcome::Complete`] unless stopped).
    pub fn outcome(&self) -> Outcome {
        self.stopped.unwrap_or(Outcome::Complete)
    }

    /// The [`EnumStats`] of a run begun at `started` (the counters are
    /// flushed into the trace once per run/worker by the entry points,
    /// so morsel-grained calls don't fragment the registry).
    pub fn into_stats(self, started: Instant) -> EnumStats {
        let totals = RunTotals {
            outcome: self.outcome(),
            counters: self.counters,
        };
        totals.finish(started.elapsed(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_runtime::check::Check;
    use sm_runtime::ensure_eq;

    fn matches(ctl: &RunControl<'_>) -> u64 {
        ctl.counters.get(Counter::Matches)
    }

    /// The per-embedding loop `record_matches` replaces: one
    /// `record_match` per claimable embedding until the run stops.
    fn one_by_one(ctl: &mut RunControl<'_>, k: u64) -> (u64, u64) {
        let (mut accepted, mut claims) = (0, 0);
        while claims < k {
            claims += 1;
            accepted += ctl.record_match() as u64;
            if ctl.is_stopped() {
                break;
            }
        }
        (accepted, claims)
    }

    fn capped(cap: u64) -> MatchConfig {
        MatchConfig {
            max_matches: Some(cap),
            ..MatchConfig::find_all()
        }
    }

    /// A reservation size: mostly a leaf's handful, sometimes far past any
    /// cap the tests draw, sometimes the largest product a count-only
    /// suffix can report. `one_by_one` stops at the cap, so each stays
    /// cheap to replay.
    fn arb_k(rng: &mut sm_runtime::rng::Rng64) -> u64 {
        match rng.gen_range(0..8u32) {
            0 => u64::MAX,
            1 => rng.gen_range(1u64 << 20..1u64 << 40),
            _ => rng.gen_range(0..6u64),
        }
    }

    #[test]
    fn record_matches_equals_record_match_calls_solo() {
        Check::new("record_matches_equals_record_match_calls_solo")
            .cases(64)
            .run(
                |rng, size| {
                    let cap = rng.gen_range(0..size as u64 + 2);
                    let steps = rng.gen_range(1..12usize);
                    let ks: Vec<u64> = (0..steps).map(|_| arb_k(rng)).collect();
                    (cap, ks)
                },
                |(cap, ks)| {
                    let cfg = capped(*cap);
                    let started = Instant::now();
                    let mut batch = RunControl::new(&cfg, None, started, 0);
                    let mut single = RunControl::new(&cfg, None, started, 0);
                    for &k in ks {
                        if batch.is_stopped() {
                            break;
                        }
                        ensure_eq!(batch.record_matches(k), one_by_one(&mut single, k), "k={k}");
                        ensure_eq!(matches(&batch), matches(&single));
                        ensure_eq!(batch.is_stopped(), single.is_stopped());
                        ensure_eq!(batch.outcome(), single.outcome());
                    }
                    Ok(())
                },
            );
    }

    #[test]
    fn record_matches_equals_record_match_calls_shared() {
        // Two workers interleaved on one shared cap; the caps land inside,
        // at the end of and just past a reservation.
        Check::new("record_matches_equals_record_match_calls_shared")
            .cases(96)
            .run(
                |rng, size| {
                    let cap = rng.gen_range(0..size as u64 + 2);
                    let steps = rng.gen_range(1..16usize);
                    let ws: Vec<(usize, u64)> = (0..steps)
                        .map(|_| (rng.gen_range(0..2usize), arb_k(rng)))
                        .collect();
                    (cap, ws)
                },
                |(cap, steps)| {
                    let cfg = capped(*cap);
                    let started = Instant::now();
                    let (sa, sb) = (
                        SharedControl::for_run(&cfg, started),
                        SharedControl::for_run(&cfg, started),
                    );
                    let mut batch = [0, 1].map(|_| RunControl::new(&cfg, Some(&sa), started, 0));
                    let mut single = [0, 1].map(|_| RunControl::new(&cfg, Some(&sb), started, 0));
                    for &(w, k) in steps {
                        // The engine ticks (polling, at mask 0) on entering a
                        // node and records nothing once stopped.
                        batch[w].tick();
                        single[w].tick();
                        ensure_eq!(batch[w].is_stopped(), single[w].is_stopped());
                        if batch[w].is_stopped() {
                            continue;
                        }
                        ensure_eq!(
                            batch[w].record_matches(k),
                            one_by_one(&mut single[w], k),
                            "worker {w}, k={k}"
                        );
                        for (b, s) in batch.iter().zip(&single) {
                            ensure_eq!(matches(b), matches(s));
                            ensure_eq!(b.is_stopped(), s.is_stopped());
                            ensure_eq!(b.outcome(), s.outcome());
                        }
                        ensure_eq!(sa.cancel.cancelled(), sb.cancel.cancelled());
                    }
                    Ok(())
                },
            );
    }

    #[test]
    fn uncapped_reservations_saturate_instead_of_wrapping() {
        let cfg = MatchConfig::find_all();
        let started = Instant::now();
        let mut solo = RunControl::new(&cfg, None, started, 0x3FF);
        assert_eq!(solo.record_matches(u64::MAX), (u64::MAX, u64::MAX));
        assert_eq!(solo.outcome(), Outcome::CapReached);
        // Shared: the first reservation takes every slot there is, and the
        // ones racing its cancellation land past the cap however large they
        // are — a wrapped total would accept the third.
        let shared = SharedControl::for_run(&cfg, started);
        let mut w = [0, 1, 2].map(|_| RunControl::new(&cfg, Some(&shared), started, 0x3FF));
        assert_eq!(w[0].record_matches(u64::MAX), (u64::MAX, u64::MAX));
        assert_eq!(w[1].record_matches(5), (0, 1));
        assert_eq!(w[2].record_matches(3), (0, 1));
        assert_eq!(shared.matches.load(Ordering::Relaxed), u64::MAX);
        assert_eq!(w.iter().map(matches).sum::<u64>(), u64::MAX);
        assert!(w.iter().all(|c| c.outcome() == Outcome::CapReached));
    }

    #[test]
    fn cap_stops_solo_run() {
        let cfg = MatchConfig {
            max_matches: Some(2),
            ..Default::default()
        };
        let mut ctl = RunControl::new(&cfg, None, Instant::now(), 0x3FF);
        assert!(ctl.record_match());
        assert!(!ctl.is_stopped());
        assert!(ctl.record_match());
        assert!(ctl.is_stopped());
        assert_eq!(ctl.outcome(), Outcome::CapReached);
        assert_eq!(matches(&ctl), 2);
    }

    #[test]
    fn shared_cap_applies_to_the_sum() {
        let cfg = MatchConfig {
            max_matches: Some(3),
            ..Default::default()
        };
        let started = Instant::now();
        let shared = SharedControl::for_run(&cfg, started);
        let mut a = RunControl::new(&cfg, Some(&shared), started, 0x3FF);
        let mut b = RunControl::new(&cfg, Some(&shared), started, 0x3FF);
        assert!(a.record_match());
        assert!(b.record_match());
        assert!(!a.is_stopped() && !b.is_stopped());
        assert!(a.record_match()); // total hits 3: cancels the shared token
        assert!(a.is_stopped());
        // a further match past the cap is rejected, keeping the sum exact
        assert!(!b.record_match());
        assert_eq!(matches(&a) + matches(&b), 3);
        // b notices at its next poll boundary
        for _ in 0..=0x3FF {
            b.tick();
        }
        assert!(b.is_stopped());
        assert_eq!(b.outcome(), Outcome::CapReached);
    }

    #[test]
    fn bailout_monitor_cancels_past_budget() {
        let monitor = BailoutMonitor::new(10);
        let cfg = MatchConfig {
            bailout: Some(monitor.clone()),
            ..MatchConfig::find_all()
        };
        // Solo run: the monitor rides the config into the control.
        let mut ctl = RunControl::new(&cfg, None, Instant::now(), 0x3);
        for _ in 0..8 {
            ctl.counters.bump(Counter::Backtracks);
        }
        for _ in 0..4 {
            ctl.tick();
        }
        assert!(!monitor.triggered(), "8 <= 10: within budget");
        assert!(!ctl.is_stopped());
        for _ in 0..5 {
            ctl.counters.bump(Counter::Backtracks);
        }
        for _ in 0..4 {
            ctl.tick();
        }
        assert!(monitor.triggered(), "13 > 10: budget blown");
        assert_eq!(monitor.observed(), 13);
        // The cancellation lands at the *next* poll boundary.
        for _ in 0..4 {
            ctl.tick();
        }
        assert!(ctl.is_stopped());
        assert_eq!(ctl.outcome(), Outcome::CapReached);
    }

    #[test]
    fn bailout_monitor_total_saturates() {
        // Two workers' counted products, each near `u64::MAX`: a wrapped
        // total would read as within budget.
        let monitor = BailoutMonitor::new(u64::MAX - 1);
        let cancel = CancelToken::new();
        monitor.observe(u64::MAX - 2, &cancel);
        assert!(!monitor.triggered());
        monitor.observe(u64::MAX - 2, &cancel);
        assert_eq!(monitor.observed(), u64::MAX);
        assert!(monitor.triggered());
    }

    #[test]
    fn bailout_monitor_shared_across_workers() {
        let monitor = BailoutMonitor::new(5);
        let cfg = MatchConfig {
            bailout: Some(monitor.clone()),
            ..MatchConfig::find_all()
        };
        let started = Instant::now();
        let shared = SharedControl::for_run(&cfg, started);
        assert!(shared.bailout.is_some());
        let mut a = RunControl::new(&cfg, Some(&shared), started, 0);
        let mut b = RunControl::new(&cfg, Some(&shared), started, 0);
        for _ in 0..4 {
            a.counters.bump(Counter::Backtracks);
        }
        a.tick();
        assert!(!monitor.triggered());
        for _ in 0..4 {
            b.counters.bump(Counter::Backtracks);
        }
        b.tick();
        // 4 + 4 > 5: the cross-worker sum blows the budget and the shared
        // token is cancelled, stopping both workers.
        assert!(monitor.triggered());
        b.tick();
        assert!(b.is_stopped());
        a.tick();
        assert!(a.is_stopped());
    }

    #[test]
    fn caller_cancellation_reported_as_cap() {
        let token = CancelToken::new();
        let cfg = MatchConfig::find_all().with_cancel(token.clone());
        let mut ctl = RunControl::new(&cfg, None, Instant::now(), 0);
        token.cancel(CancelReason::Stopped);
        ctl.tick();
        assert!(ctl.is_stopped());
        assert_eq!(ctl.into_stats(Instant::now()).outcome, Outcome::CapReached);
    }
}

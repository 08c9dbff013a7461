//! Warp lockstep replay: turns a set of lane traces into cycle costs.
//!
//! The replay is **live-lane**: a warp's lanes are ordered by trace length,
//! longest first, so the lanes still running at step `s` are always a
//! prefix of that order and a step only visits lanes that have an event
//! there. Idle lanes are charged in bulk as `width - live` divergent slots.
//! Once a single lane is left, every remaining step holds exactly one event
//! (one transaction, nothing to coalesce or collide with), so the rest of
//! that lane's trace is priced by counting its events per kind.

use crate::config::GpuConfig;
use crate::event::{AccessKind, MemEvent, Space};
use crate::lane::Lane;
use crate::stats::KernelStats;
use std::cmp::Reverse;

/// Division and remainder by a fixed configuration value, as a shift and a
/// mask when it is a power of two. Zero is treated as one, like
/// [`MemEvent::segment`].
#[derive(Clone, Copy, Debug)]
struct Divisor {
    value: u64,
    shift: Option<u32>,
}

impl Divisor {
    fn new(value: u64) -> Self {
        let value = value.max(1);
        Divisor {
            value,
            shift: value.is_power_of_two().then(|| value.trailing_zeros()),
        }
    }

    #[inline]
    fn div(self, x: u64) -> u64 {
        match self.shift {
            Some(s) => x >> s,
            None => x / self.value,
        }
    }

    #[inline]
    fn rem(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & (self.value - 1),
            None => x % self.value,
        }
    }
}

/// Replays warps in lockstep and accumulates their cost into
/// [`KernelStats`]. One replayer serves many warps: its scratch buffers are
/// allocated once and reused, so a host thread keeps one per work chunk.
#[derive(Debug)]
pub struct WarpReplayer<'c> {
    cfg: &'c GpuConfig,
    segment: Divisor,
    bank: Divisor,
    /// `(trace length, lane)` pairs of the current warp, longest first.
    order: Vec<(usize, usize)>,
    segments: Vec<u64>,
    l2_segments: Vec<u64>,
    banks: Vec<u64>,
    /// Addresses of global- and L2-space atomics in the current step.
    atomics: Vec<u64>,
    /// Addresses of shared-space atomics in the current step.
    shared_atomics: Vec<u64>,
}

impl<'c> WarpReplayer<'c> {
    /// A replayer pricing warps under `cfg`.
    pub fn new(cfg: &'c GpuConfig) -> Self {
        let lanes = cfg.warp_size;
        WarpReplayer {
            cfg,
            segment: Divisor::new(cfg.segment_words),
            bank: Divisor::new(cfg.shared_banks),
            order: Vec::with_capacity(lanes),
            segments: Vec::with_capacity(lanes),
            l2_segments: Vec::with_capacity(lanes),
            banks: Vec::with_capacity(lanes),
            atomics: Vec::with_capacity(lanes),
            shared_atomics: Vec::with_capacity(lanes),
        }
    }

    /// Replays one warp whose lane `i` recorded `traces[i]`; lanes may have
    /// different lengths (divergence). The warp's width is `traces.len()`:
    /// lanes of a tail warp that were never launched are not passed and not
    /// charged.
    pub fn replay(&mut self, traces: &[&[MemEvent]], stats: &mut KernelStats) {
        self.replay_with(traces.len(), |i| traces[i], stats);
    }

    /// [`WarpReplayer::replay`] over the lanes that just ran a warp.
    pub(crate) fn replay_lanes(&mut self, lanes: &[Lane], stats: &mut KernelStats) {
        self.replay_with(lanes.len(), |i| lanes[i].trace(), stats);
    }

    fn replay_with<'t>(
        &mut self,
        width: usize,
        trace: impl Fn(usize) -> &'t [MemEvent],
        stats: &mut KernelStats,
    ) {
        self.order.clear();
        self.order.extend(
            (0..width)
                .map(|i| (trace(i).len(), i))
                .filter(|&(n, _)| n > 0),
        );
        self.order.sort_unstable_by_key(|&(len, _)| Reverse(len));
        let Some(&(max_len, _)) = self.order.first() else {
            return;
        };
        stats.warps += 1;
        stats.steps += max_len as u64;
        let issue = self.cfg.issue_cycles * max_len as u64;
        stats.issue_cycles += issue;
        let mut cycles = issue;

        let mut live = self.order.len();
        for step in 0..max_len {
            // Lanes whose trace ended before `step` drop off the back.
            while self.order[live - 1].0 <= step {
                live -= 1;
            }
            if live == 1 {
                let rest = &trace(self.order[0].1)[step..];
                cycles += self.price_single_lane(rest, width, stats);
                break;
            }
            // Divergence: slots the warp issues but no lane fills.
            stats.divergent_slots += (width - live) as u64;
            for j in 0..live {
                let lane = self.order[j].1;
                self.collect(&trace(lane)[step], stats);
            }
            cycles += self.price_step(stats);
        }
        stats.warp_cycles += cycles;
    }

    /// Sorts one lane's event of the current step into the step's scratch
    /// buffers, counting the access.
    #[inline]
    fn collect(&mut self, ev: &MemEvent, stats: &mut KernelStats) {
        match (ev.kind, ev.space) {
            (AccessKind::Compute, _) => {}
            (AccessKind::Atomic, Space::Shared) => {
                // Shared-memory atomics: bank traffic plus collision
                // serialization.
                stats.atomic_ops += 1;
                self.shared_atomics.push(ev.address());
                self.banks.push(self.bank.rem(ev.address()));
            }
            (AccessKind::Atomic, Space::Global | Space::L2) => {
                // Global atomics execute in L2 regardless of data residency:
                // a warp's atomics to the same cache segment batch into one
                // round trip (same coalescing rule as plain accesses), while
                // same-address collisions serialize. Segment residency does
                // not change the price — the RMW round trip through the L2
                // crossbar is the cost, not the DRAM fetch.
                stats.atomic_ops += 1;
                self.atomics.push(ev.address());
            }
            (_, Space::Global) => {
                stats.global_accesses += 1;
                self.segments.push(self.segment.div(ev.address()));
            }
            (_, Space::L2) => {
                // L2-resident data (segment-major execution): coalesces
                // exactly like global memory, but a transaction is an L2
                // hit at `lat_l2` instead of a DRAM round trip.
                stats.l2_accesses += 1;
                self.l2_segments.push(self.segment.div(ev.address()));
            }
            (_, Space::Shared) => {
                stats.shared_accesses += 1;
                self.banks.push(self.bank.rem(ev.address()));
            }
        }
    }

    /// Prices the step collected in the scratch buffers, empties them and
    /// returns the step's cycles beyond issue.
    fn price_step(&mut self, stats: &mut KernelStats) -> u64 {
        let mut cycles = 0;
        // Coalescing: one transaction per distinct segment.
        if !self.segments.is_empty() {
            self.segments.sort_unstable();
            let tx = distinct(&self.segments, |s| s);
            stats.global_transactions += tx;
            let c = self.cfg.lat_global * tx;
            stats.global_cycles += c;
            cycles += c;
            self.segments.clear();
        }
        // L2 hits: same per-segment coalescing, cheaper round trip.
        if !self.l2_segments.is_empty() {
            self.l2_segments.sort_unstable();
            let tx = distinct(&self.l2_segments, |s| s);
            stats.l2_transactions += tx;
            let c = self.cfg.lat_l2 * tx;
            stats.l2_cycles += c;
            cycles += c;
            self.l2_segments.clear();
        }
        // Shared memory: base latency plus bank-conflict serialization
        // (largest same-bank group issues serially).
        if !self.banks.is_empty() {
            self.banks.sort_unstable();
            let worst = longest_run(&self.banks);
            stats.bank_conflicts += worst - 1;
            let c = self.cfg.lat_shared * worst;
            stats.shared_cycles += c;
            cycles += c;
            self.banks.clear();
        }
        // Atomics: one L2 round trip per distinct segment of the global
        // atomics (at least one), plus the largest same-address collision
        // group — over shared and global atomics together — serializing on
        // top. Segments are counted on the sorted addresses: `addr / k` is
        // monotone, so equal segments are adjacent.
        if !self.atomics.is_empty() || !self.shared_atomics.is_empty() {
            self.atomics.sort_unstable();
            let segment = self.segment;
            let segments = distinct(&self.atomics, |a| segment.div(a));
            stats.global_transactions += segments;
            stats.atomic_transactions += segments;
            if !self.shared_atomics.is_empty() {
                self.atomics.extend_from_slice(&self.shared_atomics);
                self.atomics.sort_unstable();
                self.shared_atomics.clear();
            }
            let worst = longest_run(&self.atomics);
            stats.atomic_collisions += worst - 1;
            let c = self.cfg.lat_atomic * (segments.max(1) + worst - 1);
            stats.atomic_cycles += c;
            cycles += c;
            self.atomics.clear();
        }
        cycles
    }

    /// Prices the tail of a warp in which only one lane still runs: each
    /// step holds `rest`'s next event alone, so it pays for at most one
    /// transaction with no bank conflict or collision. Returns the cycles
    /// beyond issue.
    fn price_single_lane(&self, rest: &[MemEvent], width: usize, stats: &mut KernelStats) -> u64 {
        let (mut global, mut l2, mut shared, mut atomic, mut shared_atomic) = (0, 0, 0, 0, 0);
        for ev in rest {
            match (ev.kind, ev.space) {
                (AccessKind::Compute, _) => {}
                (AccessKind::Atomic, Space::Shared) => shared_atomic += 1,
                (AccessKind::Atomic, Space::Global | Space::L2) => atomic += 1,
                (_, Space::Global) => global += 1,
                (_, Space::L2) => l2 += 1,
                (_, Space::Shared) => shared += 1,
            }
        }
        stats.divergent_slots += (width as u64 - 1) * rest.len() as u64;
        stats.global_accesses += global;
        stats.global_transactions += global + atomic;
        stats.l2_accesses += l2;
        stats.l2_transactions += l2;
        stats.shared_accesses += shared;
        stats.atomic_ops += atomic + shared_atomic;
        stats.atomic_transactions += atomic;
        // A shared atomic pays a bank access and an atomic round trip.
        let global_c = self.cfg.lat_global * global;
        let l2_c = self.cfg.lat_l2 * l2;
        let shared_c = self.cfg.lat_shared * (shared + shared_atomic);
        let atomic_c = self.cfg.lat_atomic * (atomic + shared_atomic);
        stats.global_cycles += global_c;
        stats.l2_cycles += l2_c;
        stats.shared_cycles += shared_c;
        stats.atomic_cycles += atomic_c;
        global_c + l2_c + shared_c + atomic_c
    }
}

/// Number of distinct `key` values in `sorted`, where `key` is monotone.
#[inline]
fn distinct(sorted: &[u64], key: impl Fn(u64) -> u64) -> u64 {
    let mut keys = sorted.iter().map(|&x| key(x));
    let Some(mut prev) = keys.next() else {
        return 0;
    };
    let mut n = 1;
    for k in keys {
        if k != prev {
            n += 1;
            prev = k;
        }
    }
    n
}

/// Length of the longest run of equal values in the non-empty `sorted`.
#[inline]
fn longest_run(sorted: &[u64]) -> u64 {
    let mut worst = 1u64;
    let mut run = 1u64;
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            run += 1;
            worst = worst.max(run);
        } else {
            run = 1;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArrayId, MemEvent};

    fn read(idx: u64) -> MemEvent {
        MemEvent {
            array: ArrayId::NODE_ATTR,
            index: idx,
            kind: AccessKind::Read,
            space: Space::Global,
        }
    }

    fn shared_read(idx: u64) -> MemEvent {
        MemEvent {
            array: ArrayId::NODE_ATTR,
            index: idx,
            kind: AccessKind::Read,
            space: Space::Shared,
        }
    }

    fn atomic(idx: u64) -> MemEvent {
        MemEvent {
            array: ArrayId::NODE_ATTR,
            index: idx,
            kind: AccessKind::Atomic,
            space: Space::Global,
        }
    }

    fn cfg() -> GpuConfig {
        GpuConfig::test_tiny() // 4-lane warps, 4-word segments, lat 100/10/20
    }

    fn replay_warp(cfg: &GpuConfig, traces: &[&[MemEvent]], stats: &mut KernelStats) {
        WarpReplayer::new(cfg).replay(traces, stats);
    }

    #[test]
    fn fully_coalesced_step_is_one_transaction() {
        let t0 = [read(0)];
        let t1 = [read(1)];
        let t2 = [read(2)];
        let t3 = [read(3)];
        let traces = [&t0[..], &t1[..], &t2[..], &t3[..]];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &traces, &mut stats);
        assert_eq!(stats.global_transactions, 1);
        assert_eq!(stats.warp_cycles, 1 + 100);
        assert_eq!(stats.divergent_slots, 0);
    }

    #[test]
    fn scattered_step_pays_per_segment() {
        // The paper's motivating example: lanes touch attr[4], attr[0],
        // attr[11], attr[19] — four distinct 4-word chunks.
        let t0 = [read(4)];
        let t1 = [read(0)];
        let t2 = [read(11)];
        let t3 = [read(19)];
        let traces = [&t0[..], &t1[..], &t2[..], &t3[..]];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &traces, &mut stats);
        assert_eq!(stats.global_transactions, 4);
        assert_eq!(stats.warp_cycles, 1 + 4 * 100);
    }

    #[test]
    fn divergence_counts_idle_slots_and_max_length_rules() {
        let long = [read(0), read(1), read(2)];
        let short = [read(4)];
        let traces = [&long[..], &short[..]];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &traces, &mut stats);
        assert_eq!(stats.steps, 3);
        // Steps 2 and 3: one of two lanes idle.
        assert_eq!(stats.divergent_slots, 2);
    }

    #[test]
    fn shared_access_is_cheaper_than_global() {
        let g = [read(0)];
        let s = [shared_read(0)];
        let mut global_stats = KernelStats::default();
        replay_warp(&cfg(), &[&g[..]], &mut global_stats);
        let mut shared_stats = KernelStats::default();
        replay_warp(&cfg(), &[&s[..]], &mut shared_stats);
        assert!(shared_stats.warp_cycles < global_stats.warp_cycles);
        assert_eq!(shared_stats.shared_accesses, 1);
    }

    #[test]
    fn bank_conflicts_serialize() {
        // Bank count is 4 in the tiny config; indices 0 and 4 share bank 0.
        let a = [shared_read(0)];
        let b = [shared_read(4)];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &[&a[..], &b[..]], &mut stats);
        assert_eq!(stats.bank_conflicts, 1);
        assert_eq!(stats.warp_cycles, 1 + 2 * 10);
    }

    #[test]
    fn atomic_collisions_serialize() {
        let a = [atomic(5)];
        let b = [atomic(5)];
        let c = [atomic(6)];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &[&a[..], &b[..], &c[..]], &mut stats);
        assert_eq!(stats.atomic_ops, 3);
        assert_eq!(stats.atomic_collisions, 1);
        // Addresses 5, 5, 6 share one 4-word segment (1 tx); the same-
        // address pair serializes one extra round: 1 + 20 * (1 + 1).
        assert_eq!(stats.warp_cycles, 1 + 2 * 20);
        assert_eq!(stats.global_transactions, 1);
    }

    #[test]
    fn scattered_atomics_pay_per_segment() {
        let a = [atomic(0)];
        let b = [atomic(16)];
        let mut near_stats = KernelStats::default();
        let a2 = [atomic(0)];
        let b2 = [atomic(1)];
        replay_warp(&cfg(), &[&a[..], &b[..]], &mut near_stats);
        let mut coal_stats = KernelStats::default();
        replay_warp(&cfg(), &[&a2[..], &b2[..]], &mut coal_stats);
        assert!(
            coal_stats.warp_cycles < near_stats.warp_cycles,
            "same-segment atomics must batch: {} vs {}",
            coal_stats.warp_cycles,
            near_stats.warp_cycles
        );
    }

    #[test]
    fn component_cycles_sum_to_warp_cycles() {
        // Mixed workload: global reads, shared reads with conflicts, atomics
        // with collisions, divergence. The metered components must partition
        // the total exactly.
        let t0 = [read(0), shared_read(0), atomic(5)];
        let t1 = [read(9), shared_read(4), atomic(5)];
        let t2 = [read(17), shared_read(1)];
        let traces = [&t0[..], &t1[..], &t2[..]];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &traces, &mut stats);
        assert!(stats.warp_cycles > 0);
        assert_eq!(
            stats.issue_cycles
                + stats.global_cycles
                + stats.shared_cycles
                + stats.atomic_cycles
                + stats.l2_cycles,
            stats.warp_cycles
        );
    }

    fn l2_read(idx: u64) -> MemEvent {
        MemEvent {
            array: ArrayId::NODE_ATTR,
            index: idx,
            kind: AccessKind::Read,
            space: Space::L2,
        }
    }

    #[test]
    fn l2_hits_coalesce_like_global_at_l2_latency() {
        // Four lanes reading one 4-word segment: one L2 transaction.
        let t0 = [l2_read(0)];
        let t1 = [l2_read(1)];
        let t2 = [l2_read(2)];
        let t3 = [l2_read(3)];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &[&t0[..], &t1[..], &t2[..], &t3[..]], &mut stats);
        assert_eq!(stats.l2_accesses, 4);
        assert_eq!(stats.l2_transactions, 1);
        assert_eq!(stats.global_transactions, 0);
        assert_eq!(stats.warp_cycles, 1 + 25); // issue + one lat_l2 hit
        assert_eq!(stats.l2_cycles, 25);

        // Scattered L2 reads pay per distinct segment, like global.
        let s0 = [l2_read(0)];
        let s1 = [l2_read(16)];
        let mut scattered = KernelStats::default();
        replay_warp(&cfg(), &[&s0[..], &s1[..]], &mut scattered);
        assert_eq!(scattered.l2_transactions, 2);
        assert_eq!(scattered.warp_cycles, 1 + 2 * 25);
    }

    #[test]
    fn l2_sits_between_shared_and_global() {
        let g = [read(0)];
        let s = [shared_read(0)];
        let l = [l2_read(0)];
        let mut gs = KernelStats::default();
        replay_warp(&cfg(), &[&g[..]], &mut gs);
        let mut ss = KernelStats::default();
        replay_warp(&cfg(), &[&s[..]], &mut ss);
        let mut ls = KernelStats::default();
        replay_warp(&cfg(), &[&l[..]], &mut ls);
        assert!(ss.warp_cycles < ls.warp_cycles);
        assert!(ls.warp_cycles < gs.warp_cycles);
    }

    #[test]
    fn l2_atomics_price_like_global_atomics() {
        let a = [atomic(5)];
        let b = [MemEvent {
            array: ArrayId::NODE_ATTR,
            index: 5,
            kind: AccessKind::Atomic,
            space: Space::L2,
        }];
        let mut ga = KernelStats::default();
        replay_warp(&cfg(), &[&a[..]], &mut ga);
        let mut la = KernelStats::default();
        replay_warp(&cfg(), &[&b[..]], &mut la);
        // Residency never discounts the RMW round trip.
        assert_eq!(ga.warp_cycles, la.warp_cycles);
        assert_eq!(la.atomic_ops, 1);
        assert_eq!(la.l2_accesses, 0);
    }

    #[test]
    fn empty_traces_cost_nothing() {
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &[&[][..], &[][..]], &mut stats);
        assert_eq!(stats.warp_cycles, 0);
        assert_eq!(stats.warps, 0);
    }

    /// One lane with 1,000 events beside 31 lanes with one event each: the
    /// first step prices all 32 lanes, the other 999 steps run the long
    /// lane alone through the single-lane tail.
    #[test]
    fn power_law_warp_prices_the_single_lane_tail() {
        let cfg = GpuConfig::k40c(); // 32 lanes, 32-word segments
        let compute = MemEvent {
            array: ArrayId(u16::MAX),
            index: 0,
            kind: AccessKind::Compute,
            space: Space::Global,
        };
        // Step 0 reads the long lane's own segment; the tail cycles through
        // a global read, compute, a shared read, an L2 read and an atomic.
        let long: Vec<MemEvent> = (0..1000u64)
            .map(|i| match i % 5 {
                _ if i == 0 => read(1 << 20),
                0 => read(i),
                1 => compute,
                2 => shared_read(i),
                3 => l2_read(i),
                _ => atomic(i),
            })
            .collect();
        // 31 short lanes reading 31 distinct segments.
        let shorts: Vec<[MemEvent; 1]> = (1..32u64).map(|k| [read(32 * k)]).collect();
        let mut traces: Vec<&[MemEvent]> = vec![&long];
        traces.extend(shorts.iter().map(|t| &t[..]));
        let mut stats = KernelStats::default();
        replay_warp(&cfg, &traces, &mut stats);

        // Tail steps 1..=999 by `i % 5`: 199 reads, 200 of each other kind.
        let (tail_reads, tail_each) = (199, 200);
        assert_eq!(stats.steps, 1000);
        assert_eq!(stats.divergent_slots, 31 * 999);
        assert_eq!(stats.global_accesses, 32 + tail_reads);
        assert_eq!(stats.global_transactions, 32 + tail_reads + tail_each);
        assert_eq!(stats.atomic_transactions, tail_each);
        assert_eq!(stats.atomic_collisions, 0);
        assert_eq!(stats.bank_conflicts, 0);
        assert_eq!(stats.issue_cycles, 24 * 1000);
        assert_eq!(stats.global_cycles, 64 * (32 + tail_reads));
        assert_eq!(stats.shared_cycles, 8 * tail_each);
        assert_eq!(stats.l2_cycles, 16 * tail_each);
        assert_eq!(stats.atomic_cycles, 128 * tail_each);
        assert_eq!(
            stats.warp_cycles,
            24_000 + 64 * 231 + 8 * 200 + 16 * 200 + 128 * 200
        );
    }

    /// Two lanes tie for the longest trace, so two lanes stay live to the
    /// last step and the single-lane tail never runs: every step still
    /// prices the pair's same-address collision.
    #[test]
    fn tied_longest_lanes_never_take_the_single_lane_tail() {
        let a = [atomic(5), atomic(5), atomic(5)];
        let b = [atomic(5), atomic(5), atomic(5)];
        let c = [read(0)];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &[&a[..], &b[..], &c[..]], &mut stats);
        assert_eq!(stats.steps, 3);
        assert_eq!(stats.divergent_slots, 2);
        assert_eq!(stats.atomic_ops, 6);
        assert_eq!(stats.atomic_collisions, 3);
        assert_eq!(stats.atomic_transactions, 3);
        assert_eq!(stats.global_transactions, 1 + 3);
        // Issue 3 × 1, one read at 100, three steps of 20 × (1 + 1).
        assert_eq!(stats.atomic_cycles, 3 * 2 * 20);
        assert_eq!(stats.warp_cycles, 3 + 100 + 3 * 2 * 20);
    }

    #[test]
    fn compute_only_step_costs_issue() {
        let t = [MemEvent {
            array: ArrayId(u16::MAX),
            index: 0,
            kind: AccessKind::Compute,
            space: Space::Global,
        }];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &[&t[..]], &mut stats);
        assert_eq!(stats.warp_cycles, 1);
    }
}

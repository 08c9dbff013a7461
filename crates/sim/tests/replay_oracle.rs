//! Differential test of the live-lane warp replay against the reference
//! lockstep loop it replaced: on random warps, every `KernelStats` field
//! must match exactly.

use graffix_sim::warp::WarpReplayer;
use graffix_sim::{AccessKind, ArrayId, GpuConfig, KernelStats, MemEvent, Space};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The reference replay: a column-wise lockstep loop in which every step
/// visits every lane and prices the events it finds there.
fn reference_replay(cfg: &GpuConfig, traces: &[&[MemEvent]], stats: &mut KernelStats) {
    if traces.is_empty() {
        return;
    }
    let max_len = traces.iter().map(|t| t.len()).max().unwrap_or(0);
    if max_len == 0 {
        return;
    }
    stats.warps += 1;
    stats.steps += max_len as u64;

    let mut segments: Vec<u64> = Vec::with_capacity(traces.len());
    let mut l2_segments: Vec<u64> = Vec::with_capacity(traces.len());
    let mut atomic_addrs: Vec<u64> = Vec::with_capacity(traces.len());
    let mut atomic_segments: Vec<u64> = Vec::with_capacity(traces.len());
    let mut banks: Vec<u64> = Vec::with_capacity(traces.len());

    for step in 0..max_len {
        let mut cycles = cfg.issue_cycles;
        stats.issue_cycles += cfg.issue_cycles;
        segments.clear();
        l2_segments.clear();
        atomic_addrs.clear();
        atomic_segments.clear();
        banks.clear();
        let mut active = 0usize;
        for t in traces {
            let Some(ev) = t.get(step) else { continue };
            active += 1;
            match (ev.kind, ev.space) {
                (AccessKind::Compute, _) => {}
                (AccessKind::Atomic, Space::Shared) => {
                    stats.atomic_ops += 1;
                    atomic_addrs.push(ev.address());
                    banks.push(ev.address() % cfg.shared_banks.max(1));
                }
                (AccessKind::Atomic, Space::Global | Space::L2) => {
                    stats.atomic_ops += 1;
                    atomic_addrs.push(ev.address());
                    atomic_segments.push(ev.segment(cfg.segment_words));
                }
                (_, Space::Global) => {
                    stats.global_accesses += 1;
                    segments.push(ev.segment(cfg.segment_words));
                }
                (_, Space::L2) => {
                    stats.l2_accesses += 1;
                    l2_segments.push(ev.segment(cfg.segment_words));
                }
                (_, Space::Shared) => {
                    stats.shared_accesses += 1;
                    banks.push(ev.address() % cfg.shared_banks.max(1));
                }
            }
        }
        let width = traces.len();
        stats.divergent_slots += (width - active) as u64;

        if !segments.is_empty() {
            segments.sort_unstable();
            segments.dedup();
            stats.global_transactions += segments.len() as u64;
            let c = cfg.lat_global * segments.len() as u64;
            stats.global_cycles += c;
            cycles += c;
        }
        if !l2_segments.is_empty() {
            l2_segments.sort_unstable();
            l2_segments.dedup();
            stats.l2_transactions += l2_segments.len() as u64;
            let c = cfg.lat_l2 * l2_segments.len() as u64;
            stats.l2_cycles += c;
            cycles += c;
        }
        if !banks.is_empty() {
            banks.sort_unstable();
            let mut worst = 1u64;
            let mut run = 1u64;
            for w in banks.windows(2) {
                if w[0] == w[1] {
                    run += 1;
                    worst = worst.max(run);
                } else {
                    run = 1;
                }
            }
            stats.bank_conflicts += worst - 1;
            let c = cfg.lat_shared * worst;
            stats.shared_cycles += c;
            cycles += c;
        }
        if !atomic_addrs.is_empty() {
            atomic_segments.sort_unstable();
            atomic_segments.dedup();
            let tx = atomic_segments.len().max(1) as u64;
            stats.global_transactions += atomic_segments.len() as u64;
            stats.atomic_transactions += atomic_segments.len() as u64;
            atomic_addrs.sort_unstable();
            let mut worst = 1u64;
            let mut run = 1u64;
            for w in atomic_addrs.windows(2) {
                if w[0] == w[1] {
                    run += 1;
                    worst = worst.max(run);
                } else {
                    run = 1;
                }
            }
            stats.atomic_collisions += worst - 1;
            let c = cfg.lat_atomic * (tx + worst - 1);
            stats.atomic_cycles += c;
            cycles += c;
        }
        stats.warp_cycles += cycles;
    }
}

/// A configuration whose segment size and bank count are not powers of
/// two, so the replay takes its division path.
fn odd_config() -> GpuConfig {
    GpuConfig {
        warp_size: 6,
        segment_words: 3,
        shared_banks: 5,
        ..GpuConfig::test_tiny()
    }
}

fn random_event(rng: &mut ChaCha8Rng) -> MemEvent {
    let kind = match rng.random_range(0..4u8) {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        2 => AccessKind::Atomic,
        _ => {
            return MemEvent {
                array: ArrayId(u16::MAX),
                index: 0,
                kind: AccessKind::Compute,
                space: Space::Global,
            }
        }
    };
    let space = match rng.random_range(0..3u8) {
        0 => Space::Global,
        1 => Space::Shared,
        _ => Space::L2,
    };
    // Few arrays and a narrow index range, so lanes of one step often
    // share a segment, a bank or an address; now and then a far index.
    let index = if rng.random_range(0..8u8) == 0 {
        rng.random_range(0..1u64 << 40)
    } else {
        rng.random_range(0..24u64)
    };
    MemEvent {
        array: ArrayId(rng.random_range(2..5u16)),
        index,
        kind,
        space,
    }
}

/// A warp of `1..=warp_size` lanes with ragged lengths: empty lanes, short
/// lanes and, in some warps, one or two long power-law lanes.
fn random_warp(rng: &mut ChaCha8Rng, cfg: &GpuConfig) -> Vec<Vec<MemEvent>> {
    let width = rng.random_range(1..=cfg.warp_size);
    let short = rng.random_range(1..12usize);
    let long = rng.random_range(0..3usize);
    (0..width)
        .map(|lane| {
            let len = if lane < long {
                rng.random_range(short..short + 80)
            } else if rng.random_range(0..5u8) == 0 {
                0
            } else {
                rng.random_range(0..=short)
            };
            (0..len).map(|_| random_event(rng)).collect()
        })
        .collect()
}

/// Replays random warps through one replayer (so its scratch buffers carry
/// over from warp to warp) and through the reference, warp by warp.
fn check_against_reference(cfg: &GpuConfig, seed: u64) -> Result<(), TestCaseError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut replayer = WarpReplayer::new(cfg);
    for _ in 0..8 {
        let warp = random_warp(&mut rng, cfg);
        let traces: Vec<&[MemEvent]> = warp.iter().map(|t| &t[..]).collect();
        let mut want = KernelStats::default();
        reference_replay(cfg, &traces, &mut want);
        let mut got = KernelStats::default();
        replayer.replay(&traces, &mut got);
        prop_assert_eq!(got, want, "seed {} warp {:?}", seed, warp);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn live_lane_replay_matches_reference_on_test_tiny(seed in 0u64..u64::MAX) {
        check_against_reference(&GpuConfig::test_tiny(), seed)?;
    }

    #[test]
    fn live_lane_replay_matches_reference_on_k40c(seed in 0u64..u64::MAX) {
        check_against_reference(&GpuConfig::k40c(), seed)?;
    }

    #[test]
    fn live_lane_replay_matches_reference_off_powers_of_two(seed in 0u64..u64::MAX) {
        check_against_reference(&odd_config(), seed)?;
    }
}

/// Same-address atomics in one step collide across address spaces: a
/// shared and a global atomic to one address serialize together, in
/// steps run by several lanes and in a single-lane tail.
#[test]
fn shared_and_global_atomics_to_one_address_collide() {
    let at = |space| MemEvent {
        array: ArrayId::NODE_ATTR,
        index: 7,
        kind: AccessKind::Atomic,
        space,
    };
    let long = [at(Space::Shared), at(Space::Global), at(Space::Shared)];
    let short = [at(Space::Global), at(Space::Shared)];
    let other = [at(Space::L2)];
    for cfg in [GpuConfig::test_tiny(), GpuConfig::k40c(), odd_config()] {
        let traces = [&long[..], &short[..], &other[..]];
        let mut want = KernelStats::default();
        reference_replay(&cfg, &traces, &mut want);
        let mut got = KernelStats::default();
        WarpReplayer::new(&cfg).replay(&traces, &mut got);
        assert_eq!(got, want);
        // Step 0: three lanes on one address; step 1: two.
        assert_eq!(got.atomic_collisions, 2 + 1);
    }
}

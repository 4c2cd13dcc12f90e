//! `wyt_core::shadow::ShadowMap` against a reference model.
//!
//! The model is a `BTreeMap<u32, Shadow>` from the address of a spilled
//! 4-byte value to its shadow, with every range operation written as a
//! key loop: the plainest statement of what the tracing runtimes need.
//! `invalidate(addr, size)` drops the keys in `[addr - 3, addr + size)`,
//! saturating at both ends of the address space; `copy(dst, src, len)`
//! makes the keys in `[dst, dst + len)` those of `[src, src + len)` (both
//! wrapping) and drops the three keys below `dst`. The property test
//! replays seeded operation sequences on both and compares every lookup.

use std::collections::{BTreeMap, BTreeSet};
use wyt_core::shadow::ShadowMap;
use wyt_ir::interp::Shadow;
use wyt_testkit::{check, shrink_vec, vec_of, Config, Rng};

const PAGE: u32 = 4096;

#[derive(Default)]
struct Model {
    map: BTreeMap<u32, Shadow>,
}

impl Model {
    fn invalidate(&mut self, addr: u32, size: u32) {
        let lo = addr.saturating_sub(3);
        let end = (u64::from(addr) + u64::from(size)).min(1 << 32);
        for k in u64::from(lo)..end {
            self.map.remove(&(k as u32));
        }
    }

    fn copy(&mut self, dst: u32, src: u32, len: u32) {
        let snap: Vec<Option<Shadow>> =
            (0..len).map(|k| self.map.get(&src.wrapping_add(k)).copied()).collect();
        for k in dst.saturating_sub(3)..dst {
            self.map.remove(&k);
        }
        for (k, s) in (0..len).zip(snap) {
            let a = dst.wrapping_add(k);
            match s {
                Some(s) => self.map.insert(a, s),
                None => self.map.remove(&a),
            };
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert { addr: u32, s: Shadow },
    Get { addr: u32 },
    Invalidate { addr: u32, size: u32 },
    Copy { dst: u32, src: u32, len: u32 },
}

/// Addresses that stress the table: page and leaf boundaries, both ends
/// of the address space, a hot region where entries pile up, and
/// anywhere at all. Unaligned keys come from the jitter.
fn gen_addr(rng: &mut Rng) -> u32 {
    let jitter = rng.range_u32(0, 16).wrapping_sub(8);
    match rng.range_u32(0, 7) {
        0 => (rng.range_u32(0, 8) * PAGE).wrapping_add(jitter),
        1 => (rng.range_u32(0, 4) << 22).wrapping_add(jitter),
        2 => 0xFFFF_FFF0 | rng.range_u32(0, 16),
        3 => rng.range_u32(0, 16),
        4 | 5 => 0x0500_0000 - PAGE + rng.range_u32(0, 2 * PAGE),
        _ => rng.next_u32(),
    }
}

/// Range lengths: scalar widths, a few words, and page-straddling spans.
fn gen_len(rng: &mut Rng) -> u32 {
    match rng.range_u32(0, 4) {
        0 => *rng.choose(&[0, 1, 2, 4]),
        1 => rng.range_u32(0, 64),
        2 => rng.range_u32(PAGE - 16, PAGE + 16),
        _ => rng.range_u32(0, 2 * PAGE + 16),
    }
}

fn gen_op(rng: &mut Rng) -> Op {
    match rng.range_u32(0, 10) {
        0..=3 => Op::Insert { addr: gen_addr(rng), s: rng.range_u32(0, 1 << 20) },
        4 | 5 => Op::Get { addr: gen_addr(rng) },
        6 | 7 => Op::Invalidate { addr: gen_addr(rng), size: gen_len(rng) },
        _ => Op::Copy { dst: gen_addr(rng), src: gen_addr(rng), len: gen_len(rng) },
    }
}

/// The addresses an operation can change, with a margin on each side.
fn touched(op: &Op) -> Vec<u32> {
    let span = |a: u32, len: u32| (0..len + 16).map(move |k| a.wrapping_sub(8).wrapping_add(k));
    match *op {
        Op::Insert { addr, .. } | Op::Get { addr } => span(addr, 0).collect(),
        Op::Invalidate { addr, size } => span(addr, size).collect(),
        Op::Copy { dst, src, len } => span(dst, len).chain(span(src, len)).collect(),
    }
}

/// Replay `ops` on both; after each, compare every key the model holds
/// or ever held and every address the operation could have changed.
fn replay(ops: &[Op]) -> Result<(), String> {
    let mut map = ShadowMap::new();
    let mut model = Model::default();
    let mut ever: BTreeSet<u32> = BTreeSet::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert { addr, s } => {
                map.insert(addr, s);
                model.map.insert(addr, s);
            }
            Op::Get { .. } => {}
            Op::Invalidate { addr, size } => {
                map.invalidate(addr, size);
                model.invalidate(addr, size);
            }
            Op::Copy { dst, src, len } => {
                map.copy(dst, src, len);
                model.copy(dst, src, len);
            }
        }
        ever.extend(model.map.keys());
        for a in ever.iter().copied().chain(touched(op)) {
            let (got, want) = (map.get(a), model.map.get(&a).copied());
            if got != want {
                return Err(format!(
                    "after op {i} ({op:?}): get({a:#x}) = {got:?}, model {want:?}"
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn shadow_map_matches_model() {
    check(
        "shadow_map_matches_model",
        &Config::cases(48),
        |rng| vec_of(rng, 1, 40, gen_op),
        |ops| shrink_vec(ops),
        |ops| replay(ops),
    );
}

/// A store that ends past the top of the address space must still drop
/// the entries it overwrites: the old key loop `addr - 3 .. addr + size`
/// wrapped to an empty range there and kept a stale pointer.
#[test]
fn store_at_top_of_address_space_drops_overlapped_entries() {
    let ops = [
        Op::Insert { addr: 0xFFFF_FFF8, s: 1 },
        Op::Insert { addr: 0xFFFF_FFFC, s: 2 },
        Op::Insert { addr: 0xFFFF_FFFE, s: 3 },
        Op::Invalidate { addr: 0xFFFF_FFFE, size: 4 },
    ];
    replay(&ops).unwrap();
    let mut map = ShadowMap::new();
    for op in &ops {
        match *op {
            Op::Insert { addr, s } => map.insert(addr, s),
            Op::Invalidate { addr, size } => map.invalidate(addr, size),
            _ => unreachable!(),
        }
    }
    assert_eq!(map.get(0xFFFF_FFF8), Some(1), "entries below the store survive");
    assert_eq!(map.get(0xFFFF_FFFC), None);
    assert_eq!(map.get(0xFFFF_FFFE), None);
}

/// Fixed cases at the edges: copies and invalidations across a page and
/// a leaf boundary, an overlapping copy in each direction, a copy that
/// wraps past 4 GiB, and a key at address 0.
#[test]
fn edge_cases_match_model() {
    let leaf = 1u32 << 22;
    let cases: Vec<Vec<Op>> = vec![
        vec![
            Op::Insert { addr: PAGE - 2, s: 5 },
            Op::Insert { addr: PAGE + 1, s: 6 },
            Op::Copy { dst: leaf - 3, src: PAGE - 4, len: 12 },
            Op::Invalidate { addr: leaf - 1, size: 2 },
        ],
        vec![
            Op::Insert { addr: 0x100, s: 1 },
            Op::Insert { addr: 0x104, s: 2 },
            Op::Copy { dst: 0x102, src: 0x100, len: 8 },
            Op::Copy { dst: 0x0FE, src: 0x102, len: 8 },
        ],
        vec![
            Op::Insert { addr: 0, s: 9 },
            Op::Insert { addr: 0xFFFF_FFFF, s: 8 },
            Op::Copy { dst: 0xFFFF_FFFE, src: 0xFFFF_FFFF, len: 4 },
            Op::Invalidate { addr: 0, size: 0 },
            Op::Invalidate { addr: 2, size: 1 },
        ],
        vec![
            Op::Insert { addr: 0x0500_0000 - 4, s: 7 },
            Op::Invalidate { addr: 0x0500_0000 - 4 - 2 * PAGE, size: 3 * PAGE },
        ],
    ];
    for ops in cases {
        replay(&ops).unwrap();
    }
}

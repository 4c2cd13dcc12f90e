//! `wyt_emu::Memory` against a reference model, and the resident-page
//! footprint of the SPEC-shaped programs.
//!
//! The reference keeps one `HashMap` entry per page and does every bulk
//! operation as a byte loop, which is the plainest statement of the
//! semantics both engines rely on: zero-initialized pages allocated on
//! first write, 32-bit wraparound, and a sticky page cap whose overflow
//! writes are dropped. The property test drives both with the same
//! random operations and compares every read, `resident_pages()` and
//! `cap_hit()` after each one.

use std::collections::HashMap;
use wyt_emu::{Machine, Memory, PAGE_SIZE};
use wyt_minicc::{compile, Profile};
use wyt_testkit::{check, shrink_vec, vec_of, Config, Rng};

struct RefMem {
    pages: HashMap<u32, Box<[u8; PAGE_SIZE as usize]>>,
    cap: usize,
    cap_hit: bool,
}

impl RefMem {
    fn new() -> RefMem {
        RefMem { pages: HashMap::new(), cap: wyt_emu::DEFAULT_PAGE_CAP, cap_hit: false }
    }

    fn read_u8(&self, a: u32) -> u8 {
        self.pages.get(&(a / PAGE_SIZE)).map_or(0, |p| p[(a % PAGE_SIZE) as usize])
    }

    fn write_u8(&mut self, a: u32, v: u8) {
        let key = a / PAGE_SIZE;
        if !self.pages.contains_key(&key) && self.pages.len() >= self.cap {
            self.cap_hit = true;
            return;
        }
        self.pages.entry(key).or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))
            [(a % PAGE_SIZE) as usize] = v;
    }

    fn read(&self, a: u32, len: u32) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(a.wrapping_add(i))).collect()
    }

    fn write(&mut self, a: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(a.wrapping_add(i as u32), b);
        }
    }

    fn cstr(&self, a: u32) -> Vec<u8> {
        (0..1u32 << 20).map(|i| self.read_u8(a.wrapping_add(i))).take_while(|&b| b != 0).collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// A little-endian store of width 1, 2, 4 or 8.
    Store {
        addr: u32,
        width: u32,
        value: u64,
    },
    /// A little-endian load of width 1, 2, 4 or 8.
    Load {
        addr: u32,
        width: u32,
    },
    WriteBytes {
        addr: u32,
        bytes: Vec<u8>,
    },
    ReadBytes {
        addr: u32,
        len: u32,
    },
    ReadCstr {
        addr: u32,
    },
    Fill {
        addr: u32,
        len: u32,
        value: u8,
    },
    CopyForward {
        dst: u32,
        src: u32,
        len: u32,
    },
    /// Set the page cap to the current resident count plus this many,
    /// so the next few allocations land right at the cap.
    CapAbove(usize),
    ResetCap,
}

/// Addresses that stress the table: page and leaf boundaries, the top of
/// the address space (wraparound), a few hot pages, and anywhere at all.
fn gen_addr(rng: &mut Rng) -> u32 {
    let jitter = rng.range_u32(0, 16).wrapping_sub(8);
    match rng.range_u32(0, 6) {
        0 => (rng.range_u32(0, 8) * PAGE_SIZE).wrapping_add(jitter),
        1 => (rng.range_u32(0, 4) << 22).wrapping_add(jitter),
        2 => 0xFFFF_FFF0 | rng.range_u32(0, 16),
        3 => 0x0010_0000 + rng.range_u32(0, 3 * PAGE_SIZE),
        _ => rng.next_u32(),
    }
}

fn gen_op(rng: &mut Rng) -> Op {
    match rng.range_u32(0, 16) {
        0..=4 => Op::Store {
            addr: gen_addr(rng),
            width: *rng.choose(&[1, 2, 4, 8]),
            value: rng.next_u64(),
        },
        5..=7 => Op::Load { addr: gen_addr(rng), width: *rng.choose(&[1, 2, 4, 8]) },
        8 => {
            let len = rng.range_usize(0, 2 * PAGE_SIZE as usize + 16);
            Op::WriteBytes {
                addr: gen_addr(rng),
                // Mostly non-zero, so C strings run across pages.
                bytes: (0..len).map(|_| rng.next_u8() | u8::from(rng.chance(0.99))).collect(),
            }
        }
        9 => Op::ReadBytes { addr: gen_addr(rng), len: rng.range_u32(0, 2 * PAGE_SIZE + 16) },
        10 => Op::ReadCstr { addr: gen_addr(rng) },
        11 => Op::Fill {
            addr: gen_addr(rng),
            len: rng.range_u32(0, 2 * PAGE_SIZE + 16),
            value: rng.next_u8(),
        },
        12 | 13 => {
            let src = gen_addr(rng);
            // Half the copies overlap the source, forwards or backwards.
            let dst = if rng.next_bool() {
                src.wrapping_add(rng.range_u32(0, 64)).wrapping_sub(32)
            } else {
                gen_addr(rng)
            };
            Op::CopyForward { dst, src, len: rng.range_u32(0, PAGE_SIZE + 64) }
        }
        14 => Op::CapAbove(rng.range_usize(0, 3)),
        _ => Op::ResetCap,
    }
}

fn load(m: &Memory, addr: u32, width: u32) -> u64 {
    match width {
        1 => m.read_u8(addr) as u64,
        2 => m.read_u16(addr) as u64,
        4 => m.read_u32(addr) as u64,
        _ => m.read_u64(addr),
    }
}

fn store(m: &mut Memory, addr: u32, width: u32, v: u64) {
    match width {
        1 => m.write_u8(addr, v as u8),
        2 => m.write_u16(addr, v as u16),
        4 => m.write_u32(addr, v as u32),
        _ => m.write_u64(addr, v),
    }
}

fn le(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |acc, &b| acc << 8 | b as u64)
}

fn run_ops(ops: &[Op]) -> Result<(), String> {
    let mut m = Memory::new();
    let mut r = RefMem::new();
    for (i, op) in ops.iter().enumerate() {
        let (got, want): (Vec<u8>, Vec<u8>) = match op {
            Op::Store { addr, width, value } => {
                store(&mut m, *addr, *width, *value);
                r.write(*addr, &value.to_le_bytes()[..*width as usize]);
                (vec![], vec![])
            }
            Op::Load { addr, width } => {
                let got = load(&m, *addr, *width);
                (got.to_le_bytes().to_vec(), le(&r.read(*addr, *width)).to_le_bytes().to_vec())
            }
            Op::WriteBytes { addr, bytes } => {
                m.write_bytes(*addr, bytes);
                r.write(*addr, bytes);
                (vec![], vec![])
            }
            Op::ReadBytes { addr, len } => (m.read_bytes(*addr, *len), r.read(*addr, *len)),
            Op::ReadCstr { addr } => (m.read_cstr(*addr), r.cstr(*addr)),
            Op::Fill { addr, len, value } => {
                m.fill(*addr, *len, *value);
                r.write(*addr, &vec![*value; *len as usize]);
                (vec![], vec![])
            }
            Op::CopyForward { dst, src, len } => {
                m.copy_forward(*dst, *src, *len);
                for k in 0..*len {
                    let b = r.read_u8(src.wrapping_add(k));
                    r.write_u8(dst.wrapping_add(k), b);
                }
                (vec![], vec![])
            }
            Op::CapAbove(n) => {
                m.set_page_cap(m.resident_pages() + n);
                r.cap = r.pages.len() + n;
                (vec![], vec![])
            }
            Op::ResetCap => {
                m.set_page_cap(wyt_emu::DEFAULT_PAGE_CAP);
                r.cap = wyt_emu::DEFAULT_PAGE_CAP;
                (vec![], vec![])
            }
        };
        if got != want {
            return Err(format!("op {i} {op:?}: read {got:x?}, reference {want:x?}"));
        }
        let state = (m.resident_pages(), m.cap_hit());
        if state != (r.pages.len(), r.cap_hit) {
            return Err(format!(
                "op {i} {op:?}: (resident, cap_hit) = {state:?}, reference {:?}",
                (r.pages.len(), r.cap_hit)
            ));
        }
    }
    // Every page the reference holds reads back identically.
    for (&key, page) in &r.pages {
        if m.read_bytes(key * PAGE_SIZE, PAGE_SIZE) != page.as_slice() {
            return Err(format!("page {key:#x} differs at the end"));
        }
    }
    Ok(())
}

#[test]
fn memory_matches_reference_model() {
    check(
        "memory_matches_reference_model",
        &Config::cases(256),
        |rng| vec_of(rng, 1, 48, gen_op),
        |ops| shrink_vec(ops),
        |ops| run_ops(ops),
    );
}

#[test]
fn page_cap_drops_bulk_writes_page_by_page() {
    // A bulk write across the cap allocates the pages it may, in address
    // order, and drops the rest; pages already resident still take
    // their bytes.
    let mut m = Memory::new();
    m.write_u8(3 * PAGE_SIZE, 1);
    m.set_page_cap(2);
    m.fill(PAGE_SIZE - 4, 3 * PAGE_SIZE + 8, 0xaa);
    assert!(m.cap_hit());
    assert_eq!(m.resident_pages(), 2);
    assert_eq!(m.read_u32(PAGE_SIZE - 4), 0xaaaa_aaaa);
    assert_eq!(m.read_u8(PAGE_SIZE), 0);
    assert_eq!(m.read_u8(2 * PAGE_SIZE), 0);
    assert_eq!(m.read_u8(3 * PAGE_SIZE), 0xaa);

    // A straddling store at the cap keeps its low page and drops the
    // high one, as two byte stores in address order would.
    let mut m = Memory::new();
    m.set_page_cap(1);
    m.write_u32(PAGE_SIZE - 2, 0x1122_3344);
    assert!(m.cap_hit());
    assert_eq!(m.resident_pages(), 1);
    assert_eq!(m.read_u32(PAGE_SIZE - 2), 0x3344);
}

/// Resident pages, retired instructions and cycles of each store-warm
/// program (GCC 12 -O3, stripped) run natively on its first trace input.
/// Values recorded with the hash-map page store this table replaced: the
/// table must allocate exactly the pages the map did.
const FOOTPRINTS: [(&str, usize, u64, u64); 6] = [
    ("bzip2", 26, 344704, 518732),
    ("gcc", 8, 38629, 74555),
    ("mcf", 4, 1145778, 2440795),
    ("gobmk", 2, 300392, 514129),
    ("libquantum", 2, 44109, 82041),
    ("xalancbmk", 4, 178395, 377823),
];

#[test]
fn spec_footprints_are_pinned() {
    for (name, pages, retired, cycles) in FOOTPRINTS {
        let bench = wyt_spec::by_name(name).expect("known benchmark");
        let img = compile(bench.source, &Profile::gcc12_o3()).expect("compile").stripped();
        let input = bench.trace_inputs().swap_remove(0);
        let mut m = Machine::new(&img, input);
        let res = m.run();
        assert!(res.ok(), "{name}: {:?}", res.trap);
        let got = (m.mem.resident_pages(), res.inst_count, res.cycles);
        assert_eq!(got, (pages, retired, cycles), "{name}");
    }
}

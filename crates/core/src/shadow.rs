//! Shadow state shared by the dynamic analyses (DESIGN §18).
//!
//! Both tracing runtimes — the saved-register analysis ([`crate::regsave`],
//! §4.1) and the object-bounds runtime ([`crate::runtime`], §4.2) — keep
//! the same two pieces of per-replay state on their hot path:
//!
//! - an **address map** from guest addresses to the shadow of a 4-byte
//!   value spilled there (a register token, a `PointerInfo`), which every
//!   store invalidates and the `Clear`/`Copy` external effects (§5.3)
//!   clear and move in bulk: [`ShadowMap`];
//! - a **frame liveness** set that answers "is the frame with this serial
//!   still on the stack?" for every shadow the runtimes look at:
//!   `LiveFrames`.

use wyt_ir::interp::Shadow;

const PAGE_BITS: u32 = 12;
/// Shadow slots per page: one per guest byte address.
const PAGE_SLOTS: usize = 1 << PAGE_BITS;
const LEAF_BITS: u32 = 10;
const DIR_BITS: u32 = 32 - PAGE_BITS - LEAF_BITS;

/// A page of slots. A slot holds `shadow + 1`; 0 is empty, so a fresh
/// page is all zeroes.
type Page = [u32; PAGE_SLOTS];
type Leaf = [Option<Box<Page>>; 1 << LEAF_BITS];

/// The directory and leaf indices of the page holding `addr`, and the
/// slot within it.
fn split(addr: u32) -> (usize, usize, usize) {
    (
        (addr >> (PAGE_BITS + LEAF_BITS)) as usize,
        ((addr >> PAGE_BITS) & ((1 << LEAF_BITS) - 1)) as usize,
        (addr & (PAGE_SLOTS as u32 - 1)) as usize,
    )
}

/// Split `[addr, addr + len)` (wrapping at 4 GiB) into page-bounded
/// chunks in ascending order: `(chunk start, chunk length, slots already
/// covered)`.
fn chunks(addr: u32, len: u64) -> impl Iterator<Item = (u32, usize, u64)> {
    let mut done = 0u64;
    std::iter::from_fn(move || {
        if done >= len {
            return None;
        }
        let a = addr.wrapping_add(done as u32);
        let room = PAGE_SLOTS as u64 - u64::from(a & (PAGE_SLOTS as u32 - 1));
        let n = room.min(len - done);
        let item = (a, n as usize, done);
        done += n;
        Some(item)
    })
}

/// A per-byte shadow of the 32-bit address space: the key of an entry is
/// the address of the 4-byte value it describes.
///
/// Shaped like `wyt_emu::Memory` (DESIGN §17): a 1024-entry directory of
/// lazily allocated 1024-entry leaves of 4096-slot pages. A lookup is two
/// indexed loads; a page is allocated only when an entry is written into
/// it, so the table holds a page per 4 KiB of memory that ever held a
/// tracked value. Range operations work on page-sized slices.
#[derive(Debug, Clone)]
pub struct ShadowMap {
    dir: Box<[Option<Box<Leaf>>; 1 << DIR_BITS]>,
}

impl Default for ShadowMap {
    fn default() -> ShadowMap {
        ShadowMap { dir: Box::new([const { None }; 1 << DIR_BITS]) }
    }
}

impl ShadowMap {
    /// An empty map.
    pub fn new() -> ShadowMap {
        ShadowMap::default()
    }

    fn page(&self, addr: u32) -> Option<&Page> {
        let (d, l, _) = split(addr);
        self.dir[d].as_ref()?[l].as_deref()
    }

    fn page_mut(&mut self, addr: u32) -> Option<&mut Page> {
        let (d, l, _) = split(addr);
        self.dir[d].as_mut()?[l].as_deref_mut()
    }

    /// The page holding `addr`, allocated on first write.
    fn page_alloc(&mut self, addr: u32) -> &mut Page {
        let (d, l, _) = split(addr);
        self.dir[d].get_or_insert_with(|| Box::new([const { None }; 1 << LEAF_BITS]))[l]
            .get_or_insert_with(|| Box::new([0; PAGE_SLOTS]))
    }

    /// The entry keyed at `addr`.
    pub fn get(&self, addr: u32) -> Option<Shadow> {
        let slot = self.page(addr)?[split(addr).2];
        slot.checked_sub(1)
    }

    /// Key `s` at `addr`, replacing any entry there.
    pub fn insert(&mut self, addr: u32, s: Shadow) {
        // INVARIANT: the runtimes' shadow ids are bounded by the
        // interpreter's fuel (one `PointerInfo` per step at most, ten
        // register tokens per frame of at least two steps), so they stay
        // below `Shadow::MAX`.
        debug_assert!(s != Shadow::MAX, "shadow id space exhausted");
        self.page_alloc(addr)[split(addr).2] = s.wrapping_add(1);
    }

    /// Drop every entry keyed in `[addr, addr + len)`, wrapping at 4 GiB.
    fn clear(&mut self, addr: u32, len: u64) {
        for (a, n, _) in chunks(addr, len) {
            if let Some(p) = self.page_mut(a) {
                let o = split(a).2;
                p[o..o + n].fill(0);
            }
        }
    }

    /// A write of `size` bytes at `addr` happened: drop every 4-byte
    /// entry it overlaps, i.e. the keys in `[addr - 3, addr + size)`.
    /// Both ends saturate at the ends of the address space.
    pub fn invalidate(&mut self, addr: u32, size: u32) {
        let lo = addr.saturating_sub(3);
        let end = (u64::from(addr) + u64::from(size)).min(1 << 32);
        self.clear(lo, end - u64::from(lo));
    }

    /// `len` bytes were copied from `src` to `dst` (as by `memmove`):
    /// the entries keyed in `[dst, dst + len)` become those keyed in
    /// `[src, src + len)` before the copy, both ranges wrapping at 4 GiB,
    /// and the entries keyed in `[dst - 3, dst)`, which overlap the
    /// destination, are dropped.
    pub fn copy(&mut self, dst: u32, src: u32, len: u32) {
        // Read the whole source first: the ranges may overlap. Absent
        // source pages stay absent in the snapshot, so its size is
        // bounded by the resident pages, not by `len`.
        let pieces: Vec<(u64, usize, Option<Vec<u32>>)> = chunks(src, u64::from(len))
            .map(|(a, n, done)| {
                let o = split(a).2;
                (done, n, self.page(a).map(|p| p[o..o + n].to_vec()))
            })
            .collect();
        let lo = dst.saturating_sub(3);
        self.clear(lo, u64::from(dst - lo));
        for (done, n, slots) in pieces {
            let to = dst.wrapping_add(done as u32);
            let Some(slots) = slots else {
                self.clear(to, n as u64);
                continue;
            };
            for (a, m, at) in chunks(to, n as u64) {
                let part = &slots[at as usize..at as usize + m];
                let o = split(a).2;
                if part.iter().all(|&x| x == 0) {
                    if let Some(p) = self.page_mut(a) {
                        p[o..o + m].fill(0);
                    }
                } else {
                    self.page_alloc(a)[o..o + m].copy_from_slice(part);
                }
            }
        }
    }
}

/// Liveness of frame serials.
///
/// Serials are handed out in increasing order and frames exit in LIFO
/// order, so liveness is one bit per serial ever issued and a check is
/// one indexed load.
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveFrames {
    bits: Vec<u64>,
    next: u32,
}

impl LiveFrames {
    /// No frames yet.
    pub fn new() -> LiveFrames {
        LiveFrames::default()
    }

    /// Issue the next serial and mark it live.
    pub fn enter(&mut self) -> u32 {
        let s = self.next;
        self.next += 1;
        let w = (s >> 6) as usize;
        if w == self.bits.len() {
            self.bits.push(0);
        }
        self.bits[w] |= 1 << (s & 63);
        s
    }

    /// The frame with serial `s` exited.
    pub fn exit(&mut self, s: u32) {
        if let Some(w) = self.bits.get_mut((s >> 6) as usize) {
            *w &= !(1 << (s & 63));
        }
    }

    /// `true` while the frame with serial `s` is on the stack.
    pub fn is_live(&self, s: u32) -> bool {
        self.bits.get((s >> 6) as usize).is_some_and(|w| w >> (s & 63) & 1 != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_invalidate() {
        let mut m = ShadowMap::new();
        assert_eq!(m.get(0x1000), None);
        m.insert(0x1000, 0);
        m.insert(0x1008, 7);
        assert_eq!(m.get(0x1000), Some(0));
        assert_eq!(m.get(0x1008), Some(7));
        // A byte store at 0x100b overlaps the word keyed at 0x1008.
        m.invalidate(0x100b, 1);
        assert_eq!(m.get(0x1008), None);
        assert_eq!(m.get(0x1000), Some(0));
        // A store just past the word keyed at 0x1000 leaves it alone.
        m.invalidate(0x1004, 4);
        assert_eq!(m.get(0x1000), Some(0));
    }

    #[test]
    fn store_at_top_of_address_space_invalidates() {
        let mut m = ShadowMap::new();
        m.insert(0xFFFF_FFFC, 3);
        m.insert(0xFFFF_FFFE, 4);
        m.invalidate(0xFFFF_FFFE, 4);
        assert_eq!(m.get(0xFFFF_FFFC), None);
        assert_eq!(m.get(0xFFFF_FFFE), None);
    }

    #[test]
    fn live_frames_follow_lifo_exits() {
        let mut l = LiveFrames::new();
        let a = l.enter();
        let b = l.enter();
        assert!(l.is_live(a) && l.is_live(b));
        l.exit(b);
        assert!(l.is_live(a) && !l.is_live(b));
        let c = l.enter();
        assert_ne!(b, c);
        assert!(l.is_live(c) && !l.is_live(99));
    }
}

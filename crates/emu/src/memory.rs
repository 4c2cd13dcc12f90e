//! Sparse paged memory for the emulated 32-bit address space.

const PAGE_BITS: u32 = 12;
/// Page size in bytes.
pub const PAGE_SIZE: u32 = 1 << PAGE_BITS;
/// Address bits that index a leaf of the page table.
const LEAF_BITS: u32 = 10;
/// Address bits that index the directory: the rest of the 32.
const DIR_BITS: u32 = 32 - PAGE_BITS - LEAF_BITS;

type Page = [u8; PAGE_SIZE as usize];
type Leaf = [Option<Box<Page>>; 1 << LEAF_BITS];

fn new_page() -> Box<Page> {
    Box::new([0u8; PAGE_SIZE as usize])
}

/// The directory and leaf indices of the page holding `addr`.
fn split(addr: u32) -> (usize, usize) {
    (
        (addr >> (PAGE_BITS + LEAF_BITS)) as usize,
        ((addr >> PAGE_BITS) & ((1 << LEAF_BITS) - 1)) as usize,
    )
}

/// A sparse, zero-initialized 32-bit address space.
///
/// Pages are allocated on first touch; untouched memory reads as zero.
/// Both the machine emulator and the IR interpreter execute against this
/// type, so a lifted program literally shares the address-space model of
/// the binary it was lifted from (the paper's Fig. 1 process image).
///
/// The page table is a direct two-level table: a 1024-entry directory of
/// lazily allocated 1024-entry leaves of 4 KiB pages. A load is two
/// indexed loads and no hashing; a store walks the table once.
#[derive(Debug, Clone)]
pub struct Memory {
    dir: Box<[Option<Box<Leaf>>; 1 << DIR_BITS]>,
    /// Allocated pages (not leaves).
    resident: usize,
    /// Maximum resident pages before writes are discarded and
    /// [`Memory::cap_hit`] latches. A hostile program sweeping the 4 GiB
    /// address space would otherwise allocate a page per write.
    page_cap: usize,
    /// Sticky flag: a write needed a new page beyond `page_cap`. The
    /// write went to a scratch page (so every access stays infallible);
    /// the machine checks this each step and raises a typed trap.
    cap_hit: bool,
    /// Overflow scratch page, lazily allocated on the first over-cap
    /// write. Never read back through `page`.
    scratch: Option<Box<Page>>,
}

/// Default resident-page ceiling: 64 Ki pages = 256 MiB, far above any
/// legitimate in-tree workload but small enough that a hostile image
/// cannot exhaust host memory.
pub const DEFAULT_PAGE_CAP: usize = 1 << 16;

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            dir: Box::new([const { None }; 1 << DIR_BITS]),
            resident: 0,
            page_cap: DEFAULT_PAGE_CAP,
            cap_hit: false,
            scratch: None,
        }
    }
}

impl Memory {
    /// An empty (all-zero) address space.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Lower (or raise) the resident-page ceiling. Existing pages stay.
    pub fn set_page_cap(&mut self, pages: usize) {
        self.page_cap = pages;
    }

    /// `true` once a write has been dropped because the address space
    /// exceeded the page cap. Sticky.
    pub fn cap_hit(&self) -> bool {
        self.cap_hit
    }

    /// Number of currently resident (allocated) pages.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Bytes beyond which any bulk operation is guaranteed to blow the
    /// page cap; callers clamp their loops to this to bound time as
    /// well as space.
    pub fn cap_bytes(&self) -> u64 {
        (self.page_cap as u64 + 2) << PAGE_BITS
    }

    fn page(&self, addr: u32) -> Option<&Page> {
        let (d, l) = split(addr);
        self.dir[d].as_ref()?[l].as_deref()
    }

    /// The page holding `addr`, allocated on first touch. Over the cap
    /// the flag latches and the scratch page absorbs the write, so
    /// callers never observe a fault here.
    fn page_mut(&mut self, addr: u32) -> &mut Page {
        let (d, l) = split(addr);
        let Memory { dir, resident, page_cap, cap_hit, scratch } = self;
        let leaf = &mut dir[d];
        let missing = leaf.as_ref().is_none_or(|leaf| leaf[l].is_none());
        if missing && *resident >= *page_cap {
            *cap_hit = true;
            return scratch.get_or_insert_with(new_page);
        }
        *resident += usize::from(missing);
        leaf.get_or_insert_with(|| Box::new([const { None }; 1 << LEAF_BITS]))[l]
            .get_or_insert_with(new_page)
    }

    /// Split `[addr, addr + len)` (wrapping at 4 GiB) into page-bounded
    /// chunks in ascending address order: `(chunk start, page offset,
    /// chunk length, bytes already covered)`.
    fn chunks(addr: u32, len: usize) -> impl Iterator<Item = (u32, usize, usize, usize)> {
        let mut done = 0usize;
        std::iter::from_fn(move || {
            if done >= len {
                return None;
            }
            let a = addr.wrapping_add(done as u32);
            let off = (a & (PAGE_SIZE - 1)) as usize;
            let n = (PAGE_SIZE as usize - off).min(len - done);
            let item = (a, off, n, done);
            done += n;
            Some(item)
        })
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & (PAGE_SIZE - 1)) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        self.page_mut(addr)[(addr & (PAGE_SIZE - 1)) as usize] = v;
    }

    /// Read `N` bytes at `addr`: one table walk when they sit in one
    /// page, a byte loop (wrapping) when they straddle two.
    fn load<const N: usize>(&self, addr: u32) -> [u8; N] {
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        let mut out = [0u8; N];
        if off + N <= PAGE_SIZE as usize {
            if let Some(p) = self.page(addr) {
                out.copy_from_slice(&p[off..off + N]);
            }
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32));
            }
        }
        out
    }

    /// Write `bytes` at `addr`, allocating pages in address order.
    fn store<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        if off + N <= PAGE_SIZE as usize {
            self.page_mut(addr)[off..off + N].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.into_iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), b);
            }
        }
    }

    /// Read a little-endian 16-bit value.
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.load(addr))
    }

    /// Write a little-endian 16-bit value.
    pub fn write_u16(&mut self, addr: u32, v: u16) {
        self.store(addr, v.to_le_bytes());
    }

    /// Read a little-endian 32-bit value.
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.load(addr))
    }

    /// Write a little-endian 32-bit value.
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        self.store(addr, v.to_le_bytes());
    }

    /// Read a little-endian 64-bit value (the `vmov` register width).
    pub fn read_u64(&self, addr: u32) -> u64 {
        u64::from_le_bytes(self.load(addr))
    }

    /// Write a little-endian 64-bit value.
    pub fn write_u64(&mut self, addr: u32, v: u64) {
        self.store(addr, v.to_le_bytes());
    }

    /// Read a sized value (1, 2 or 4 bytes), zero-extended.
    pub fn read_sized(&self, addr: u32, size: wyt_isa::Size) -> u32 {
        match size {
            wyt_isa::Size::B => self.read_u8(addr) as u32,
            wyt_isa::Size::W => self.read_u16(addr) as u32,
            wyt_isa::Size::D => self.read_u32(addr),
        }
    }

    /// Write the low `size` bytes of `v`.
    pub fn write_sized(&mut self, addr: u32, v: u32, size: wyt_isa::Size) {
        match size {
            wyt_isa::Size::B => self.write_u8(addr, v as u8),
            wyt_isa::Size::W => self.write_u16(addr, v as u16),
            wyt_isa::Size::D => self.write_u32(addr, v),
        }
    }

    /// Copy `bytes` into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        for (a, off, n, done) in Memory::chunks(addr, bytes.len()) {
            self.page_mut(a)[off..off + n].copy_from_slice(&bytes[done..done + n]);
        }
    }

    /// Set `len` bytes starting at `addr` to `v`.
    pub fn fill(&mut self, addr: u32, len: u32, v: u8) {
        for (a, off, n, _) in Memory::chunks(addr, len as usize) {
            self.page_mut(a)[off..off + n].fill(v);
        }
    }

    /// Copy `len` bytes from `src` to `dst` with the semantics of a
    /// forward byte-at-a-time loop: where `dst` lies inside
    /// `(src, src + len)` the copy reads bytes it has already written,
    /// repeating the first `dst - src` bytes, exactly as that loop does.
    pub fn copy_forward(&mut self, dst: u32, src: u32, len: u32) {
        let dist = dst.wrapping_sub(src);
        if dist != 0 && dist < len {
            for i in 0..len {
                let b = self.read_u8(src.wrapping_add(i));
                self.write_u8(dst.wrapping_add(i), b);
            }
        } else {
            // No byte is read after a write could have reached it, so a
            // buffered copy is the same loop.
            let bytes = self.read_bytes(src, len);
            self.write_bytes(dst, &bytes);
        }
    }

    /// Read `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(len as usize);
        for (a, off, n, _) in Memory::chunks(addr, len as usize) {
            match self.page(a) {
                Some(p) => out.extend_from_slice(&p[off..off + n]),
                None => out.resize(out.len() + n, 0),
            }
        }
        out
    }

    /// Read a NUL-terminated C string (capped at 1 MiB to bound runaway
    /// reads of unterminated data).
    pub fn read_cstr(&self, addr: u32) -> Vec<u8> {
        let mut out = Vec::new();
        for (a, off, n, _) in Memory::chunks(addr, 1 << 20) {
            let Some(p) = self.page(a) else { break };
            let run = &p[off..off + n];
            match run.iter().position(|&b| b == 0) {
                Some(end) => {
                    out.extend_from_slice(&run[..end]);
                    break;
                }
                None => out.extend_from_slice(run),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_isa::Size;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xdead_beef), 0);
    }

    #[test]
    fn roundtrip_all_widths() {
        let mut m = Memory::new();
        m.write_u8(10, 0xab);
        m.write_u16(20, 0xbeef);
        m.write_u32(30, 0xdead_beef);
        m.write_u64(40, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u16(20), 0xbeef);
        assert_eq!(m.read_u32(30), 0xdead_beef);
        assert_eq!(m.read_u64(40), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn page_boundary_crossing() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 2;
        m.write_u32(addr, 0x1122_3344);
        assert_eq!(m.read_u32(addr), 0x1122_3344);
        assert_eq!(m.read_u16(addr), 0x3344);
        assert_eq!(m.read_u16(addr + 2), 0x1122);
    }

    #[test]
    fn sized_access_masks() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0xffff_ffff);
        m.write_sized(0x100, 0x12, Size::B);
        assert_eq!(m.read_u32(0x100), 0xffff_ff12);
        assert_eq!(m.read_sized(0x100, Size::W), 0xff12);
    }

    #[test]
    fn page_cap_latches_instead_of_allocating() {
        let mut m = Memory::new();
        m.set_page_cap(2);
        m.write_u8(0, 1);
        m.write_u8(PAGE_SIZE, 2);
        assert!(!m.cap_hit());
        assert_eq!(m.resident_pages(), 2);
        // Third page: the write is absorbed, the flag latches, nothing
        // new is resident.
        m.write_u8(PAGE_SIZE * 2, 3);
        assert!(m.cap_hit());
        assert_eq!(m.resident_pages(), 2);
        // Earlier pages still read back; the dropped write reads zero.
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(PAGE_SIZE * 2), 0);
        // Writes to already-resident pages still land.
        m.write_u8(1, 9);
        assert_eq!(m.read_u8(1), 9);
    }

    #[test]
    fn cstr_reads_until_nul() {
        let mut m = Memory::new();
        m.write_bytes(0x200, b"hello\0world");
        assert_eq!(m.read_cstr(0x200), b"hello");
        assert_eq!(m.read_cstr(0x206), b"world");
    }
}

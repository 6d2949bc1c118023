//! Memory spaces and cache models.

use std::collections::HashMap;

const PAGE_SIZE: u64 = 4096;

/// Paged device (global) memory.
///
/// Reads of unwritten memory return zero, like freshly `cudaMalloc`ed and
/// zeroed buffers; kernels allocate regions through [`GlobalMem::alloc`].
#[derive(Debug, Default, Clone)]
pub struct GlobalMem {
    pages: HashMap<u64, Box<[u8]>>,
    brk: u64,
}

impl GlobalMem {
    /// Creates an empty memory with the allocator starting at a non-zero
    /// base (so that address 0 stays an obvious "null").
    pub fn new() -> Self {
        GlobalMem { pages: HashMap::new(), brk: 0x10_0000 }
    }

    /// Bump-allocates `size` bytes, 256-byte aligned (like `cudaMalloc`).
    pub fn alloc(&mut self, size: u64) -> u64 {
        let addr = self.brk;
        self.brk = (self.brk + size + 255) & !255;
        addr
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8] {
        self.pages
            .entry(addr / PAGE_SIZE)
            .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice())
    }

    /// Reads the `N`-byte little-endian word at `addr` (see
    /// [`GlobalReader::read`]; a fresh cursor costs nothing).
    #[inline]
    pub fn read<const N: usize>(&self, addr: u64) -> [u8; N] {
        self.reader().read(addr)
    }

    /// Writes an `N`-byte little-endian word. A word that lies within one
    /// page resolves the page once; one that straddles a page goes byte
    /// by byte, each address wrapping at the top of the address space.
    pub fn write<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let off = (addr % PAGE_SIZE) as usize;
        if off + N <= PAGE_SIZE as usize {
            self.page_mut(addr)[off..off + N].copy_from_slice(&bytes);
            return;
        }
        for (i, b) in bytes.into_iter().enumerate() {
            self.write(addr.wrapping_add(i as u64), [b]);
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read::<1>(addr)[0]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.write(addr, [v]);
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write(addr, v.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, v.to_le_bytes());
    }

    /// Writes a batch of `N`-byte little-endian words in order — the
    /// warp-wide store path. Words are committed page-run at a time (32
    /// lanes usually span one or two pages, so per-lane hashing is
    /// wasted), with page-straddling words falling back to
    /// [`GlobalMem::write`] in place so write order — and thus
    /// same-address last-lane-wins semantics — is preserved.
    pub fn write_batch<const N: usize>(&mut self, items: &[(u64, [u8; N])]) {
        let in_page = |addr: u64| (addr % PAGE_SIZE) as usize + N <= PAGE_SIZE as usize;
        let mut i = 0;
        while i < items.len() {
            let (addr, bytes) = items[i];
            if !in_page(addr) {
                self.write(addr, bytes);
                i += 1;
                continue;
            }
            let id = addr / PAGE_SIZE;
            let run = items[i..].iter().take_while(|(a, _)| a / PAGE_SIZE == id && in_page(*a));
            let end = i + run.count();
            let page = self.page_mut(addr);
            for (a, bytes) in &items[i..end] {
                let o = (a % PAGE_SIZE) as usize;
                page[o..o + N].copy_from_slice(bytes);
            }
            i = end;
        }
    }

    /// Copies a byte slice into memory, one page lookup per page touched.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr % PAGE_SIZE) as usize;
            let (run, rest) = bytes.split_at(bytes.len().min(PAGE_SIZE as usize - off));
            self.page_mut(addr)[off..off + run.len()].copy_from_slice(run);
            addr += run.len() as u64;
            bytes = rest;
        }
    }

    /// Reads `len` bytes, one page lookup per page touched (unwritten
    /// pages read zero).
    pub fn read_bytes(&self, mut addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let mut rest = &mut out[..];
        while !rest.is_empty() {
            let off = (addr % PAGE_SIZE) as usize;
            let (run, tail) = rest.split_at_mut(rest.len().min(PAGE_SIZE as usize - off));
            if let Some(page) = self.pages.get(&(addr / PAGE_SIZE)) {
                run.copy_from_slice(&page[off..off + run.len()]);
            }
            addr += run.len() as u64;
            rest = tail;
        }
        out
    }

    /// A read cursor that memoizes the last page lookup — the warp-wide
    /// load path.
    pub fn reader(&self) -> GlobalReader<'_> {
        GlobalReader { mem: self, page_id: u64::MAX, page: None }
    }
}

/// Memoizing read cursor over [`GlobalMem`]: consecutive lane addresses
/// usually share a page, so the page hash is resolved once per run.
pub struct GlobalReader<'a> {
    mem: &'a GlobalMem,
    page_id: u64,
    page: Option<&'a [u8]>,
}

impl GlobalReader<'_> {
    #[inline]
    fn page_for(&mut self, addr: u64) -> Option<&[u8]> {
        let id = addr / PAGE_SIZE;
        if id != self.page_id {
            self.page_id = id;
            self.page = self.mem.pages.get(&id).map(|p| &p[..]);
        }
        self.page
    }

    /// Reads the `N`-byte little-endian word at `addr`; unwritten memory
    /// reads zero. The simulator issues these for every lane of every
    /// load, so the common case — the word lies within one page —
    /// resolves the page once instead of hashing per byte. A word that
    /// straddles a page is read byte by byte, each address wrapping at
    /// the top of the address space.
    #[inline]
    pub fn read<const N: usize>(&mut self, addr: u64) -> [u8; N] {
        let off = (addr % PAGE_SIZE) as usize;
        if off + N <= PAGE_SIZE as usize {
            return self
                .page_for(addr)
                .map_or([0; N], |p| p[off..off + N].try_into().expect("N-byte slice"));
        }
        std::array::from_fn(|i| self.read::<1>(addr.wrapping_add(i as u64))[0])
    }
}

/// A direct-mapped cache model keyed by line address; deterministic and
/// cheap, used for the device L2, the per-SM instruction cache and the
/// hierarchy's L1. A line size is a power of two (a launch is rejected
/// otherwise), so the line of an address is a shift; the set count need
/// not be — 12 KiB of 256-byte lines are 48 sets — and stays a modulo.
#[derive(Debug, Clone)]
pub struct DirectCache {
    tags: Vec<u64>,
    line_shift: u32,
    hits: u64,
    misses: u64,
}

impl DirectCache {
    /// A cache of `size` bytes with `line`-byte lines (at least one).
    ///
    /// # Panics
    ///
    /// If `line` is not a power of two.
    pub fn new(size: u32, line: u32) -> Self {
        assert!(line.is_power_of_two(), "a {line}-byte cache line is not a power of two");
        let sets = (size / line).max(1) as usize;
        DirectCache { tags: vec![u64::MAX; sets], line_shift: line.ilog2(), hits: 0, misses: 0 }
    }

    /// Where `addr` lives: its set, and the line address the set's tag
    /// must equal for a hit. A function of the geometry alone, so a
    /// caller that probes few distinct addresses can compute it ahead.
    pub fn slot(&self, addr: u64) -> (u32, u64) {
        let line_addr = addr >> self.line_shift;
        ((line_addr % self.tags.len() as u64) as u32, line_addr)
    }

    /// Accesses `addr`; returns whether it hit, filling the line on a miss.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_slot(self.slot(addr))
    }

    /// [`DirectCache::access`] of an address whose [`DirectCache::slot`]
    /// (in a cache of this geometry) is already known.
    pub fn access_slot(&mut self, (set, line_addr): (u32, u64)) -> bool {
        let tag = &mut self.tags[set as usize];
        if *tag == line_addr {
            self.hits += 1;
            true
        } else {
            *tag = line_addr;
            self.misses += 1;
            false
        }
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Constant banks (bank 0 holds kernel parameters, bank 1 user data).
#[derive(Debug, Clone, Default)]
pub struct ConstMem {
    banks: Vec<Vec<u8>>,
}

impl ConstMem {
    /// Creates empty banks.
    pub fn new() -> Self {
        ConstMem { banks: vec![Vec::new(); 4] }
    }

    /// Replaces the contents of a bank.
    pub fn set_bank(&mut self, bank: u8, data: Vec<u8>) {
        let b = bank as usize;
        if self.banks.len() <= b {
            self.banks.resize(b + 1, Vec::new());
        }
        self.banks[b] = data;
    }

    /// Reads a `u32` from a bank (zero beyond the end).
    pub fn read_u32(&self, bank: u8, offset: u32) -> u32 {
        let Some(b) = self.banks.get(bank as usize) else { return 0 };
        let o = offset as usize;
        let mut bytes = [0u8; 4];
        for (i, byte) in bytes.iter_mut().enumerate() {
            *byte = b.get(o + i).copied().unwrap_or(0);
        }
        u32::from_le_bytes(bytes)
    }

    /// Reads a `u64` from a bank; the upper word's offset wraps.
    pub fn read_u64(&self, bank: u8, offset: u32) -> u64 {
        let hi = self.read_u32(bank, offset.wrapping_add(4));
        (self.read_u32(bank, offset) as u64) | ((hi as u64) << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_rw_roundtrip() {
        let mut m = GlobalMem::new();
        let a = m.alloc(1024);
        assert_eq!(a % 256, 0);
        m.write_u32(a, 0xdeadbeef);
        assert_eq!(m.read_u32(a), 0xdeadbeef);
        // Cross-page access.
        let edge = a + PAGE_SIZE - 2;
        m.write_u32(edge, 0x11223344);
        assert_eq!(m.read_u32(edge), 0x11223344);
        // Unwritten memory reads zero.
        assert_eq!(m.read_u32(0x9999_0000), 0);
    }

    /// The page-run copies against the per-byte paths they replaced: an
    /// empty slice, an unaligned start, a page-straddling span and one
    /// over three pages.
    #[test]
    fn byte_spans_copy_page_runs_exactly_like_per_byte_access() {
        let page = PAGE_SIZE;
        let (mut fast, mut slow) = (GlobalMem::new(), GlobalMem::new());
        fast.write_bytes(5 * page + 17, &[]);
        assert!(fast.pages.is_empty(), "an empty write maps nothing");
        assert_eq!(fast.read_bytes(5 * page + 17, 0), Vec::<u8>::new());

        for (addr, len) in [(5 * page + 17, 100), (7 * page - 3, 10), (9 * page - 5, 4106)] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            fast.write_bytes(addr, &bytes);
            for (i, b) in bytes.iter().enumerate() {
                slow.write_u8(addr + i as u64, *b);
            }
            assert_eq!(fast.read_bytes(addr, len), bytes, "read-back of {len} bytes at {addr:#x}");
            // With one byte either side of the span: untouched, and the
            // same through the per-byte read.
            let per_byte: Vec<u8> =
                (0..len as u64 + 2).map(|i| fast.read_u8(addr - 1 + i)).collect();
            assert_eq!(fast.read_bytes(addr - 1, len + 2), per_byte);
        }
        assert_eq!(fast.pages, slow.pages, "page for page what the per-byte loop writes");
        assert_eq!(fast.pages.len(), 1 + 2 + 3, "pages 5, 6-7 and 8-10");
        // Unmapped memory reads zero, across pages, and stays unmapped.
        assert_eq!(fast.read_bytes(100 * page - 2, 5000), vec![0u8; 5000]);
        assert_eq!(fast.pages.len(), 6);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut m = GlobalMem::new();
        let a = m.alloc(100);
        let b = m.alloc(100);
        assert!(b >= a + 100);
    }

    #[test]
    fn direct_cache_hits_and_misses() {
        let mut c = DirectCache::new(1024, 64);
        assert!(!c.access(0));
        assert!(c.access(4), "same line");
        assert!(!c.access(1024), "conflict: same set, different tag");
        assert!(!c.access(0), "evicted");
        let (h, m) = c.stats();
        assert_eq!((h, m), (1, 3));
    }

    #[test]
    fn const_banks() {
        let mut c = ConstMem::new();
        c.set_bank(0, vec![1, 0, 0, 0, 2, 0, 0, 0]);
        assert_eq!(c.read_u32(0, 0), 1);
        assert_eq!(c.read_u32(0, 4), 2);
        assert_eq!(c.read_u32(0, 100), 0, "out of range reads zero");
        assert_eq!(c.read_u64(0, 0), 1 | (2u64 << 32));
    }
}

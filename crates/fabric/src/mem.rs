//! Simulated memory: per-domain sparse page tables with a first-fit
//! allocator.
//!
//! Buffers hold *real bytes* so that protocol correctness (does the receive
//! buffer contain exactly what was sent?) is testable, while capacity
//! accounting models the Phi's hard memory limit: the paper's micro-kernel
//! has no demand paging (§V experiment 3), so `alloc` charges the full
//! length against the domain's capacity and fails with [`OutOfMemory`]
//! when it is exhausted, however little of the allocation is ever written.
//!
//! The sparsity is host-side only. Each domain backs its address space
//! with a page table of [`PAGE_SIZE`] pages: a write materializes just the
//! pages it touches, a read of an absent page yields zeros, and growing
//! the table never copies a byte. A rank's pre-posted receive pool, almost
//! all of it never written, costs its full capacity but little host memory.
//!
//! Whole pages left inside a free block by [`Memory::free`], and every page
//! of a dropped [`Memory`], go to one process-wide spare-page list; the
//! next materialization anywhere in the process takes a page from it and
//! zeroes it. Tearing down one simulation and building the next thus
//! recycles pages instead of returning thousands of small blocks to the
//! system allocator. The list only ever holds pages that were resident,
//! so it never exceeds the process's peak resident page count.

use std::collections::BTreeMap;
use std::fmt;

use parking_lot::Mutex;

use crate::config::{Domain, PAGE_SIZE};

/// Node index within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A memory domain on a specific node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    pub node: NodeId,
    pub domain: Domain,
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.node, self.domain)
    }
}

/// A contiguous allocation inside one memory domain. Cheap to clone; freeing
/// goes through [`Memory::free`] with the original base address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Buffer {
    pub mem: MemRef,
    /// Domain-local address (we treat virtual == physical per domain; the
    /// DCFA command layer still *charges* for translation).
    pub addr: u64,
    pub len: u64,
}

impl Buffer {
    /// A sub-range of this buffer.
    pub fn slice(&self, offset: u64, len: u64) -> Buffer {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "slice {offset}+{len} out of buffer of len {}",
            self.len
        );
        Buffer {
            mem: self.mem,
            addr: self.addr + offset,
            len,
        }
    }

    /// Number of 4-KiB pages this buffer spans.
    pub fn pages(&self) -> u64 {
        let start = self.addr / PAGE_SIZE;
        let end = (self.addr + self.len.max(1) - 1) / PAGE_SIZE;
        end - start + 1
    }

    /// Whether the buffer starts on a page boundary and is a whole number of
    /// pages (the Intel offload runtime's fast-transfer condition, §V).
    pub fn is_page_aligned(&self) -> bool {
        self.addr.is_multiple_of(PAGE_SIZE) && self.len.is_multiple_of(PAGE_SIZE)
    }
}

/// Allocation failure: the domain is out of memory (the Phi kernel has no
/// demand paging, so this is a hard error, cf. §V experiment 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    pub mem: MemRef,
    pub requested: u64,
    pub available: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory in {}: requested {} bytes, {} available",
            self.mem, self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Page size as a `usize`: the page table's granule.
const PAGE: usize = PAGE_SIZE as usize;

/// One materialized page of simulated memory.
type Page = Box<[u8; PAGE]>;

/// Pages released by [`Memory::free`] and by dropped memories, kept dirty
/// and zeroed when taken (see the module docs).
static SPARE_PAGES: Mutex<Vec<Page>> = Mutex::new(Vec::new());

/// A zeroed page: a recycled spare if there is one, else a fresh one.
fn take_page() -> Page {
    let spare = SPARE_PAGES.lock().pop();
    match spare {
        Some(mut page) => {
            page.fill(0);
            page
        }
        None => vec![0u8; PAGE]
            .into_boxed_slice()
            .try_into()
            .expect("page-sized slice"),
    }
}

/// Split the address range `[addr, addr + len)` at page boundaries into
/// `(page index, offset in page, offset in range, length)` pieces.
fn page_pieces(addr: u64, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let addr = addr as usize;
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = addr + done;
            let (page, off) = (at / PAGE, at % PAGE);
            let n = (PAGE - off).min(len - done);
            done += n;
            (page, off, done - n, n)
        })
    })
}

/// One memory domain: a sparse page table plus a first-fit allocator.
pub struct Memory {
    mem: MemRef,
    capacity: u64,
    used: u64,
    /// Sparse backing store: entry `i` holds addresses
    /// `[i * PAGE_SIZE, (i + 1) * PAGE_SIZE)`. `None` reads as zeros. The
    /// table reaches only as far as the highest page ever written.
    pages: Vec<Option<Page>>,
    /// Free list: base -> len, coalesced on free.
    free: BTreeMap<u64, u64>,
    /// Live allocations: base -> len (double-free / bad-free detection).
    live: BTreeMap<u64, u64>,
}

impl Memory {
    pub fn new(mem: MemRef, capacity: u64) -> Self {
        let mut free = BTreeMap::new();
        free.insert(0, capacity);
        Memory {
            mem,
            capacity,
            used: 0,
            pages: Vec::new(),
            free,
            live: BTreeMap::new(),
        }
    }

    pub fn mem_ref(&self) -> MemRef {
        self.mem
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Host memory backing this domain: materialized pages times
    /// [`PAGE_SIZE`]. Unlike [`Memory::used`], allocated but never written
    /// bytes do not count.
    pub fn resident_bytes(&self) -> u64 {
        self.pages.iter().filter(|p| p.is_some()).count() as u64 * PAGE_SIZE
    }

    /// Allocate `len` bytes aligned to `align` (power of two). First-fit.
    pub fn alloc(&mut self, len: u64, align: u64) -> Result<Buffer, OutOfMemory> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let len = len.max(1);
        let mut chosen: Option<(u64, u64, u64)> = None; // (base, blk_len, aligned_start)
        for (&base, &blk_len) in &self.free {
            let aligned = (base + align - 1) & !(align - 1);
            let pad = aligned - base;
            if blk_len >= pad + len {
                chosen = Some((base, blk_len, aligned));
                break;
            }
        }
        let Some((base, blk_len, aligned)) = chosen else {
            return Err(OutOfMemory {
                mem: self.mem,
                requested: len,
                available: self.capacity - self.used,
            });
        };
        self.free.remove(&base);
        // Leading pad stays free.
        if aligned > base {
            self.free.insert(base, aligned - base);
        }
        // Trailing remainder stays free.
        let end = aligned + len;
        let blk_end = base + blk_len;
        if blk_end > end {
            self.free.insert(end, blk_end - end);
        }
        self.live.insert(aligned, len);
        self.used += len;
        // Recycled space must read as zero like fresh pages do. `free`
        // released the whole pages of the block, so only pages shared with
        // a neighbour, or written after their free (a late DMA), are still
        // resident here; scrub those.
        let resident_end = end.min((self.pages.len() * PAGE) as u64);
        if aligned < resident_end {
            for (p, off, _, n) in page_pieces(aligned, (resident_end - aligned) as usize) {
                if let Some(page) = &mut self.pages[p] {
                    page[off..off + n].fill(0);
                }
            }
        }
        Ok(Buffer {
            mem: self.mem,
            addr: aligned,
            len,
        })
    }

    /// Allocate page-aligned.
    pub fn alloc_pages(&mut self, len: u64) -> Result<Buffer, OutOfMemory> {
        self.alloc(len, PAGE_SIZE)
    }

    /// Free an allocation by its buffer. Panics on double free or on a
    /// buffer that is not an allocation base (programming error in the
    /// simulated software stack).
    pub fn free(&mut self, buf: &Buffer) {
        assert_eq!(buf.mem, self.mem, "freeing buffer from wrong domain");
        let len = self
            .live
            .remove(&buf.addr)
            .unwrap_or_else(|| panic!("free of unknown buffer at {:#x}", buf.addr));
        assert_eq!(len, buf.len, "free with mismatched length");
        self.used -= len;
        // Insert and coalesce with neighbours.
        let mut base = buf.addr;
        let mut blk_len = len;
        if let Some((&pbase, &plen)) = self.free.range(..base).next_back() {
            if pbase + plen == base {
                self.free.remove(&pbase);
                base = pbase;
                blk_len += plen;
            }
        }
        if let Some((&nbase, &nlen)) = self.free.range(base + blk_len..).next() {
            if base + blk_len == nbase {
                self.free.remove(&nbase);
                blk_len += nlen;
            }
        }
        self.free.insert(base, blk_len);
        // Release the pages of the freed range that now lie wholly inside
        // the free block: nothing live is left on them.
        let first = base.div_ceil(PAGE_SIZE).max(buf.addr / PAGE_SIZE) as usize;
        let last = ((base + blk_len) / PAGE_SIZE).min((buf.addr + len).div_ceil(PAGE_SIZE));
        let last = (last as usize).min(self.pages.len());
        if first < last {
            SPARE_PAGES
                .lock()
                .extend(self.pages[first..last].iter_mut().filter_map(Option::take));
        }
    }

    fn check_range(&self, buf: &Buffer, offset: u64, len: usize) {
        assert!(
            offset.checked_add(len as u64).is_some_and(|e| e <= buf.len),
            "access {offset}+{len} out of buffer len {}",
            buf.len
        );
    }

    /// Write bytes into a buffer, materializing the pages it touches.
    pub fn write(&mut self, buf: &Buffer, offset: u64, data: &[u8]) {
        assert_eq!(buf.mem, self.mem);
        self.check_range(buf, offset, data.len());
        for (p, off, at, n) in page_pieces(buf.addr + offset, data.len()) {
            if self.pages.len() <= p {
                self.pages.resize_with(p + 1, || None);
            }
            let page = self.pages[p].get_or_insert_with(take_page);
            page[off..off + n].copy_from_slice(&data[at..at + n]);
        }
    }

    /// Read bytes out of a buffer. Never-written pages read as zero.
    pub fn read(&self, buf: &Buffer, offset: u64, out: &mut [u8]) {
        assert_eq!(buf.mem, self.mem);
        self.check_range(buf, offset, out.len());
        for (p, off, at, n) in page_pieces(buf.addr + offset, out.len()) {
            let dst = &mut out[at..at + n];
            match self.pages.get(p) {
                Some(Some(page)) => dst.copy_from_slice(&page[off..off + n]),
                _ => dst.fill(0),
            }
        }
    }

    /// Read a buffer fully into a fresh Vec. Built page by page rather
    /// than zero-filled and then overwritten: DMA reads whole multi-MiB
    /// buffers this way, and the redundant zeroing was a measurable share
    /// of the ping-pong sweep.
    pub fn read_vec(&self, buf: &Buffer) -> Vec<u8> {
        let mut v = Vec::with_capacity(buf.len as usize);
        for (p, off, _, n) in page_pieces(buf.addr, buf.len as usize) {
            match self.pages.get(p) {
                Some(Some(page)) => v.extend_from_slice(&page[off..off + n]),
                _ => v.resize(v.len() + n, 0),
            }
        }
        v
    }
}

impl Drop for Memory {
    /// Hand every resident page to the spare list for the next memory.
    fn drop(&mut self) {
        SPARE_PAGES.lock().extend(self.pages.drain(..).flatten());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(
            MemRef {
                node: NodeId(0),
                domain: Domain::Phi,
            },
            1 << 20,
        )
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut m = mem();
        let a = m.alloc(1000, 8).unwrap();
        assert_eq!(m.used(), 1000);
        m.free(&a);
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn alloc_is_aligned() {
        let mut m = mem();
        let _pad = m.alloc(10, 1).unwrap();
        let b = m.alloc(100, 256).unwrap();
        assert_eq!(b.addr % 256, 0);
        let p = m.alloc_pages(PAGE_SIZE * 2).unwrap();
        assert_eq!(p.addr % PAGE_SIZE, 0);
        assert!(p.is_page_aligned());
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut m = mem();
        let err = m.alloc(2 << 20, 1).unwrap_err();
        assert_eq!(err.requested, 2 << 20);
        assert_eq!(err.available, 1 << 20);
    }

    #[test]
    fn free_coalesces() {
        let mut m = mem();
        let a = m.alloc(1024, 1).unwrap();
        let b = m.alloc(1024, 1).unwrap();
        let c = m.alloc(1024, 1).unwrap();
        m.free(&a);
        m.free(&c);
        m.free(&b);
        // After coalescing everything we can allocate the whole capacity.
        let all = m.alloc(1 << 20, 1).unwrap();
        assert_eq!(all.len, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "free of unknown buffer")]
    fn double_free_panics() {
        let mut m = mem();
        let a = m.alloc(64, 1).unwrap();
        m.free(&a);
        m.free(&a);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = mem();
        let a = m.alloc(4096, 4096).unwrap();
        let data: Vec<u8> = (0..=255).cycle().take(4096).collect();
        m.write(&a, 0, &data);
        assert_eq!(m.read_vec(&a), data);
        // Partial read at offset.
        let mut out = [0u8; 4];
        m.read(&a, 256, &mut out);
        assert_eq!(out, [0, 1, 2, 3]);
    }

    #[test]
    fn recycled_memory_reads_zero() {
        let mut m = mem();
        let a = m.alloc(256, 1).unwrap();
        m.write(&a, 0, &[0xAB; 256]);
        m.free(&a);
        // First-fit hands the same region back; it must read as zero
        // like fresh pages do, not leak the previous tenant's bytes.
        let b = m.alloc(256, 1).unwrap();
        assert_eq!(b.addr, a.addr);
        assert_eq!(m.read_vec(&b), vec![0u8; 256]);
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let mut m = mem();
        let a = m.alloc(128, 1).unwrap();
        let mut out = [1u8; 16];
        m.read(&a, 64, &mut out);
        assert_eq!(out, [0u8; 16]);
    }

    #[test]
    fn only_written_pages_are_resident() {
        let mut m = mem();
        let pool = m.alloc_pages(64 * PAGE_SIZE).unwrap();
        // Capacity is charged in full (no demand paging on the Phi); host
        // memory is not.
        assert_eq!(m.used(), 64 * PAGE_SIZE);
        assert_eq!(m.resident_bytes(), 0);
        // A write straddling one page boundary materializes two pages.
        m.write(&pool, 3 * PAGE_SIZE - 2, &[7; 4]);
        assert_eq!(m.resident_bytes(), 2 * PAGE_SIZE);
        let mut out = [0u8; 6];
        m.read(&pool, 3 * PAGE_SIZE - 3, &mut out);
        assert_eq!(out, [0, 7, 7, 7, 7, 0]);
        m.free(&pool);
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn free_keeps_pages_a_live_neighbour_shares() {
        let mut m = mem();
        let a = m.alloc(100, 1).unwrap();
        let b = m.alloc(100, 1).unwrap();
        m.write(&a, 0, &[1; 100]);
        m.write(&b, 0, &[2; 100]);
        m.free(&a);
        assert_eq!(m.resident_bytes(), PAGE_SIZE);
        assert_eq!(m.read_vec(&b), vec![2; 100]);
    }

    #[test]
    fn slice_bounds_checked() {
        let mut m = mem();
        let a = m.alloc(100, 1).unwrap();
        let s = a.slice(10, 20);
        assert_eq!(s.addr, a.addr + 10);
        assert_eq!(s.len, 20);
        let r = std::panic::catch_unwind(|| a.slice(90, 20));
        assert!(r.is_err());
    }

    #[test]
    fn pages_count() {
        let b = Buffer {
            mem: MemRef {
                node: NodeId(0),
                domain: Domain::Host,
            },
            addr: 0,
            len: 4096,
        };
        assert_eq!(b.pages(), 1);
        let b2 = Buffer {
            addr: 4095,
            len: 2,
            ..b.clone()
        };
        assert_eq!(b2.pages(), 2);
        let b3 = Buffer {
            addr: 0,
            len: 4097,
            ..b
        };
        assert_eq!(b3.pages(), 2);
    }
}

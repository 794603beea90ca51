//! Differential property test: the sparse, page-granular [`Memory`] must
//! hold exactly the bytes a plain dense `Vec<u8>` model of the same domain
//! holds, under random alloc/free/write/read sequences that cross page
//! boundaries, read never-written memory, and write into freed ranges
//! before they are allocated again.

use fabric::{Buffer, Domain, MemRef, Memory, NodeId, PAGE_SIZE};
use proptest::prelude::*;

const CAPACITY: u64 = 64 * PAGE_SIZE;

/// The reference: one flat byte array. A fresh or recycled allocation
/// reads as zero, so `alloc` zeroes its range; nothing else is special.
struct Dense(Vec<u8>);

impl Dense {
    fn range(buf: &Buffer, off: u64, len: usize) -> std::ops::Range<usize> {
        let start = (buf.addr + off) as usize;
        start..start + len
    }
}

#[derive(Debug, Clone)]
enum Op {
    Alloc {
        len: u64,
        align_pow: u32,
    },
    Free {
        idx: usize,
    },
    Write {
        idx: usize,
        off: u64,
        len: u64,
        salt: u8,
    },
    Read {
        idx: usize,
        off: u64,
        len: u64,
    },
    /// A write through the handle of an already freed buffer (a DMA that
    /// lands after its buffer was released).
    LateWrite {
        idx: usize,
        salt: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let span = 3 * PAGE_SIZE;
    prop_oneof![
        (1u64..span, 0u32..13).prop_map(|(len, align_pow)| Op::Alloc { len, align_pow }),
        (0usize..16).prop_map(|idx| Op::Free { idx }),
        (0usize..16, 0u64..span, 1u64..span, any::<u8>()).prop_map(|(idx, off, len, salt)| {
            Op::Write {
                idx,
                off,
                len,
                salt,
            }
        }),
        (0usize..16, 0u64..span, 1u64..span).prop_map(|(idx, off, len)| Op::Read { idx, off, len }),
        (0usize..16, any::<u8>()).prop_map(|(idx, salt)| Op::LateWrite { idx, salt }),
    ]
}

/// Clamp a drawn `(off, len)` into `buf`.
fn clamp(buf: &Buffer, off: u64, len: u64) -> (u64, usize) {
    let off = off % buf.len;
    (off, len.min(buf.len - off) as usize)
}

fn salted(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sparse_memory_matches_dense_reference(ops in proptest::collection::vec(op_strategy(), 1..160)) {
        let mut mem = Memory::new(MemRef { node: NodeId(0), domain: Domain::Phi }, CAPACITY);
        let mut dense = Dense(vec![0u8; CAPACITY as usize]);
        let mut live: Vec<Buffer> = Vec::new();
        let mut freed: Vec<Buffer> = Vec::new();
        let mut written_pages = std::collections::BTreeSet::new();
        let mut late_pages = std::collections::BTreeSet::new();

        for op in ops {
            match op {
                Op::Alloc { len, align_pow } => {
                    if let Ok(buf) = mem.alloc(len, 1 << align_pow) {
                        dense.0[Dense::range(&buf, 0, buf.len as usize)].fill(0);
                        // A new tenant reads zeros, whatever was written
                        // into its range before (late writes included).
                        prop_assert!(mem.read_vec(&buf).iter().all(|&b| b == 0));
                        live.push(buf);
                    }
                }
                Op::Free { idx } => {
                    if !live.is_empty() {
                        let buf = live.swap_remove(idx % live.len());
                        mem.free(&buf);
                        freed.push(buf);
                    }
                }
                Op::Write { idx, off, len, salt } => {
                    if !live.is_empty() {
                        let buf = &live[idx % live.len()];
                        let (off, len) = clamp(buf, off, len);
                        let data = salted(len, salt);
                        mem.write(buf, off, &data);
                        dense.0[Dense::range(buf, off, len)].copy_from_slice(&data);
                        let first = (buf.addr + off) / PAGE_SIZE;
                        let last = (buf.addr + off + len as u64 - 1) / PAGE_SIZE;
                        written_pages.extend(first..=last);
                    }
                }
                Op::Read { idx, off, len } => {
                    if !live.is_empty() {
                        let buf = &live[idx % live.len()];
                        let (off, len) = clamp(buf, off, len);
                        let mut got = vec![0xEE; len];
                        mem.read(buf, off, &mut got);
                        prop_assert_eq!(&got[..], &dense.0[Dense::range(buf, off, len)]);
                    }
                }
                Op::LateWrite { idx, salt } => {
                    if !freed.is_empty() {
                        let buf = &freed[idx % freed.len()];
                        let data = salted(buf.len as usize, salt);
                        mem.write(buf, 0, &data);
                        dense.0[Dense::range(buf, 0, data.len())].copy_from_slice(&data);
                        let pages = buf.addr / PAGE_SIZE..=(buf.addr + buf.len - 1) / PAGE_SIZE;
                        written_pages.extend(pages.clone());
                        late_pages.extend(pages);
                    }
                }
            }
            prop_assert_eq!(mem.used(), live.iter().map(|b| b.len).sum::<u64>());
            // Only written pages are ever materialized.
            prop_assert!(mem.resident_bytes() <= written_pages.len() as u64 * PAGE_SIZE);
        }

        for buf in &live {
            prop_assert_eq!(mem.read_vec(buf), dense.0[Dense::range(buf, 0, buf.len as usize)].to_vec());
        }
        // Freeing everything releases every page a live buffer wrote; only
        // pages written after their free may linger until reallocated.
        for buf in live.drain(..) {
            mem.free(&buf);
        }
        prop_assert!(mem.resident_bytes() <= late_pages.len() as u64 * PAGE_SIZE);
    }
}

//! A pcap record header is attacker-controlled: its `caplen` field may
//! claim up to 4 GiB. The readers must not allocate from that claim — a
//! 48-byte file whose single record claims `0xFFFF_FFF0` bytes has to
//! come back as [`PcapError::Truncated`] after allocating no more than
//! the bytes the file actually holds.
//!
//! The whole file is one `#[test]` because the allocation record is
//! process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use net_packet::pcap::{read_pcap, read_pcap_raw, write_pcap_raw, PcapError};

/// Records the largest single heap request (alloc, alloc_zeroed,
/// realloc target size).
struct MaxAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for MaxAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: MaxAlloc = MaxAlloc;

#[test]
fn oversized_caplen_is_truncated_without_a_huge_allocation() {
    // 24-byte global header + 16-byte record header + 8 data bytes, with
    // the record's caplen (bytes 32..36) rewritten to claim ~4 GiB.
    let mut file = Vec::new();
    write_pcap_raw(&mut file, &[(1.0, vec![0x45; 8])]).unwrap();
    assert_eq!(file.len(), 48);
    file[32..36].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());

    LARGEST.store(0, Ordering::Relaxed);
    assert!(matches!(read_pcap(&file[..]), Err(PcapError::Truncated)));
    assert!(matches!(
        read_pcap_raw(&file[..]),
        Err(PcapError::Truncated)
    ));
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= file.len(),
        "largest allocation {largest} B exceeds the {} B file",
        file.len()
    );
}

//! The message hot path never touches the allocator.
//!
//! Every CONGEST message is `O(log N)` bits, so its payload lives inline in
//! the `BitBuf` value: encoding a protocol message, cloning it (as a
//! broadcast does once per port), decoding it and hashing it for a fault
//! decision must make no heap allocation at all. A counting global
//! allocator checks that for every message variant at several network
//! sizes. It counts per thread, so the test harness's own threads do not
//! disturb the count.

use bc_congest::faults::payload_hash;
use bc_core::{Codec, ProtocolMsg};
use bc_numeric::{CeilFloat, FpParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Forwards to the system allocator and counts the calling thread's
/// allocations (reallocations included).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches only a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One message of every variant, with fields at the top of their ranges
/// for an `n`-node network.
fn every_variant(n: usize, fp: FpParams) -> Vec<ProtocolMsg> {
    let id = n as u32 - 1;
    let ts = (n as u64) * (n as u64);
    let big = CeilFloat::from_u64(u64::MAX >> 1, fp);
    let small = CeilFloat::from_u64(7, fp).recip();
    vec![
        ProtocolMsg::TreeAnnounce {
            dist: id,
            chooses_you: true,
        },
        ProtocolMsg::Token,
        ProtocolMsg::Wave {
            source: id,
            sender_dist: id,
            sigma: big,
        },
        ProtocolMsg::WaveWithToken {
            source: 0,
            sender_dist: 1,
            sigma: small,
        },
        ProtocolMsg::Reduce {
            min_ts: 1,
            max_ts: ts,
            max_d: id,
        },
        ProtocolMsg::AggStart {
            base: ts,
            min_ts: ts - 1,
            max_ts: ts,
            d: id,
        },
        ProtocolMsg::Agg {
            source: id,
            value: small,
        },
        ProtocolMsg::StartReduce,
        ProtocolMsg::SubtreeDone { max_depth: id },
        ProtocolMsg::AggWithStress {
            source: id,
            psi: big,
            rho: small,
        },
        ProtocolMsg::AggRefined {
            source: id,
            psi: small,
            psi_in: big,
        },
    ]
}

#[test]
fn encode_clone_decode_and_fault_hash_do_not_allocate() {
    for n in [256usize, 1536, 10_000] {
        let codec = Codec::new(n, FpParams::for_graph_size(n));
        for msg in every_variant(n, codec.fp) {
            let before = allocations();
            let encoded = codec.encode(black_box(&msg));
            let copy = black_box(encoded.clone());
            let decoded = codec.decode(&copy);
            let hash = payload_hash(black_box(&copy));
            drop(black_box(encoded));
            drop(copy);
            let made = allocations() - before;
            assert_eq!(decoded, Ok(msg), "n={n}: round trip of {msg:?}");
            black_box(hash);
            assert_eq!(made, 0, "n={n}: {msg:?} allocated {made} times");
        }
    }
}

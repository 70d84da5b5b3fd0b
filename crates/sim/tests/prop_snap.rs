//! Mutation property test over the one snapshot decoder: full and delta
//! stream frames, raw and compressed, are damaged by seeded random byte
//! flips, truncations, and name/raw/stored length fields inflated to
//! `u32::MAX`. Hand-rolled loops over [`SimRng`], no external proptest
//! dependency.
//!
//! Invariants covered:
//! - a truncated frame, or one with an inflated length field, is always
//!   an `Err` — never a panic, never a value;
//! - a flipped byte is an `Err`, or — only where the frame carries no
//!   information the content digest could check (the compress flag bit,
//!   or an LZ token inside a compressed payload) — decodes to exactly the
//!   original value: damage is never silently accepted as different state;
//! - no decode allocates more than the reader's caps allow: the 1 MiB
//!   preallocation bound on a length-prefixed read, and the codec's
//!   [`codec::CHUNK`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smappic_sim::{codec, SimRng, SnapDelta, SnapError, SnapWriter, Snapshot};

/// Records the largest single allocation request made on this thread.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// records request sizes in a destructor-free thread-local.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// The largest allocation a decode may make: `read_vec_snap`'s
/// preallocation bound (codec chunks are smaller).
const ALLOC_CAP: usize = 1 << 20;

/// Header bytes before the first record: magic, version, config digest,
/// cycle, flags — plus the base digest on a delta frame.
const HEADER: usize = 29;
const DELTA_HEADER: usize = HEADER + 8;
const FLAGS_AT: usize = 28;

/// Where one section record's fields sit in a frame.
struct Record {
    nlen_at: usize,
    raw_at: usize,
    stored_at: usize,
    payload: std::ops::Range<usize>,
    compressed: bool,
}

/// Walks a well-formed frame's records by the documented layout.
fn records(frame: &[u8], delta: bool) -> Vec<Record> {
    let u32_at = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) as usize;
    let mut at = if delta { DELTA_HEADER } else { HEADER };
    let mut out = Vec::new();
    while frame[at] == 1 {
        let nlen_at = at + 1;
        let raw_at = nlen_at + 4 + u32_at(nlen_at);
        let stored_at = raw_at + 4;
        let start = stored_at + 4;
        let end = start + u32_at(stored_at);
        out.push(Record {
            nlen_at,
            raw_at,
            stored_at,
            payload: start..end,
            compressed: u32_at(raw_at) != u32_at(stored_at),
        });
        at = end;
    }
    assert_eq!(frame.len(), at + 13, "walk ends at the trailer");
    out
}

/// Sections of mixed compressibility: zero runs, repeated structure,
/// incompressible noise, an empty section, and small scalars.
fn sample(seed: u64, cycle: u64) -> Snapshot {
    let mut rng = SimRng::new(seed);
    let mut w = SnapWriter::new();
    w.scoped("fpga0", |w| {
        w.u64(rng.next_u64());
        w.scoped("dram", |w| w.bytes(&[0u8; 6000]));
        w.scoped("llc", |w| {
            let lines: Vec<u8> = (0..3000).map(|i| (i % (60 + seed)) as u8).collect();
            w.bytes(&lines);
        });
    });
    w.scoped("pcie0-1", |w| {
        let noise: Vec<u8> = (0..700).map(|_| rng.gen_range(256) as u8).collect();
        w.bytes(&noise);
    });
    w.scoped("eth", |_| {});
    w.scoped("host.stepper", |w| w.u64(cycle));
    Snapshot::new(0xC0FF_EE00, cycle, w)
}

/// Decodes a frame; `Ok(true)` when the result equals the original.
type Decoder = Box<dyn Fn(&[u8]) -> Result<bool, SnapError>>;

/// One frame under test and how to decode it.
struct Subject {
    label: String,
    frame: Vec<u8>,
    delta: bool,
    compress: bool,
    decode: Decoder,
}

/// A full snapshot and a delta (four of its six sections dirty), each
/// framed raw and compressed.
fn subjects() -> Vec<Subject> {
    let base = sample(1, 1000);
    let d = SnapDelta::between(&base, &sample(2, 3000)).expect("delta");
    assert_eq!(d.sections().len(), 4);
    let mut out = Vec::new();
    for compress in [false, true] {
        let snap = base.clone();
        out.push(Subject {
            label: format!("full (compress {compress})"),
            frame: snap.to_stream_bytes(compress),
            delta: false,
            compress,
            decode: Box::new(move |b| Snapshot::from_stream_bytes(b).map(|s| s == snap)),
        });
        let delta = d.clone();
        out.push(Subject {
            label: format!("delta (compress {compress})"),
            frame: delta.to_stream_bytes(compress),
            delta: true,
            compress,
            decode: Box::new(move |b| SnapDelta::from_bytes(b).map(|v| v == delta)),
        });
    }
    out
}

/// Decodes `bytes` with the allocation peak tracked.
fn decode_capped(s: &Subject, bytes: &[u8], what: &str) -> Result<bool, SnapError> {
    PEAK.with(|p| p.set(0));
    let r = (s.decode)(bytes);
    let peak = PEAK.with(Cell::get);
    assert!(peak <= ALLOC_CAP.max(codec::CHUNK), "{}: {what} allocated {peak} B", s.label);
    r
}

#[test]
fn undamaged_frames_decode_to_the_original() {
    for s in subjects() {
        assert_eq!(decode_capped(&s, &s.frame, "clean decode"), Ok(true), "{}", s.label);
        let any_compressed = records(&s.frame, s.delta).iter().any(|r| r.compressed);
        assert_eq!(any_compressed, s.compress, "{}: compressed sections", s.label);
    }
}

#[test]
fn random_byte_flips_are_errors_or_provably_harmless() {
    let mut rng = SimRng::new(0x5EED_F11B);
    for s in subjects() {
        let recs = records(&s.frame, s.delta);
        let unchecked = |at: usize| {
            at == FLAGS_AT || recs.iter().any(|r| r.compressed && r.payload.contains(&at))
        };
        for case in 0..5000 {
            let at = rng.gen_range(s.frame.len() as u64) as usize;
            let xor = rng.gen_range(255) as u8 + 1;
            let mut bad = s.frame.clone();
            bad[at] ^= xor;
            match decode_capped(&s, &bad, "flip") {
                Err(_) => {}
                Ok(same) => {
                    assert!(
                        same && unchecked(at),
                        "{} case {case}: flip {xor:#04x} at {at} decoded silently \
                         (identical: {same})",
                        s.label
                    );
                }
            }
        }
    }
}

#[test]
fn every_truncation_is_an_error() {
    for s in subjects() {
        for cut in 0..s.frame.len() {
            assert!(
                decode_capped(&s, &s.frame[..cut], "truncation").is_err(),
                "{}: truncation at {cut} decoded",
                s.label
            );
        }
    }
}

#[test]
fn inflated_length_fields_are_errors_within_the_allocation_caps() {
    for s in subjects() {
        for (i, r) in records(&s.frame, s.delta).iter().enumerate() {
            for (field, at) in [("name", r.nlen_at), ("raw", r.raw_at), ("stored", r.stored_at)] {
                let mut bad = s.frame.clone();
                bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                assert!(
                    decode_capped(&s, &bad, field).is_err(),
                    "{}: section {i} with {field} length u32::MAX decoded",
                    s.label
                );
            }
        }
    }
}

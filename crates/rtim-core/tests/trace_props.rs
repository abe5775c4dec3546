//! Property and stress tests for the flight recorder's seqlock ring:
//! it must behave exactly like a bounded `VecDeque` model under
//! single-threaded writes (overwrite-oldest, dump ordering monotonic per
//! lane), and a racing reader must never observe a torn event.

use proptest::prelude::*;
use rtim_core::{FlightRecorder, TraceConfig};
use rtim_stream::trace::TraceEvent;
use std::collections::VecDeque;

fn event(n: u64) -> TraceEvent {
    TraceEvent {
        nanos: n,
        duration_nanos: n.wrapping_mul(3),
        conn: n.wrapping_add(7),
        corr: n as u32,
        stage: (n % 12) as u8,
        lane: 0,
        aux: (n % 17) as u16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ring agrees with a naive bounded-VecDeque model: after any
    /// write sequence, a full dump returns exactly the newest
    /// `capacity` events in write order.
    #[test]
    fn ring_matches_vecdeque_model(capacity in 1usize..48, writes in 0usize..200) {
        let recorder = FlightRecorder::new(TraceConfig {
            sample: 1,
            ring_capacity: capacity,
            ..TraceConfig::default()
        });
        let mut writer = recorder.writer();
        let mut model: VecDeque<TraceEvent> = VecDeque::new();
        for n in 0..writes as u64 {
            writer.record(event(n));
            if model.len() == capacity {
                model.pop_front(); // overwrite-oldest
            }
            model.push_back(event(n));
        }
        let dump = recorder.dump(usize::MAX, false);
        let got: Vec<u64> = dump.events.iter().map(|e| e.nanos).collect();
        let want: Vec<u64> = model.iter().map(|e| e.nanos).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(recorder.events_total(), writes as u64);
    }

    /// `dump(max_events, _)` keeps the newest events and stays monotonic
    /// per lane whatever the cap.
    #[test]
    fn capped_dump_keeps_newest_and_stays_monotonic(
        capacity in 1usize..48,
        writes in 1usize..200,
        cap in 0usize..64,
    ) {
        let recorder = FlightRecorder::new(TraceConfig {
            sample: 1,
            ring_capacity: capacity,
            ..TraceConfig::default()
        });
        let mut writer = recorder.writer();
        for n in 0..writes as u64 {
            writer.record(event(n));
        }
        let dump = recorder.dump(cap, false);
        let retained = writes.min(capacity);
        prop_assert_eq!(dump.events.len(), cap.min(retained));
        // Newest-first retention: the dump is the tail of the write
        // sequence, in order.
        let first = writes as u64 - dump.events.len() as u64;
        for (i, e) in dump.events.iter().enumerate() {
            prop_assert_eq!(e.nanos, first + i as u64);
        }
    }
}

/// A writer racing a dumping reader: the seqlock must never surface a
/// torn event.  Every recorded event's words are derived from `nanos`,
/// so any mixed-generation read is detectable; per-lane dump order must
/// also stay monotonic mid-race.
#[test]
fn racing_reader_never_observes_a_torn_event() {
    let recorder = FlightRecorder::new(TraceConfig {
        sample: 1,
        ring_capacity: 64, // small ring: maximize overwrite races
        ..TraceConfig::default()
    });
    let writer_rec = std::sync::Arc::clone(&recorder);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer_stop = std::sync::Arc::clone(&stop);
    let writer = std::thread::spawn(move || {
        let mut w = writer_rec.writer();
        let mut n = 0u64;
        while !writer_stop.load(std::sync::atomic::Ordering::Acquire) {
            w.record(event(n));
            n += 1;
        }
        n
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
    let mut dumps = 0u64;
    while std::time::Instant::now() < deadline {
        let dump = recorder.dump(usize::MAX, false);
        let mut last = None;
        for e in &dump.events {
            assert_eq!(
                e.duration_nanos,
                e.nanos.wrapping_mul(3),
                "torn event: {e:?}"
            );
            assert_eq!(e.conn, e.nanos.wrapping_add(7), "torn event: {e:?}");
            assert_eq!(e.corr, e.nanos as u32, "torn event: {e:?}");
            if let Some(prev) = last {
                assert!(e.nanos > prev, "dump order regressed: {prev} → {}", e.nanos);
            }
            last = Some(e.nanos);
        }
        dumps += 1;
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    let written = writer.join().unwrap();
    assert!(dumps > 0 && written > 0);
}

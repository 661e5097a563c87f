//! Proves the rack closed-loop steady state is allocation-free, exactly
//! like the single-server loop (`tests/alloc_free.rs`): a counting global
//! allocator wraps `System`, and doubling the horizon must not change the
//! allocation count beyond a small jitter allowance — the capper bank,
//! coordinator arbitration, zone fan loops, trace recording and the
//! rack-wide thermal step all run in pre-allocated storage.
//!
//! One test per binary: the counter is process-global.

use gfsc_coord::{RackControl, RackLoopSim};
use gfsc_rack::{RackSpec, RackTopology};
use gfsc_units::Seconds;
use gfsc_workload::{SquareWave, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_for(control: RackControl, horizon: Seconds) -> u64 {
    allocations_recorded(control, horizon, None)
}

fn allocations_recorded(control: RackControl, horizon: Seconds, recorder: Option<usize>) -> u64 {
    // Spiking workload: the single-step bank must actually boost/release
    // (the release path runs the min-safe bisection), the E-coord and
    // global descents must hit emergencies, and the migrator must
    // actually shift and reclaim weight — or the probe/ledger paths go
    // unmeasured. The imbalanced choked-rear rack (instead of the stock
    // 1U×8) keeps one server hot enough that migrations genuinely fire.
    let workload = Workload::builder(SquareWave::date14())
        .gaussian_noise(0.04, 5)
        .spikes(1.0 / 180.0, Seconds::new(30.0), 0.8, 6)
        .build();
    let rack = if matches!(control, RackControl::MigratingCoordinated { .. }) {
        gfsc::experiments::rack::imbalanced_choked_rack()
    } else {
        RackTopology::rack_1u_x8()
    };
    let mut builder = RackLoopSim::builder(RackSpec::new(rack)).workload(workload).control(control);
    if let Some(capacity) = recorder {
        builder = builder.flight_recorder(capacity);
    }
    let mut sim = builder.build();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = sim.run(horizon);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(outcome.total_epochs > 0);
    if recorder.is_some() {
        assert!(
            outcome.flight.is_some_and(|f| f.recorded > 0),
            "{control:?}: the armed probe must actually record"
        );
    }
    after - before
}

#[test]
fn rack_epoch_loop_does_not_allocate_per_epoch() {
    // Every mode of the matrix: each runs the same `RackControlBank::epoch`
    // the daemon runs.
    for control in RackControl::ALL {
        // Warm up one run so lazily-initialized process state doesn't skew
        // the first measurement.
        let _ = allocations_for(control, Seconds::new(120.0));
        let short = allocations_for(control, Seconds::new(600.0));
        let long = allocations_for(control, Seconds::new(2400.0));
        // 1800 extra epochs — each arbitrating 8 cappers, two zone fan
        // loops, 17 trace channels, and (in the lifted modes) model
        // inversions through the scratch-buffered probes — must add zero
        // allocations; allow a tiny jitter margin for the test harness
        // itself.
        assert!(
            long <= short + 4,
            "{control:?}: allocation count grew with horizon: {short} allocs @600s vs {long} @2400s"
        );
    }

    // The flight recorder must not change the contract on either side of
    // the arming switch: disarmed it is a branch, armed it writes into
    // the pre-allocated ring (the end-of-run snapshot is a constant
    // number of allocations, horizon-independent). GlobalECoord has the
    // densest event stream, so it bounds the other modes.
    for recorder in [None, Some(65_536)] {
        let control = RackControl::GlobalECoord;
        let _ = allocations_recorded(control, Seconds::new(120.0), recorder);
        let short = allocations_recorded(control, Seconds::new(600.0), recorder);
        let long = allocations_recorded(control, Seconds::new(2400.0), recorder);
        assert!(
            long <= short + 4,
            "{control:?} (recorder {recorder:?}): allocation count grew with horizon: \
             {short} allocs @600s vs {long} @2400s"
        );
    }
}

//! Proves a plant build allocates per node, not per link: a counting
//! global allocator wraps `System`, and widening a finned board's fin
//! arrays from 16 to 32 fins per socket adds 32 nodes while the pairwise
//! fin coupling takes the link count from 306 to 1,122. A build that
//! formatted, cloned or hashed a name for every link end would pay for
//! each of the 816 added links; one that names each node once pays for
//! the 32 added nodes and a few grown buffers.
//!
//! One test per binary: the counter is process-global.

use gfsc_thermal::{HeatSinkLaw, PlantCalibration, RackPlant, RackTopology, Topology};
use gfsc_units::{Celsius, KelvinPerWatt, Rpm, Seconds};
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

/// The allocations of one `RackPlant::new` of the one-slot finned board
/// with `segments` fins per socket, and its node count.
fn build(segments: usize) -> (u64, usize) {
    let cal = PlantCalibration {
        ambient: Celsius::new(30.0),
        law: HeatSinkLaw::date14(),
        sink_tau: Seconds::new(60.0),
        tau_speed: Rpm::new(8500.0),
        r_jc: KelvinPerWatt::new(0.10),
        die_tau: Seconds::new(0.1),
    };
    let topology = RackTopology::single_server(Topology::finned(2, segments));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let plant = RackPlant::new(&cal, &topology).expect("the stock finned board compiles");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before, plant.network().node_names().len())
}

#[test]
fn plant_build_allocates_per_node_not_per_link() {
    let (narrow, narrow_nodes) = build(16);
    let (wide, wide_nodes) = build(32);
    let added_nodes = (wide_nodes - narrow_nodes) as u64;
    assert_eq!(added_nodes, 32, "two sockets gain 16 fins each");
    assert!(
        wide <= narrow + 4 * added_nodes,
        "{narrow} allocations at 16 fins, {wide} at 32: {} more for {added_nodes} more nodes",
        wide - narrow
    );
}

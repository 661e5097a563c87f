//! Proves a warm `BatchRcNetwork::step` is allocation-free, as its docs
//! promise: a counting global allocator wraps `System`, and once every
//! matrix of a fan schedule sits in the factor arena, further lockstep
//! steps — factor resolution, lane grouping, right-hand-side assembly,
//! substitution and write-back — must not allocate at all.
//!
//! One test per binary: the counter is process-global.

use gfsc_thermal::{BatchRcNetwork, HeatSinkLaw, LinkId, NodeId, RcNetwork, RcNetworkBuilder};
use gfsc_units::{Celsius, JoulesPerKelvin, KelvinPerWatt, Rpm, Seconds, Watts};
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

/// Two dies on sinks over a shared chassis node, each sink exhausting
/// through a fan-driven link.
fn board() -> (RcNetwork, [NodeId; 2], [LinkId; 2]) {
    let law = HeatSinkLaw::date14();
    let net = RcNetworkBuilder::new()
        .node("die0", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
        .node("die1", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
        .node("sink0", JoulesPerKelvin::new(300.0), Celsius::new(30.0))
        .node("sink1", JoulesPerKelvin::new(300.0), Celsius::new(30.0))
        .node("chassis", JoulesPerKelvin::new(900.0), Celsius::new(30.0))
        .boundary("ambient", Celsius::new(30.0))
        .link("die0", "sink0", KelvinPerWatt::new(0.1))
        .link("die1", "sink1", KelvinPerWatt::new(0.12))
        .link("sink0", "chassis", KelvinPerWatt::new(0.5))
        .link("sink1", "chassis", KelvinPerWatt::new(0.5))
        .link("sink0", "ambient", law.resistance(Rpm::new(3000.0)))
        .link("sink1", "ambient", law.resistance(Rpm::new(3000.0)))
        .link("chassis", "ambient", KelvinPerWatt::new(0.8))
        .build()
        .expect("valid board");
    let dies = ["die0", "die1"].map(|n| net.node_id(n).expect("die exists"));
    let fans = ["sink0", "sink1"].map(|n| net.link_id(n, "ambient").expect("fan link exists"));
    (net, dies, fans)
}

#[test]
fn warm_batch_step_does_not_allocate() {
    const LANES: usize = 6;
    const PERIOD: usize = 24;
    let law = HeatSinkLaw::date14();
    let (template, dies, fans) = board();
    let mut nets: Vec<RcNetwork> = (0..LANES).map(|_| template.clone()).collect();
    let mut batch =
        BatchRcNetwork::new(&nets.iter().collect::<Vec<_>>()).expect("lanes share one structure");
    let mut lanes: Vec<&mut RcNetwork> = nets.iter_mut().collect();
    // Per lane, fans walk a six-speed lattice and powers follow a
    // square wave: lanes regroup every step, and the schedule repeats
    // every PERIOD steps, so one period fills the arena.
    let speeds: Vec<KelvinPerWatt> =
        (0..6).map(|i| law.resistance(Rpm::new(2000.0 + 1000.0 * i as f64))).collect();
    let mut step = |k: usize| {
        for (lane, net) in lanes.iter_mut().enumerate() {
            for (i, (&die, &fan)) in dies.iter().zip(&fans).enumerate() {
                let hot = (k / 4 + lane + i).is_multiple_of(2);
                net.set_power(die, Watts::new(if hot { 150.0 } else { 40.0 }));
                net.set_link_resistance_by_id(fan, speeds[(k + lane + 3 * i) % speeds.len()]);
            }
        }
        let dt = Seconds::new(if (k / 6).is_multiple_of(2) { 0.5 } else { 1.0 });
        batch.step(&mut lanes, dt);
    };
    for k in 0..PERIOD {
        step(k);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for k in PERIOD..10 * PERIOD {
        step(k);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "warm batch steps allocated {} times", after - before);
    assert!(batch.cached_factor_count() > 1, "the schedule must exercise several factors");
}

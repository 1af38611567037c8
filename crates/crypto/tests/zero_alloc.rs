//! The exponentiation ladders must not touch the heap: every buffer they
//! need is a stack array, and the group's tables exist before the first
//! call returns. This binary installs a counting allocator and checks that
//! one `pow_g` / `pow` allocates exactly once — the `BigUint` it returns.
//!
//! One test only, so no sibling test thread allocates concurrently; the
//! counter is per-thread besides.

use glimmer_crypto::bignum::BigUint;
use glimmer_crypto::dh::{DhGroup, DhKeyPair, GroupId};
use glimmer_crypto::drbg::Drbg;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: pure delegation to `System`; the counter is a `const`-initialized
// thread-local `Cell` with no destructor, so touching it from inside the
// allocator neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn one_exponentiation_allocates_only_its_result() {
    let mut rng = Drbg::from_seed([9u8; 32]);
    for id in [GroupId::Modp1024, GroupId::Modp2048] {
        // Creating the handle builds the group object (once per process).
        let group = DhGroup::new(id);
        let scalar = group.random_scalar(&mut rng);
        let peer = DhKeyPair::generate(group.clone(), &mut rng).unwrap();
        let base = peer.public().element();

        let (element, count) = allocations_of(|| group.pow_g(&scalar).unwrap());
        assert_eq!(count, 1, "{id:?} pow_g");
        let (shared, count) = allocations_of(|| group.pow(base, &scalar).unwrap());
        assert_eq!(count, 1, "{id:?} pow");
        assert!(element > BigUint::one() && shared > BigUint::one());

        // A second handle reuses the tables: nothing is rebuilt or copied.
        let (_again, count) = allocations_of(|| DhGroup::new(id));
        assert_eq!(count, 0, "{id:?} DhGroup::new");
    }
}

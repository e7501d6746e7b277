//! Device and host buffer arenas, the planar/AoS amplitude store, and the
//! size-classed buffer pool that makes steady-state batch execution
//! allocation-free.

use crate::DeviceSpec;
use bqsim_ell::{AmpPlanes, Lane, Layout};
use bqsim_num::Complex;
use core::fmt;
use std::collections::HashMap;
use std::error::Error;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One arena buffer's amplitude storage, in whichever layout and width the
/// pipeline selected (`BqSimOptions::{layout, precision}`).
///
/// The AoS variant is the PR 3 interleaved `Vec<Complex>`; the planar
/// variants hold the same amplitudes as separate re/im planes
/// ([`AmpPlanes`]) of `f64` or `f32`. Width-matched conversions are pure
/// component moves (no arithmetic), so staging through either layout is
/// bit-exact; copies *into* `f32` planes narrow (the staging path's
/// intended one-rounding-per-entry precision-loss point) and copies *out*
/// widen exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum AmpStore {
    /// Interleaved array-of-structures storage.
    Aos(Vec<Complex>),
    /// Planar structure-of-arrays storage.
    Planar(AmpPlanes<f64>),
    /// Planar storage with single-precision planes.
    PlanarF32(AmpPlanes<f32>),
}

/// State-vector block width for the staging/unpacking transposes: small
/// enough that one cache line per in-flight vector fits L1 with room to
/// spare, large enough to amortise the loop over amplitudes.
const STAGE_TILE: usize = 64;

/// Transposes `vectors` into amplitude-major planes (`plane[r * batch + b]`),
/// narrowing each amplitude once as it lands. See
/// [`HostMemory::alloc_staged_amp`] for the blocking.
fn stage_planes<T: Lane>(planes: &mut AmpPlanes<T>, vectors: &[Vec<Complex>]) {
    let batch = vectors.len();
    let dim = planes.len() / batch;
    let (re, im) = planes.planes_mut();
    for (block, chunk) in vectors.chunks(STAGE_TILE).enumerate() {
        let s0 = block * STAGE_TILE;
        for r in 0..dim {
            let row_re = &mut re[r * batch + s0..r * batch + s0 + chunk.len()];
            let row_im = &mut im[r * batch + s0..r * batch + s0 + chunk.len()];
            for ((o_re, o_im), v) in row_re.iter_mut().zip(row_im.iter_mut()).zip(chunk) {
                let a = v[r];
                *o_re = T::narrow(a.re);
                *o_im = T::narrow(a.im);
            }
        }
    }
}

/// Gathers amplitude-major planes back into one (pre-reserved, empty)
/// state vector per batch member, widening exactly. See
/// [`AmpStore::unpack_states`] for the blocking.
fn unpack_planes<T: Lane>(planes: &AmpPlanes<T>, states: &mut [Vec<Complex>]) {
    let batch = states.len();
    let dim = planes.len() / batch;
    let (re, im) = planes.planes();
    for (block, chunk) in states.chunks_mut(STAGE_TILE).enumerate() {
        let s0 = block * STAGE_TILE;
        for r in 0..dim {
            let row_re = &re[r * batch + s0..r * batch + s0 + chunk.len()];
            let row_im = &im[r * batch + s0..r * batch + s0 + chunk.len()];
            for ((st, &a), &b) in chunk.iter_mut().zip(row_re).zip(row_im) {
                st.push(Complex::new(a.into(), b.into()));
            }
        }
    }
}

impl AmpStore {
    /// An all-zero store of `len` amplitudes in the given layout, with
    /// `f64` amplitudes (16 bytes each).
    pub fn zeroed(len: usize, layout: Layout) -> Self {
        AmpStore::zeroed_width(len, layout, 16)
    }

    /// An all-zero store of `len` amplitudes in the given layout and
    /// element width (16 = `f64` planes/AoS, 8 = `f32` planes).
    ///
    /// # Panics
    ///
    /// Panics on an unsupported width, or width 8 with AoS layout (the
    /// narrow store is planar-only, like the kernels that read it).
    pub fn zeroed_width(len: usize, layout: Layout, width: usize) -> Self {
        AmpStore::zeroed_with_capacity(len, len, layout, width)
    }

    /// Like [`AmpStore::zeroed_width`] but reserving capacity for `cap`
    /// amplitudes, so pool reuse within a size class never reallocates.
    fn zeroed_with_capacity(len: usize, cap: usize, layout: Layout, width: usize) -> Self {
        match (layout, width) {
            (Layout::Aos, 16) => {
                let mut v = Vec::with_capacity(cap.max(len));
                v.resize(len, Complex::ZERO);
                AmpStore::Aos(v)
            }
            (Layout::Planar, 16) => AmpStore::Planar(AmpPlanes::zeroed_with_capacity(len, cap)),
            (Layout::Planar, 8) => AmpStore::PlanarF32(AmpPlanes::zeroed_with_capacity(len, cap)),
            (l, w) => panic!("unsupported amplitude store shape: {l:?} width {w}"),
        }
    }

    /// Which layout this store holds.
    #[inline]
    pub fn layout(&self) -> Layout {
        match self {
            AmpStore::Aos(_) => Layout::Aos,
            AmpStore::Planar(_) | AmpStore::PlanarF32(_) => Layout::Planar,
        }
    }

    /// Bytes one stored amplitude occupies: 16 for `f64` storage, 8 for
    /// `f32` planes. Together with [`AmpStore::layout`] this identifies
    /// the pool shelf a buffer recycles through.
    #[inline]
    pub fn elem_bytes(&self) -> usize {
        match self {
            AmpStore::Aos(_) | AmpStore::Planar(_) => 16,
            AmpStore::PlanarF32(_) => 8,
        }
    }

    /// Number of amplitudes.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            AmpStore::Aos(v) => v.len(),
            AmpStore::Planar(b) => b.len(),
            AmpStore::PlanarF32(b) => b.len(),
        }
    }

    /// Whether the store holds no amplitudes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Amplitudes the store can hold without reallocating.
    #[inline]
    fn capacity(&self) -> usize {
        match self {
            AmpStore::Aos(v) => v.capacity(),
            AmpStore::Planar(b) => b.capacity(),
            AmpStore::PlanarF32(b) => b.capacity(),
        }
    }

    /// Resizes to `len` zeroed amplitudes in place (pool checkout reset).
    fn reset_zeroed(&mut self, len: usize) {
        match self {
            AmpStore::Aos(v) => {
                v.clear();
                v.resize(len, Complex::ZERO);
            }
            AmpStore::Planar(b) => b.reset_zeroed(len),
            AmpStore::PlanarF32(b) => b.reset_zeroed(len),
        }
    }

    /// Sets every amplitude to `v` (zeroing, NaN poisoning).
    pub fn fill(&mut self, v: Complex) {
        match self {
            AmpStore::Aos(vec) => vec.fill(v),
            AmpStore::Planar(b) => b.fill(v),
            AmpStore::PlanarF32(b) => b.fill(v),
        }
    }

    /// Copies the leading `min(src.len(), self.len())` amplitudes from an
    /// interleaved slice — the H2D copy semantics, layout-transparent.
    pub fn copy_prefix_from(&mut self, src: &[Complex]) {
        let src = &src[..src.len().min(self.len())];
        match self {
            AmpStore::Aos(v) => v[..src.len()].copy_from_slice(src),
            AmpStore::Planar(b) => b.copy_from_aos(src),
            AmpStore::PlanarF32(b) => b.copy_from_aos(src),
        }
    }

    /// Copies the leading `min(src.len(), self.len())` amplitudes from
    /// another store. Layout-matched, width-matched pairs move whole
    /// planes; layout-mismatched pairs de/re-interleave on the fly.
    /// Width-matched combinations are pure component moves, so the staged
    /// bytes are bit-identical regardless of either side's layout; copies
    /// *into* an `f32` store narrow (one rounding per amplitude) and
    /// copies *out of* one widen exactly.
    pub fn copy_store_from(&mut self, src: &AmpStore) {
        match (self, src) {
            (dst, AmpStore::Aos(s)) => dst.copy_prefix_from(s),
            (AmpStore::Aos(d), src) => src.copy_prefix_to(d),
            (AmpStore::Planar(d), AmpStore::Planar(s)) => d.copy_prefix_from(s),
            (AmpStore::Planar(d), AmpStore::PlanarF32(s)) => d.convert_prefix_from(s),
            (AmpStore::PlanarF32(d), AmpStore::Planar(s)) => d.convert_prefix_from(s),
            (AmpStore::PlanarF32(d), AmpStore::PlanarF32(s)) => d.copy_prefix_from(s),
        }
    }

    /// Unpacks the amplitude-major batch layout back into one state
    /// vector per batch member — the layout-aware counterpart of
    /// [`bqsim_ell::unpack_batch`]. The planar arms gather straight from
    /// the component planes, so no interleaved intermediate is built.
    ///
    /// The transpose runs amplitude-outer over blocks of
    /// [`STAGE_TILE`] states: batch strides are powers of two, so a
    /// naive state-outer gather walks the arrays at a page-aligned
    /// stride that lands every access in the same cache set. Blocking
    /// keeps one write line per in-flight state hot while the source
    /// rows are read contiguously, exactly once.
    ///
    /// # Panics
    ///
    /// Panics if the store's length is not a multiple of `batch`.
    pub fn unpack_states(&self, batch: usize) -> Vec<Vec<Complex>> {
        assert!(
            batch > 0 && self.len().is_multiple_of(batch),
            "bad batch layout"
        );
        let dim = self.len() / batch;
        // Reserve-and-push instead of zero-fill-and-store: each state is
        // written exactly once, so pre-zeroing would be a second full
        // pass over the output.
        let mut states: Vec<Vec<Complex>> = (0..batch).map(|_| Vec::with_capacity(dim)).collect();
        match self {
            AmpStore::Aos(v) => {
                for (block, chunk) in states.chunks_mut(STAGE_TILE).enumerate() {
                    let s0 = block * STAGE_TILE;
                    for r in 0..dim {
                        let row = &v[r * batch + s0..r * batch + s0 + chunk.len()];
                        for (st, &a) in chunk.iter_mut().zip(row) {
                            st.push(a);
                        }
                    }
                }
            }
            AmpStore::Planar(b) => unpack_planes(b, &mut states),
            AmpStore::PlanarF32(b) => unpack_planes(b, &mut states),
        }
        states
    }

    /// Copies the leading `min(self.len(), dst.len())` amplitudes into an
    /// interleaved slice — the D2H copy semantics, layout-transparent.
    pub fn copy_prefix_to(&self, dst: &mut [Complex]) {
        let len = self.len().min(dst.len());
        let dst = &mut dst[..len];
        match self {
            AmpStore::Aos(v) => dst.copy_from_slice(&v[..len]),
            AmpStore::Planar(b) => b.copy_to_aos(dst),
            AmpStore::PlanarF32(b) => b.copy_to_aos(dst),
        }
    }

    /// The interleaved view of an AoS store.
    ///
    /// # Panics
    ///
    /// Panics on a planar store: the AoS-only call sites (generic spMM,
    /// the DD-spMV ablation, AoS tests) must never see planar buffers —
    /// `BqSimOptions::effective_layout` guarantees that, and this panic
    /// is the backstop.
    #[inline]
    pub fn as_aos(&self) -> &[Complex] {
        match self {
            AmpStore::Aos(v) => v,
            AmpStore::Planar(_) | AmpStore::PlanarF32(_) => {
                panic!("planar amplitude store accessed as AoS")
            }
        }
    }

    /// Mutable interleaved view; see [`AmpStore::as_aos`] for the panic
    /// contract.
    #[inline]
    pub fn as_aos_mut(&mut self) -> &mut [Complex] {
        match self {
            AmpStore::Aos(v) => v,
            AmpStore::Planar(_) | AmpStore::PlanarF32(_) => {
                panic!("planar amplitude store accessed as AoS")
            }
        }
    }
}

/// Shared read access to one buffer of an arena, handed out while the arena
/// itself is only borrowed immutably — this is what lets the parallel
/// executor's workers touch disjoint buffers of the same [`DeviceMemory`]
/// concurrently. Derefs to `&[Complex]` for AoS buffers (the overwhelmingly
/// common case in tests and the ablation paths); layout-aware call sites
/// use [`BufferRef::store`] instead.
pub struct BufferRef<'a>(RwLockReadGuard<'a, AmpStore>);

impl BufferRef<'_> {
    /// The underlying store, whichever layout it holds.
    #[inline]
    pub fn store(&self) -> &AmpStore {
        &self.0
    }
}

impl Deref for BufferRef<'_> {
    type Target = [Complex];
    #[inline]
    fn deref(&self) -> &[Complex] {
        self.0.as_aos()
    }
}

/// Exclusive write access to one buffer of an arena (see [`BufferRef`]).
/// Derefs to `&mut [Complex]` for AoS buffers.
pub struct BufferRefMut<'a>(RwLockWriteGuard<'a, AmpStore>);

impl BufferRefMut<'_> {
    /// The underlying store, whichever layout it holds.
    #[inline]
    pub fn store(&self) -> &AmpStore {
        &self.0
    }

    /// Mutable access to the underlying store.
    #[inline]
    pub fn store_mut(&mut self) -> &mut AmpStore {
        &mut self.0
    }
}

impl Deref for BufferRefMut<'_> {
    type Target = [Complex];
    #[inline]
    fn deref(&self) -> &[Complex] {
        self.0.as_aos()
    }
}

impl DerefMut for BufferRefMut<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [Complex] {
        self.0.as_aos_mut()
    }
}

/// Locks for reading, recovering the guard if a panicking worker poisoned
/// the lock (amplitude data stays readable for post-mortem inspection; the
/// panic itself still propagates through the thread scope).
fn lock_read(lock: &RwLock<AmpStore>) -> RwLockReadGuard<'_, AmpStore> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Locks for writing; see [`lock_read`] for the poison policy.
fn lock_write(lock: &RwLock<AmpStore>) -> RwLockWriteGuard<'_, AmpStore> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Handle to a device buffer inside a [`DeviceMemory`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(usize);

impl BufferId {
    /// The buffer's allocation index in its arena (introspection for
    /// analyzers and reports).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a host buffer inside a [`HostMemory`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostBufId(usize);

impl HostBufId {
    /// The buffer's allocation index in its arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Error returned when a device allocation exceeds the device's capacity —
/// the failure mode behind the paper's Table 4 "-" entries (fused dense
/// gates overflow cuQuantum's memory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocDeviceError {
    requested_bytes: u64,
    free_bytes: u64,
}

impl AllocDeviceError {
    /// Builds an allocation error from the requested and available sizes.
    pub fn new(requested_bytes: u64, free_bytes: u64) -> Self {
        AllocDeviceError {
            requested_bytes,
            free_bytes,
        }
    }

    /// Bytes the failed allocation asked for.
    pub fn requested_bytes(&self) -> u64 {
        self.requested_bytes
    }

    /// Bytes that were actually free when the allocation failed — together
    /// with [`requested_bytes`](Self::requested_bytes) this makes the
    /// failure actionable (how far over budget was the ask?).
    pub fn free_bytes(&self) -> u64 {
        self.free_bytes
    }
}

impl fmt::Display for AllocDeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device allocation of {} bytes exceeds free device memory ({} bytes)",
            self.requested_bytes, self.free_bytes
        )
    }
}

impl Error for AllocDeviceError {}

/// Point-in-time counters of a [`BufferPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Checkouts served by recycling a shelved buffer (no heap allocation).
    pub hits: u64,
    /// Checkouts that had to build a fresh buffer (warm-up or a size
    /// class/layout seen for the first time).
    pub misses: u64,
    /// Payload bytes currently sitting idle on the shelves. These live in
    /// host RAM only — they are *not* device bytes and never count against
    /// `DeviceMemory` capacity or its high-water mark.
    pub idle_bytes: u64,
    /// Buffers currently shelved.
    pub idle_buffers: u64,
}

/// What a [`PoolEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolEventKind {
    /// A checkout served by recycling a shelved buffer.
    CheckoutHit,
    /// A checkout that built a fresh buffer because its shelf was empty.
    CheckoutMiss,
    /// A buffer returned to its shelf.
    Return,
}

/// One entry in a [`BufferPool`]'s event log: which shelf was touched and
/// how. Events are recorded *inside* the shelves critical section, so the
/// log order is exactly the order in which the shelf occupancy changed —
/// the property the pool-aliasing analysis in `bqsim-analyze` relies on to
/// replay occupancy without false positives under concurrency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolEvent {
    /// Monotonic sequence number (0-based, gap-free until the log cap).
    pub seq: u64,
    /// The shelf's size class (power-of-two amplitude count).
    pub class: usize,
    /// The shelf's buffer layout.
    pub layout: Layout,
    /// The shelf's element width in bytes (16 = `f64`, 8 = `f32`).
    pub width: usize,
    /// What happened.
    pub kind: PoolEventKind,
}

/// Cap on retained pool events: generous for any analyzable run, small
/// enough that a long campaign cannot grow the log without bound.
const POOL_EVENT_CAP: usize = 1 << 16;

#[derive(Debug, Default)]
struct PoolEventLog {
    seq: u64,
    entries: Vec<PoolEvent>,
    dropped: u64,
}

impl PoolEventLog {
    fn record(&mut self, class: usize, layout: Layout, width: usize, kind: PoolEventKind) {
        let seq = self.seq;
        self.seq += 1;
        if self.entries.len() < POOL_EVENT_CAP {
            self.entries.push(PoolEvent {
                seq,
                class,
                layout,
                width,
                kind,
            });
        } else {
            self.dropped += 1;
        }
    }
}

/// Size-classed recycling pool for [`AmpStore`] buffers, shared by the
/// device and host arenas of consecutive batch runs.
///
/// Buffers are shelved by `(size class, layout, element width)` where the
/// size class is the next power of two of the amplitude count and the
/// width is [`AmpStore::elem_bytes`] (so a precision switch mid-campaign
/// can never hand an `f32` buffer to an `f64` checkout); fresh buffers reserve the
/// whole class up front, so any later checkout within the class resizes
/// inside existing capacity — after one warm-up batch, the steady-state
/// H2D/kernel/D2H cycle performs **zero heap allocations**. Checked-out
/// buffers are always reset to the exact state a fresh allocation would
/// have (zero-filled at the requested length), so pooling is invisible to
/// results, fault determinism, and the OOM trap sequence (`charge` runs
/// identically either way).
#[derive(Debug, Default)]
pub struct BufferPool {
    shelves: Mutex<Shelves>,
    events: Mutex<PoolEventLog>,
}

/// The pool's mutable core: shelf occupancy *and* its counters live under
/// one mutex, updated in the same critical section that moves a buffer.
/// That makes [`BufferPool::stats`] a true snapshot — a concurrent reader
/// (the service's `status` reporter polls mid-run) can never observe a
/// hit counted whose buffer still shows as idle, or an `idle_buffers`
/// decrement whose `idle_bytes` has not moved yet. With the counters on
/// separate relaxed atomics (the previous design) every one of those torn
/// combinations was observable.
#[derive(Debug, Default)]
struct Shelves {
    map: HashMap<(usize, Layout, usize), Vec<AmpStore>>,
    stats: PoolStats,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// The size class (shelf key) serving `len` amplitudes.
    fn class_of(len: usize) -> usize {
        len.next_power_of_two().max(1)
    }

    /// The largest class a buffer of this capacity can safely serve
    /// (rounding *down*, so a shelved buffer always has capacity ≥ its
    /// shelf's class and reuse never reallocates).
    fn shelf_for(cap: usize) -> usize {
        let up = cap.max(1).next_power_of_two();
        if up == cap.max(1) {
            up
        } else {
            up / 2
        }
    }

    /// Appends a pool event. Must be called while the shelves guard is
    /// held so the log order matches the shelf-occupancy order (the lock
    /// order is always shelves → events, never the reverse).
    fn log_event(&self, class: usize, layout: Layout, width: usize, kind: PoolEventKind) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(class, layout, width, kind);
    }

    /// Takes a zeroed buffer of `len` amplitudes in `layout` with
    /// `width`-byte elements, recycling a shelved one when possible.
    fn checkout(&self, len: usize, layout: Layout, width: usize) -> AmpStore {
        let class = Self::class_of(len);
        let recycled = {
            let mut shelves = self.shelves.lock().unwrap_or_else(PoisonError::into_inner);
            let popped = shelves
                .map
                .get_mut(&(class, layout, width))
                .and_then(Vec::pop);
            if popped.is_some() {
                shelves.stats.hits += 1;
                shelves.stats.idle_bytes -= (class * width) as u64;
                shelves.stats.idle_buffers -= 1;
            } else {
                shelves.stats.misses += 1;
            }
            self.log_event(
                class,
                layout,
                width,
                if popped.is_some() {
                    PoolEventKind::CheckoutHit
                } else {
                    PoolEventKind::CheckoutMiss
                },
            );
            popped
        };
        match recycled {
            Some(mut store) => {
                store.reset_zeroed(len);
                store
            }
            None => AmpStore::zeroed_with_capacity(len, class, layout, width),
        }
    }

    /// Returns a buffer to its shelf.
    fn give_back(&self, store: AmpStore) {
        let shelf = Self::shelf_for(store.capacity());
        let layout = store.layout();
        let width = store.elem_bytes();
        let mut shelves = self.shelves.lock().unwrap_or_else(PoisonError::into_inner);
        shelves.stats.idle_bytes += (shelf * width) as u64;
        shelves.stats.idle_buffers += 1;
        shelves
            .map
            .entry((shelf, layout, width))
            .or_default()
            .push(store);
        self.log_event(shelf, layout, width, PoolEventKind::Return);
    }

    /// A snapshot of the event log, in shelf-occupancy order (see
    /// [`PoolEvent`]). Consumed by the pool-aliasing analysis pass.
    pub fn events(&self) -> Vec<PoolEvent> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .clone()
    }

    /// Events discarded after the log filled (0 in any run the analyzer
    /// should trust end-to-end; a non-zero value downgrades the pool
    /// pass to a truncation warning).
    pub fn events_dropped(&self) -> u64 {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dropped
    }

    /// A consistent snapshot of the counters: taken under the shelves
    /// mutex, so the four fields always describe one instant of shelf
    /// occupancy even when a concurrent status reporter races active
    /// checkouts (no torn hit/miss or idle reads).
    pub fn stats(&self) -> PoolStats {
        self.shelves
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats
    }
}

/// Arena of simulated device buffers holding complex amplitudes.
///
/// Capacity accounting follows the device spec so out-of-memory behaviour
/// (and only that) is simulated; the actual data lives in host RAM.
///
/// Each buffer sits behind its own [`RwLock`], so access only needs `&self`:
/// kernels running on different worker threads can hold guards to disjoint
/// buffers simultaneously. Task-graph dependency edges (checked by
/// `bqsim-analyze`'s race pass) guarantee that conflicting accesses never
/// run concurrently, so the locks are uncontended in practice — they exist
/// to make the aliasing safe, not to serialise the schedule.
#[derive(Debug)]
pub struct DeviceMemory {
    buffers: Vec<RwLock<AmpStore>>,
    capacity_bytes: u64,
    used_bytes: u64,
    high_water_bytes: u64,
    alloc_count: usize,
    oom_traps: Vec<usize>,
    pool: Option<Arc<BufferPool>>,
}

impl DeviceMemory {
    /// Creates an arena with the capacity of the given device.
    pub fn new(spec: &DeviceSpec) -> Self {
        DeviceMemory {
            buffers: Vec::new(),
            capacity_bytes: spec.memory_bytes,
            used_bytes: 0,
            high_water_bytes: 0,
            alloc_count: 0,
            oom_traps: Vec::new(),
            pool: None,
        }
    }

    /// Creates an arena whose buffer storage is checked out of (and on
    /// drop returned to) the given pool. Pooling changes **only** where
    /// the backing memory comes from: the allocation sequence, capacity
    /// charging, OOM traps, and zero-initialisation are identical to an
    /// unpooled arena.
    pub fn with_pool(spec: &DeviceSpec, pool: Arc<BufferPool>) -> Self {
        let mut mem = DeviceMemory::new(spec);
        mem.pool = Some(pool);
        mem
    }

    /// Arms injected allocation failures: the `alloc`-th allocation attempt
    /// (counting both [`alloc`](Self::alloc) and
    /// [`reserve_bytes`](Self::reserve_bytes), from the arena's creation)
    /// fails with [`AllocDeviceError`] regardless of free capacity —
    /// modelling fragmentation and external memory pressure for the fault
    /// plan's OOM faults. Each trap fires at most once by construction
    /// (the sequence counter never revisits an index).
    pub fn inject_oom_at(&mut self, allocs: &[usize]) {
        self.oom_traps.extend_from_slice(allocs);
    }

    /// Advances the allocation sequence, returning an error if this attempt
    /// is trapped or would exceed capacity.
    fn charge(&mut self, bytes: u64) -> Result<(), AllocDeviceError> {
        let seq = self.alloc_count;
        self.alloc_count += 1;
        let free = self.capacity_bytes - self.used_bytes;
        if self.oom_traps.contains(&seq) || bytes > free {
            return Err(AllocDeviceError {
                requested_bytes: bytes,
                free_bytes: free,
            });
        }
        self.used_bytes += bytes;
        self.high_water_bytes = self.high_water_bytes.max(self.used_bytes);
        Ok(())
    }

    /// Allocates a zero-filled AoS buffer of `len` complex amplitudes.
    ///
    /// # Errors
    ///
    /// Returns [`AllocDeviceError`] if the allocation would exceed device
    /// capacity (or an injected OOM trap fires, see
    /// [`inject_oom_at`](Self::inject_oom_at)).
    pub fn alloc(&mut self, len: usize) -> Result<BufferId, AllocDeviceError> {
        self.alloc_layout(len, Layout::Aos)
    }

    /// Allocates a zero-filled buffer of `len` amplitudes in the given
    /// layout. Both layouts charge the same 16 bytes per amplitude, so
    /// capacity accounting (and the OOM degradation ladder built on it)
    /// is layout-independent.
    ///
    /// # Errors
    ///
    /// As [`DeviceMemory::alloc`].
    pub fn alloc_layout(
        &mut self,
        len: usize,
        layout: Layout,
    ) -> Result<BufferId, AllocDeviceError> {
        self.alloc_amp(len, layout, 16)
    }

    /// Allocates a zero-filled buffer of `len` amplitudes in the given
    /// layout and element width, charging `len * width` device bytes —
    /// the `f32` planes of the narrow-precision arms genuinely halve
    /// device residency. The allocation *sequence* advances exactly as
    /// for a 16-byte-wide allocation, so injected OOM traps fire at the
    /// same indices regardless of precision.
    ///
    /// # Errors
    ///
    /// As [`DeviceMemory::alloc`].
    pub fn alloc_amp(
        &mut self,
        len: usize,
        layout: Layout,
        width: usize,
    ) -> Result<BufferId, AllocDeviceError> {
        self.charge((len * width) as u64)?;
        let store = match &self.pool {
            Some(pool) => pool.checkout(len, layout, width),
            None => AmpStore::zeroed_width(len, layout, width),
        };
        self.buffers.push(RwLock::new(store));
        Ok(BufferId(self.buffers.len() - 1))
    }

    /// Reserves capacity accounting for non-amplitude device data (gate
    /// tables etc.) without backing storage.
    ///
    /// # Errors
    ///
    /// Returns [`AllocDeviceError`] on overflow, like [`DeviceMemory::alloc`].
    pub fn reserve_bytes(&mut self, bytes: u64) -> Result<(), AllocDeviceError> {
        self.charge(bytes)
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Total device capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes - self.used_bytes
    }

    /// Highest `used_bytes` ever reached — reported per device in
    /// `RunHealth` and consulted by the OOM injection point.
    ///
    /// This counts **live** allocations only: buffers shelved in the
    /// arena's [`BufferPool`] are host-RAM residency, not device usage,
    /// and are reported separately via
    /// [`pooled_idle_bytes`](Self::pooled_idle_bytes) so OOM-ladder
    /// decisions are not skewed by recycling.
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water_bytes
    }

    /// Payload bytes currently shelved in this arena's pool (0 for an
    /// unpooled arena) — the pool-residency figure surfaced next to the
    /// high-water mark.
    pub fn pooled_idle_bytes(&self) -> u64 {
        self.pool.as_ref().map_or(0, |p| p.stats().idle_bytes)
    }

    /// This arena's pool counters, if it was built with
    /// [`with_pool`](Self::with_pool).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.as_ref().map(|p| p.stats())
    }

    /// Read access to a buffer. The guard holds the buffer's read lock until
    /// dropped; concurrent readers are fine, and conflicting writers are
    /// excluded by the task graph before they are excluded by the lock.
    pub fn buffer(&self, id: BufferId) -> BufferRef<'_> {
        BufferRef(lock_read(&self.buffers[id.0]))
    }

    /// Write access to a buffer (exclusive while the guard lives).
    pub fn buffer_mut(&self, id: BufferId) -> BufferRefMut<'_> {
        BufferRefMut(lock_write(&self.buffers[id.0]))
    }

    /// Read/write access to two distinct buffers at once (kernel
    /// input/output). Distinctness is asserted rather than trusted to the
    /// locks: same-buffer input/output would deadlock, and is a scheduling
    /// bug in any case.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn buffer_pair_mut(&self, a: BufferId, b: BufferId) -> (BufferRef<'_>, BufferRefMut<'_>) {
        assert_ne!(a, b, "kernel input and output buffers must differ");
        (self.buffer(a), self.buffer_mut(b))
    }
}

impl Drop for DeviceMemory {
    /// Returns every buffer to the pool (when pooled) so the next arena —
    /// typically the next batch of the same campaign — can recycle them.
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            for lock in self.buffers.drain(..) {
                pool.give_back(lock.into_inner().unwrap_or_else(PoisonError::into_inner));
            }
        }
    }
}

/// Arena of host (pageable/pinned) buffers used as copy sources and sinks.
///
/// Per-buffer locking mirrors [`DeviceMemory`] so parallel copy tasks can
/// stage into disjoint host buffers from worker threads. Staging buffers
/// are allocated in whichever layout the caller asks for — the simulator
/// stages in the device buffers' layout so the H2D/D2H copies degenerate
/// to plane `memcpy`s (`AmpStore::copy_store_from` still converts on the
/// fly if the two sides disagree).
#[derive(Debug, Default)]
pub struct HostMemory {
    buffers: Vec<RwLock<AmpStore>>,
    pool: Option<Arc<BufferPool>>,
}

impl HostMemory {
    /// Creates an empty host arena.
    pub fn new() -> Self {
        HostMemory::default()
    }

    /// Creates a host arena that recycles buffer storage through `pool`
    /// (see [`DeviceMemory::with_pool`]; the two arenas may share one
    /// pool — host buffers shelve under their own AoS size classes).
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        HostMemory {
            buffers: Vec::new(),
            pool: Some(pool),
        }
    }

    /// Allocates a zero-filled host buffer of `len` amplitudes.
    pub fn alloc_zeroed(&mut self, len: usize) -> HostBufId {
        self.alloc_zeroed_amp(len, Layout::Aos, 16)
    }

    /// Allocates a zero-filled host buffer of `len` amplitudes in the
    /// given layout and element width (see [`AmpStore::zeroed_width`]).
    /// Staging hosts in the device buffers' layout and width turns the
    /// H2D/D2H copies into plane copies instead of per-batch
    /// de/re-interleave or narrowing passes.
    pub fn alloc_zeroed_amp(&mut self, len: usize, layout: Layout, width: usize) -> HostBufId {
        let store = match &self.pool {
            Some(pool) => pool.checkout(len, layout, width),
            None => AmpStore::zeroed_width(len, layout, width),
        };
        self.buffers.push(RwLock::new(store));
        HostBufId(self.buffers.len() - 1)
    }

    /// Stages a batch of state vectors directly into a pooled host buffer
    /// in the amplitude-major device layout — the fused, allocation-free
    /// replacement for `pack_batch` + [`alloc_copy_of`](Self::alloc_copy_of)
    /// (which built a fresh interleaved `Vec` per batch only to copy it
    /// once more into pooled storage).
    ///
    /// The transpose runs amplitude-outer over blocks of [`STAGE_TILE`]
    /// state vectors (see [`AmpStore::unpack_states`] for why the
    /// power-of-two batch stride makes the naive order pathological):
    /// each block's output row segment is written contiguously while the
    /// block's source cache lines stay hot across consecutive `r`.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have differing lengths.
    pub fn alloc_staged_from(&mut self, vectors: &[Vec<Complex>], layout: Layout) -> HostBufId {
        self.alloc_staged_amp(vectors, layout, 16)
    }

    /// Width-aware [`alloc_staged_from`](Self::alloc_staged_from): with
    /// `width == 8` the transpose narrows each amplitude as it lands in
    /// the `f32` planes — the single rounding the adaptive-precision
    /// staging path performs per input amplitude.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have differing lengths, or on an
    /// unsupported `(layout, width)` shape.
    pub fn alloc_staged_amp(
        &mut self,
        vectors: &[Vec<Complex>],
        layout: Layout,
        width: usize,
    ) -> HostBufId {
        let batch = vectors.len();
        assert!(batch > 0, "empty batch");
        let dim = vectors[0].len();
        assert!(
            vectors.iter().all(|v| v.len() == dim),
            "ragged batch vectors"
        );
        let len = dim * batch;
        let mut store = match &self.pool {
            Some(pool) => pool.checkout(len, layout, width),
            None => AmpStore::zeroed_width(len, layout, width),
        };
        match &mut store {
            AmpStore::Aos(out) => {
                for (block, chunk) in vectors.chunks(STAGE_TILE).enumerate() {
                    let s0 = block * STAGE_TILE;
                    for r in 0..dim {
                        let row = &mut out[r * batch + s0..r * batch + s0 + chunk.len()];
                        for (o, v) in row.iter_mut().zip(chunk) {
                            *o = v[r];
                        }
                    }
                }
            }
            AmpStore::Planar(b) => stage_planes(b, vectors),
            AmpStore::PlanarF32(b) => stage_planes(b, vectors),
        }
        self.buffers.push(RwLock::new(store));
        HostBufId(self.buffers.len() - 1)
    }

    /// Allocates a host buffer initialised with `data` (takes ownership;
    /// prefer [`alloc_copy_of`](Self::alloc_copy_of) in steady-state paths
    /// so the bytes land in pooled storage instead of a fresh `Vec`).
    pub fn alloc_from(&mut self, data: Vec<Complex>) -> HostBufId {
        self.buffers.push(RwLock::new(AmpStore::Aos(data)));
        HostBufId(self.buffers.len() - 1)
    }

    /// Allocates a host buffer holding a copy of `data`, drawing the
    /// backing storage from the pool when one is attached — the
    /// allocation-free replacement for `alloc_from(data.to_vec())`.
    pub fn alloc_copy_of(&mut self, data: &[Complex]) -> HostBufId {
        let store = match &self.pool {
            Some(pool) => {
                let mut store = pool.checkout(data.len(), Layout::Aos, 16);
                store.copy_prefix_from(data);
                store
            }
            None => AmpStore::Aos(data.to_vec()),
        };
        self.buffers.push(RwLock::new(store));
        HostBufId(self.buffers.len() - 1)
    }

    /// Read access (guard semantics as in [`DeviceMemory::buffer`]).
    pub fn buffer(&self, id: HostBufId) -> BufferRef<'_> {
        BufferRef(lock_read(&self.buffers[id.0]))
    }

    /// Write access.
    pub fn buffer_mut(&self, id: HostBufId) -> BufferRefMut<'_> {
        BufferRefMut(lock_write(&self.buffers[id.0]))
    }
}

impl Drop for HostMemory {
    /// Returns pooled buffers to the shelves (see [`DeviceMemory`]'s
    /// `Drop`); buffers created by [`alloc_from`](Self::alloc_from) join
    /// the pool too, seeding it with their storage.
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            for lock in self.buffers.drain(..) {
                pool.give_back(lock.into_inner().unwrap_or_else(PoisonError::into_inner));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_tracks_capacity() {
        let spec = DeviceSpec::tiny_test_gpu(); // 1 GiB
        let mut mem = DeviceMemory::new(&spec);
        let a = mem.alloc(1024).unwrap();
        assert_eq!(mem.used_bytes(), 1024 * 16);
        assert_eq!(mem.buffer(a).len(), 1024);
        // A 2 GiB ask must fail.
        let err = mem.alloc(1 << 27).unwrap_err();
        assert!(err.requested_bytes() == (1u64 << 27) * 16);
        assert!(err.to_string().contains("exceeds free device memory"));
    }

    #[test]
    fn reserve_bytes_counts_against_capacity() {
        let spec = DeviceSpec::tiny_test_gpu();
        let mut mem = DeviceMemory::new(&spec);
        mem.reserve_bytes(1 << 29).unwrap();
        mem.reserve_bytes(1 << 29).unwrap();
        assert!(mem.reserve_bytes(1).is_err());
    }

    #[test]
    fn buffer_pair_mut_disjoint() {
        let spec = DeviceSpec::tiny_test_gpu();
        let mut mem = DeviceMemory::new(&spec);
        let a = mem.alloc(4).unwrap();
        let b = mem.alloc(4).unwrap();
        mem.buffer_mut(a)[0] = Complex::ONE;
        let (src, mut dst) = mem.buffer_pair_mut(a, b);
        dst[0] = src[0];
        drop((src, dst));
        assert_eq!(mem.buffer(b)[0], Complex::ONE);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn buffer_pair_same_panics() {
        let spec = DeviceSpec::tiny_test_gpu();
        let mut mem = DeviceMemory::new(&spec);
        let a = mem.alloc(4).unwrap();
        let _ = mem.buffer_pair_mut(a, a);
    }

    #[test]
    fn alloc_error_reports_requested_vs_free() {
        let spec = DeviceSpec::tiny_test_gpu(); // 1 GiB
        let mut mem = DeviceMemory::new(&spec);
        mem.alloc(1024).unwrap();
        let err = mem.alloc(1 << 27).unwrap_err();
        assert_eq!(err.requested_bytes(), (1u64 << 27) * 16);
        assert_eq!(err.free_bytes(), (1u64 << 30) - 1024 * 16);
        assert_eq!(mem.free_bytes(), err.free_bytes());
        assert_eq!(mem.capacity_bytes(), 1 << 30);
    }

    #[test]
    fn high_water_mark_tracks_peak_usage() {
        let spec = DeviceSpec::tiny_test_gpu();
        let mut mem = DeviceMemory::new(&spec);
        assert_eq!(mem.high_water_bytes(), 0);
        mem.alloc(1024).unwrap();
        mem.reserve_bytes(4096).unwrap();
        assert_eq!(mem.high_water_bytes(), 1024 * 16 + 4096);
        assert_eq!(mem.high_water_bytes(), mem.used_bytes());
    }

    #[test]
    fn injected_oom_fires_exactly_once_at_its_sequence_index() {
        let spec = DeviceSpec::tiny_test_gpu();
        let mut mem = DeviceMemory::new(&spec);
        mem.inject_oom_at(&[1]);
        mem.alloc(8).unwrap(); // seq 0
        let err = mem.alloc(8).unwrap_err(); // seq 1: trapped
        assert_eq!(err.requested_bytes(), 128);
        assert!(err.free_bytes() > 128, "trap fired despite free capacity");
        mem.alloc(8).unwrap(); // seq 2: trap does not re-fire
        mem.reserve_bytes(64).unwrap(); // seq 3 shares the counter
        assert_eq!(mem.used_bytes(), 2 * 128 + 64);
    }

    #[test]
    fn reserve_bytes_shares_the_trap_sequence() {
        let spec = DeviceSpec::tiny_test_gpu();
        let mut mem = DeviceMemory::new(&spec);
        mem.inject_oom_at(&[0]);
        assert!(mem.reserve_bytes(16).is_err());
        assert!(mem.reserve_bytes(16).is_ok());
    }

    #[test]
    fn host_roundtrip() {
        let mut host = HostMemory::new();
        let h = host.alloc_from(vec![Complex::I; 3]);
        assert_eq!(host.buffer(h)[2], Complex::I);
        host.buffer_mut(h)[0] = Complex::ONE;
        assert_eq!(host.buffer(h)[0], Complex::ONE);
    }

    #[test]
    fn planar_buffers_roundtrip_prefix_copies() {
        let spec = DeviceSpec::tiny_test_gpu();
        let mut mem = DeviceMemory::new(&spec);
        let d = mem.alloc_layout(4, Layout::Planar).unwrap();
        let data: Vec<Complex> = (0..4).map(|i| Complex::new(i as f64, -1.0)).collect();
        mem.buffer_mut(d).store_mut().copy_prefix_from(&data);
        let mut back = vec![Complex::ZERO; 4];
        mem.buffer(d).store().copy_prefix_to(&mut back);
        assert_eq!(back, data);
        assert_eq!(mem.buffer(d).store().layout(), Layout::Planar);
        // Device accounting is layout-independent.
        assert_eq!(mem.used_bytes(), 4 * 16);
    }

    #[test]
    #[should_panic(expected = "accessed as AoS")]
    fn planar_buffer_rejects_aos_view() {
        let spec = DeviceSpec::tiny_test_gpu();
        let mut mem = DeviceMemory::new(&spec);
        let d = mem.alloc_layout(4, Layout::Planar).unwrap();
        let _ = mem.buffer(d)[0];
    }

    /// After a warm-up arena populates the shelves, a second arena with
    /// the same allocation shape must be served entirely from the pool —
    /// the allocation-free steady state — and recycled buffers must come
    /// back zeroed.
    #[test]
    fn pool_reuse_is_allocation_free_and_zeroed() {
        let spec = DeviceSpec::tiny_test_gpu();
        let pool = Arc::new(BufferPool::new());
        {
            let mut mem = DeviceMemory::with_pool(&spec, Arc::clone(&pool));
            let a = mem.alloc_layout(100, Layout::Planar).unwrap();
            let b = mem.alloc(64).unwrap();
            mem.buffer_mut(a)
                .store_mut()
                .fill(Complex::new(f64::NAN, f64::NAN));
            mem.buffer_mut(b)[0] = Complex::ONE;
        }
        let warm = pool.stats();
        assert_eq!(warm.misses, 2);
        assert_eq!(warm.hits, 0);
        assert_eq!(warm.idle_buffers, 2);
        // 100 amps shelve under class 128, 64 under class 64.
        assert_eq!(warm.idle_bytes, (128 + 64) * 16);

        {
            let mut mem = DeviceMemory::with_pool(&spec, Arc::clone(&pool));
            // Same classes, different exact lengths: still pool hits.
            let a = mem.alloc_layout(96, Layout::Planar).unwrap();
            let b = mem.alloc(64).unwrap();
            assert_eq!(mem.pool_stats().unwrap().hits, 2);
            assert_eq!(mem.pool_stats().unwrap().misses, 2);
            assert_eq!(mem.pooled_idle_bytes(), 0);
            // NaN poison from the previous arena must not leak through.
            assert_eq!(
                mem.buffer(a).store().unpack_states(1),
                vec![vec![Complex::ZERO; 96]]
            );
            assert!(mem.buffer(b).iter().all(|&c| c == Complex::ZERO));
            // High-water still tracks live bytes only.
            assert_eq!(mem.high_water_bytes(), (96 + 64) * 16);
        }
        assert_eq!(pool.stats().idle_buffers, 2);
    }

    #[test]
    fn host_pool_recycles_copy_buffers() {
        let pool = Arc::new(BufferPool::new());
        let data: Vec<Complex> = (0..10).map(|i| Complex::new(i as f64, 0.5)).collect();
        {
            let mut host = HostMemory::with_pool(Arc::clone(&pool));
            let h = host.alloc_copy_of(&data);
            let o = host.alloc_zeroed(10);
            assert_eq!(&host.buffer(h)[..], &data[..]);
            assert!(host.buffer(o).iter().all(|&c| c == Complex::ZERO));
        }
        assert_eq!(pool.stats().misses, 2);
        {
            let mut host = HostMemory::with_pool(Arc::clone(&pool));
            let h = host.alloc_copy_of(&data);
            let o = host.alloc_zeroed(10);
            assert_eq!(pool.stats().hits, 2);
            assert_eq!(&host.buffer(h)[..], &data[..]);
            assert!(host.buffer(o).iter().all(|&c| c == Complex::ZERO));
        }
    }

    /// An `f32` device buffer charges half the bytes of an `f64` one,
    /// shares the OOM trap sequence, and round-trips exactly-`f32`
    /// values through the narrowing prefix copies.
    #[test]
    fn f32_buffers_charge_half_and_roundtrip_exact_values() {
        let spec = DeviceSpec::tiny_test_gpu();
        let mut mem = DeviceMemory::new(&spec);
        let d = mem.alloc_amp(4, Layout::Planar, 8).unwrap();
        assert_eq!(mem.used_bytes(), 4 * 8);
        assert_eq!(mem.buffer(d).store().elem_bytes(), 8);
        assert_eq!(mem.buffer(d).store().layout(), Layout::Planar);
        // Exactly representable values survive the narrow/widen cycle.
        let data: Vec<Complex> = (0..4).map(|i| Complex::new(i as f64, -0.5)).collect();
        mem.buffer_mut(d).store_mut().copy_prefix_from(&data);
        let mut back = vec![Complex::ZERO; 4];
        mem.buffer(d).store().copy_prefix_to(&mut back);
        assert_eq!(back, data);
        // Trap sequence counts width-8 allocations like any other.
        mem.inject_oom_at(&[1]);
        assert!(mem.alloc_amp(4, Layout::Planar, 8).is_err());
    }

    /// `f32` and `f64` buffers of the same size class shelve separately:
    /// a checkout at one width must never be served by the other.
    #[test]
    fn pool_shelves_are_width_disjoint() {
        let pool = Arc::new(BufferPool::new());
        let spec = DeviceSpec::tiny_test_gpu();
        {
            let mut mem = DeviceMemory::with_pool(&spec, Arc::clone(&pool));
            mem.alloc_amp(64, Layout::Planar, 8).unwrap();
        }
        let warm = pool.stats();
        assert_eq!((warm.misses, warm.idle_buffers), (1, 1));
        assert_eq!(warm.idle_bytes, 64 * 8);
        {
            let mut mem = DeviceMemory::with_pool(&spec, Arc::clone(&pool));
            // Same class, f64 width: must miss, not recycle the f32 store.
            let d = mem.alloc_amp(64, Layout::Planar, 16).unwrap();
            assert_eq!(mem.pool_stats().unwrap().hits, 0);
            assert_eq!(mem.pool_stats().unwrap().misses, 2);
            assert_eq!(mem.buffer(d).store().elem_bytes(), 16);
        }
        {
            let mut mem = DeviceMemory::with_pool(&spec, Arc::clone(&pool));
            // f32 width again: recycles the first arena's buffer.
            let d = mem.alloc_amp(64, Layout::Planar, 8).unwrap();
            assert_eq!(mem.pool_stats().unwrap().hits, 1);
            assert_eq!(mem.buffer(d).store().elem_bytes(), 8);
            assert_eq!(
                mem.buffer(d).store().unpack_states(1),
                vec![vec![Complex::ZERO; 64]]
            );
        }
        let events = pool.events();
        assert!(events.iter().all(|e| e.width == 8 || e.width == 16));
        assert!(events.iter().any(|e| e.width == 8));
    }

    /// Cross-width `copy_store_from` narrows on the way in and widens
    /// exactly on the way out, for every partner layout.
    #[test]
    fn copy_store_from_crosses_widths() {
        let data: Vec<Complex> = (0..6).map(|i| Complex::new(i as f64, 0.25)).collect();
        for partner in [Layout::Aos, Layout::Planar] {
            let mut wide = AmpStore::zeroed(6, partner);
            wide.copy_prefix_from(&data);
            let mut narrow = AmpStore::zeroed_width(8, Layout::Planar, 8);
            narrow.copy_store_from(&wide);
            let mut back = AmpStore::zeroed(6, partner);
            back.fill(Complex::new(f64::NAN, f64::NAN));
            back.copy_store_from(&narrow);
            let mut out = vec![Complex::ZERO; 6];
            back.copy_prefix_to(&mut out);
            assert_eq!(out, data, "{partner:?} via f32");
        }
        // f32 → f32 is a pure plane move.
        let mut a = AmpStore::zeroed_width(6, Layout::Planar, 8);
        a.copy_prefix_from(&data);
        let mut b = AmpStore::zeroed_width(6, Layout::Planar, 8);
        b.copy_store_from(&a);
        assert_eq!(a, b);
        assert_eq!(b.unpack_states(1), vec![data.clone()]);
    }

    /// Width-8 staging narrows exactly once per amplitude and unpacks
    /// back through the widening gather.
    #[test]
    fn staged_f32_batch_roundtrips_exact_values() {
        let vectors: Vec<Vec<Complex>> = (0..3)
            .map(|b| {
                (0..4)
                    .map(|r| Complex::new((b * 4 + r) as f64, -0.125))
                    .collect()
            })
            .collect();
        let mut host = HostMemory::new();
        let h = host.alloc_staged_amp(&vectors, Layout::Planar, 8);
        let buf = host.buffer(h);
        let store = buf.store();
        assert_eq!(store.elem_bytes(), 8);
        assert_eq!(store.unpack_states(3), vectors);
    }

    /// `copy_store_from` must be value-exact for every (dst, src) layout
    /// combination, including a shorter source into a longer destination.
    #[test]
    fn copy_store_from_all_layout_pairs() {
        let data: Vec<Complex> = (0..6)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        for src_layout in [Layout::Aos, Layout::Planar] {
            let mut src = AmpStore::zeroed(6, src_layout);
            src.copy_prefix_from(&data);
            for dst_layout in [Layout::Aos, Layout::Planar] {
                let mut dst = AmpStore::zeroed(8, dst_layout);
                dst.fill(Complex::new(f64::NAN, f64::NAN));
                dst.copy_store_from(&src);
                // Read back through the other direction: a 6-amp store
                // pulling from the 8-amp one exercises the truncating arm.
                let mut head = AmpStore::zeroed(6, dst_layout);
                head.copy_store_from(&dst);
                let mut back = vec![Complex::ZERO; 6];
                head.copy_prefix_to(&mut back);
                assert_eq!(back, data, "{src_layout:?} -> {dst_layout:?}");
            }
        }
    }

    /// Staging a batch of state vectors and unpacking the result must be
    /// an exact round trip in both layouts, including batch sizes that are
    /// not a multiple of the transpose tile (`STAGE_TILE` = 64).
    #[test]
    fn staged_batch_roundtrips_through_unpack() {
        let dim = 8;
        for batch in [1, 63, 64, 100] {
            let vectors: Vec<Vec<Complex>> = (0..batch)
                .map(|b| {
                    (0..dim)
                        .map(|r| Complex::new((b * dim + r) as f64, 0.25))
                        .collect()
                })
                .collect();
            for layout in [Layout::Aos, Layout::Planar] {
                let mut host = HostMemory::new();
                let h = host.alloc_staged_from(&vectors, layout);
                let buf = host.buffer(h);
                let store = buf.store();
                assert_eq!(store.layout(), layout);
                assert_eq!(store.len(), dim * batch);
                assert_eq!(store.unpack_states(batch), vectors, "{layout:?} b={batch}");
            }
        }
    }

    /// The staged representation is amplitude-major: `data[r * batch + b]`
    /// holds amplitude `r` of state `b`, so one row of the device matrix
    /// is contiguous across the whole batch.
    #[test]
    fn staged_layout_is_amplitude_major() {
        let vectors = vec![
            vec![Complex::new(1.0, 0.0), Complex::new(2.0, 0.0)],
            vec![Complex::new(3.0, 0.0), Complex::new(4.0, 0.0)],
        ];
        let mut host = HostMemory::new();
        let h = host.alloc_staged_from(&vectors, Layout::Aos);
        let got: Vec<f64> = host.buffer(h).iter().map(|c| c.re).collect();
        assert_eq!(got, vec![1.0, 3.0, 2.0, 4.0]);
    }
}

//! Hash join: in-memory when the build input fits the memory grant,
//! Grace-partitioned otherwise — serial or partition-parallel.
//!
//! The build side is the **left** input (the optimizer's convention; the
//! commutativity rule generates the swapped variant). When the build input
//! exceeds the memory budget, both inputs are partitioned by join-key hash
//! into accounted temporary files, then each partition pair is joined in
//! memory — the extra write+read pass over both inputs is exactly what the
//! cost model charges.
//!
//! **Vectorized path.** In batch mode the resident join is
//! radix-partitioned and fully columnar: build rows are ingested straight
//! into per-attribute vectors ([`ColumnStore`]), hashed with one
//! multiply-xor pass per key *column* (the auto-vectorizable
//! [`fold_hash_column`] kernel — each row's hash is bit-identical to the
//! row-at-a-time [`hash_key`]), then scattered histogram → prefix-sum into
//! cache-sized partitions whose chained bucket arrays replace the
//! `HashMap` — probing re-uses the hash computed at partition time, walks
//! an index chain instead of re-hashing through SipHash, and gathers match
//! pairs into the output batch column by column. Partition count scales
//! with the build size (one partition per L2-sized slice) and the degree
//! of parallelism. The tuple path keeps the classic `HashMap` build so
//! both modes stay independently auditable; results, counters, and
//! fallback behavior are parity-exact (see tests/batch_parity.rs).
//!
//! Build-side rows are *reserved* with the query's resource governor
//! before they are held — both the resident build table and each Grace
//! partition's rebuilt table — so a governor limit below what the chosen
//! strategy needs surfaces as [`ExecError::ResourceExhausted`] instead of
//! silently exceeding the grant.
//!
//! With `ctx.dop > 1` the join runs its partition work on worker threads:
//! the in-memory strategy splits build and probe rows into radix
//! partitions (each row hashed once, as in the serial join; the partition
//! is the hash's low bits, replacing the old modulo split) and builds +
//! probes each partition on its own worker; the Grace strategy spills
//! exactly as the serial join does (identical pages, identical write
//! order) and then joins the spilled partition pairs concurrently, each
//! pair's table reservation drawn from the shared governor through a
//! wait-or-fail [`ReserveGate`] so concurrency never oversubscribes the
//! grant. Work belonging to the serial join's `next()` phase (probe
//! streaming, partition-pair joining) still runs eagerly inside `open()`,
//! but its errors are *deferred* to the first `next()`/`next_batch()`
//! call, so choose-plan fallback semantics stay identical to serial
//! execution. Per-worker counters are merged back, making accounting
//! totals independent of the degree of parallelism.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use dqep_storage::gen::{decode_record, encode_record};
use dqep_storage::{HeapFile, SimDisk};

use crate::batch::{RowBatch, BATCH_CAPACITY};
use crate::error::ExecError;
use crate::exchange::run_parallel;
use crate::governor::{ExecContext, ExecMode, ResourceGovernor};
use crate::metrics::SharedCounters;
use crate::tuple::{Tuple, TupleLayout};
use crate::{BoxedOperator, Operator};

/// Grace spill fan-out (fixed: spill page identity must not depend on
/// memory grant or DOP).
const PARTITIONS: usize = 8;

/// Bytes of build-side data per radix partition — roughly an L2 slice, so
/// each partition's bucket array and rows stay cache-resident during its
/// build+probe.
const RADIX_PARTITION_BYTES: usize = 256 * 1024;

/// Upper bound on radix fan-out; beyond this the per-partition bucket
/// arrays stop paying for themselves.
const MAX_RADIX_PARTITIONS: usize = 64;

/// (build position, probe position) pairs of the equi-join keys.
type Keys = Vec<(usize, usize)>;

/// Seed of the join-key hash chain (every row's hash starts here).
pub const HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-xor finalizer (splitmix64's): full avalanche in two
/// multiplies, no per-row hasher state to construct.
#[inline]
#[must_use]
pub fn mix(v: u64) -> u64 {
    let mut x = v;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes the join-key columns of one tuple with an inline multiply-xor
/// mix. The previous implementation constructed a `DefaultHasher` per
/// row; setting up SipHash state per row dominates hashing one or two
/// `i64`s. The hash is a pure function of the key *values*, so build and
/// probe rows with equal keys hash identically and partition assignment
/// stays stable across sides, modes, and degrees of parallelism.
#[inline]
#[must_use]
pub fn hash_key(keys: &[(usize, usize)], tuple: &[i64], side_build: bool) -> u64 {
    let mut h = HASH_SEED;
    for &(b, p) in keys {
        h = mix(h ^ tuple[if side_build { b } else { p }] as u64);
    }
    h
}

/// Folds one key column into a running hash state, one row per lane:
/// `hashes[i] = mix(hashes[i] ^ col[i])`. This is the batched counterpart
/// of [`hash_key`]'s per-key step — seeding `hashes` with [`HASH_SEED`]
/// and folding each key column in order produces bit-identical hashes to
/// the scalar loop, but as one tight pass over contiguous slices the
/// compiler can auto-vectorize.
#[inline]
pub fn fold_hash_column(hashes: &mut [u64], col: &[i64]) {
    for (h, &v) in hashes.iter_mut().zip(col) {
        *h = mix(*h ^ v as u64);
    }
}

/// Batched probe-side hash: one hash per **live** row of `batch`, each
/// bit-identical to `hash_key(keys, row, false)`. Dense batches take the
/// column-slice fold; batches with a selection vector gather first.
fn hash_probe_batch(keys: &[(usize, usize)], batch: &RowBatch, hashes: &mut Vec<u64>) {
    hashes.clear();
    match batch.selection() {
        None => {
            hashes.resize(batch.rows(), HASH_SEED);
            for &(_, p) in keys {
                fold_hash_column(hashes, batch.column(p));
            }
        }
        Some(sel) => {
            hashes.resize(sel.len(), HASH_SEED);
            for &(_, p) in keys {
                let col = batch.column(p);
                for (h, &i) in hashes.iter_mut().zip(sel) {
                    *h = mix(*h ^ col[i as usize] as u64);
                }
            }
        }
    }
}

fn keys_match(keys: &Keys, build: &[i64], probe: &[i64]) -> bool {
    keys.iter().all(|&(b, p)| build[b] == probe[p])
}

fn build_table(keys: &Keys, counters: &SharedCounters, rows: Vec<Tuple>) -> HashMap<u64, Vec<Tuple>> {
    // Pre-sized to the exact row count: the build loop never rehashes.
    let mut table: HashMap<u64, Vec<Tuple>> = HashMap::with_capacity(rows.len());
    for row in rows {
        counters.add_hashes(1);
        table.entry(hash_key(keys, &row, true)).or_default().push(row);
    }
    table
}

/// [`build_table`] over rows whose hashes were already computed (and
/// charged) during partitioning — the parallel in-memory path hashes each
/// row once, like the serial path, not once per phase.
fn build_table_prehashed(rows: Vec<(u64, Tuple)>) -> HashMap<u64, Vec<Tuple>> {
    let mut table: HashMap<u64, Vec<Tuple>> = HashMap::with_capacity(rows.len());
    for (h, row) in rows {
        table.entry(h).or_default().push(row);
    }
    table
}

/// Probes `table` with one row, appending matches (build ++ probe) to
/// `out` in reverse (so `pop` yields them in order).
fn probe_into(
    keys: &Keys,
    counters: &SharedCounters,
    table: &HashMap<u64, Vec<Tuple>>,
    probe_row: &[i64],
    out: &mut Vec<Tuple>,
) {
    counters.add_hashes(1);
    if let Some(candidates) = table.get(&hash_key(keys, probe_row, false)) {
        for b in candidates.iter().rev() {
            if keys_match(keys, b, probe_row) {
                let mut joined = b.clone();
                joined.extend_from_slice(probe_row);
                counters.add_records(1);
                out.push(joined);
            }
        }
    }
}

/// Columnar row accumulator: per-attribute value vectors, the batch-mode
/// build buffer. Rows append in arrival order; `extend_from_batch`
/// compacts a selection vector away as it copies.
struct ColumnStore {
    rows: usize,
    cols: Vec<Vec<i64>>,
}

impl ColumnStore {
    fn new(width: usize) -> ColumnStore {
        ColumnStore {
            rows: 0,
            cols: (0..width).map(|_| Vec::new()).collect(),
        }
    }

    fn reserve(&mut self, rows: usize) {
        for col in &mut self.cols {
            col.reserve(rows);
        }
    }

    fn rows(&self) -> usize {
        self.rows
    }

    /// Appends the live rows of `batch` column-wise.
    fn extend_from_batch(&mut self, batch: &RowBatch) {
        match batch.selection() {
            None => {
                for (c, col) in self.cols.iter_mut().enumerate() {
                    col.extend_from_slice(batch.column(c));
                }
                self.rows += batch.rows();
            }
            Some(sel) => {
                for (c, col) in self.cols.iter_mut().enumerate() {
                    let src = batch.column(c);
                    col.extend(sel.iter().map(|&i| src[i as usize]));
                }
                self.rows += sel.len();
            }
        }
    }

    /// Appends one row (attribute-wise).
    fn push_row(&mut self, row: &[i64]) {
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// Copies row `i` into `out` (gathering across the columns).
    fn gather_row_into(&self, i: usize, out: &mut Vec<i64>) {
        out.extend(self.cols.iter().map(|col| col[i]));
    }
}

/// Radix fan-out for a resident build side of `build_bytes`: one
/// partition per L2-sized slice, at least one per worker, always a power
/// of two (the partition is a mask of the hash's low bits), capped at
/// [`MAX_RADIX_PARTITIONS`].
fn radix_partitions(build_bytes: usize, dop: usize) -> usize {
    build_bytes
        .div_ceil(RADIX_PARTITION_BYTES)
        .next_power_of_two()
        .max(dop.next_power_of_two())
        .min(MAX_RADIX_PARTITIONS)
}

/// Stable histogram → prefix-sum scatter of `(cols, hashes)` rows into
/// `parts = part_mask + 1` partitions keyed by the hash bits from `shift`
/// up. Returns the scattered columns and hashes (partition-major, arrival
/// order preserved within each partition) plus the partition boundaries
/// (`parts + 1` offsets).
fn scatter_by_partition<C: AsRef<[i64]>>(
    cols: &[C],
    hashes: &[u64],
    part_mask: u64,
    shift: u32,
) -> (Vec<Vec<i64>>, Vec<u64>, Vec<usize>) {
    let n = hashes.len();
    let parts = part_mask as usize + 1;
    if parts == 1 {
        let starts = vec![0, n];
        let cols = cols.iter().map(|c| c.as_ref().to_vec()).collect();
        return (cols, hashes.to_vec(), starts);
    }
    let pids: Vec<u32> = hashes
        .iter()
        .map(|&h| ((h >> shift) & part_mask) as u32)
        .collect();
    let mut starts = vec![0usize; parts + 1];
    for &p in &pids {
        starts[p as usize + 1] += 1;
    }
    for p in 0..parts {
        starts[p + 1] += starts[p];
    }
    // Destination index of each row: its partition's running cursor.
    let mut cursors: Vec<usize> = starts[..parts].to_vec();
    let mut dest = vec![0u32; n];
    for (d, &p) in dest.iter_mut().zip(&pids) {
        let c = &mut cursors[p as usize];
        *d = *c as u32;
        *c += 1;
    }
    let scat_cols: Vec<Vec<i64>> = cols
        .iter()
        .map(|col| {
            let mut out = vec![0i64; n];
            for (&v, &d) in col.as_ref().iter().zip(&dest) {
                out[d as usize] = v;
            }
            out
        })
        .collect();
    let mut scat_hashes = vec![0u64; n];
    for (&h, &d) in hashes.iter().zip(&dest) {
        scat_hashes[d as usize] = h;
    }
    (scat_cols, scat_hashes, starts)
}

/// Per-partition chained bucket index of a [`RadixTable`].
struct PartBuckets {
    mask: u64,
    /// Bucket → first build row (global scattered index + 1; 0 = empty).
    /// Chains run in build-arrival order.
    heads: Vec<u32>,
}

/// The batch-mode resident join table: build rows scattered into radix
/// partitions (columnar), their precomputed hashes, and a chained bucket
/// index per partition. Probing reuses the stored hash as a pre-filter —
/// no re-hashing, no SipHash, no per-bucket `Vec` allocations — and match
/// rows gather into the output column by column.
struct RadixTable {
    /// Low hash bits skipped before the partition bits (0 in the
    /// operator; see [`join_batches`] for why its inputs skip 16).
    shift: u32,
    part_mask: u64,
    /// Bits consumed by the partition mask; buckets use the bits above.
    part_bits: u32,
    /// Scattered build columns (partition-major).
    cols: Vec<Vec<i64>>,
    /// Scattered per-row hashes, aligned with `cols`.
    hashes: Vec<u64>,
    /// Next row in the same bucket chain (global index + 1; 0 = end).
    next_link: Vec<u32>,
    buckets: Vec<PartBuckets>,
}

impl RadixTable {
    /// Builds the table from a columnar build buffer, charging one hash
    /// per row exactly like [`build_table`]. `parts` must be a power of
    /// two.
    fn build(keys: &Keys, counters: &SharedCounters, store: &ColumnStore, parts: usize) -> RadixTable {
        RadixTable::build_cols(keys, counters, &store.cols, parts, 0)
    }

    /// [`RadixTable::build`] over bare build columns, indexing partitions
    /// and buckets by the hash bits from `shift` up.
    fn build_cols<C: AsRef<[i64]>>(
        keys: &Keys,
        counters: &SharedCounters,
        cols: &[C],
        parts: usize,
        shift: u32,
    ) -> RadixTable {
        let n = cols.first().map_or(0, |c| c.as_ref().len());
        debug_assert!(n < u32::MAX as usize, "build side exceeds u32 indexing");
        debug_assert!(parts.is_power_of_two());
        counters.add_hashes(n as u64);
        let mut hashes = vec![HASH_SEED; n];
        for &(b, _) in keys {
            fold_hash_column(&mut hashes, cols[b].as_ref());
        }
        let part_mask = (parts - 1) as u64;
        let part_bits = parts.trailing_zeros();
        let (cols, hashes, part_starts) = scatter_by_partition(cols, &hashes, part_mask, shift);
        let mut next_link = vec![0u32; n];
        let buckets = (0..parts)
            .map(|p| {
                let (lo, hi) = (part_starts[p], part_starts[p + 1]);
                let nb = ((hi - lo) * 2).next_power_of_two();
                let mask = (nb - 1) as u64;
                let mut heads = vec![0u32; nb];
                // Reverse insertion leaves each chain in arrival order —
                // probe results match the HashMap path's candidate order.
                for i in (lo..hi).rev() {
                    let b = ((hashes[i] >> (shift + part_bits)) & mask) as usize;
                    next_link[i] = heads[b];
                    heads[b] = i as u32 + 1;
                }
                PartBuckets { mask, heads }
            })
            .collect();
        RadixTable {
            shift,
            part_mask,
            part_bits,
            cols,
            hashes,
            next_link,
            buckets,
        }
    }

    fn build_width(&self) -> usize {
        self.cols.len()
    }

    /// Scattered build rows matching hash `h` and the probe keys, in
    /// build-arrival order, appended to `matches` as global row indices.
    #[inline]
    fn chain_matches(
        &self,
        keys: &Keys,
        h: u64,
        probe_key_at: impl Fn(usize) -> i64,
        matches: &mut Vec<u32>,
    ) {
        let part = &self.buckets[((h >> self.shift) & self.part_mask) as usize];
        let mut link = part.heads[((h >> (self.shift + self.part_bits)) & part.mask) as usize];
        while link != 0 {
            let i = (link - 1) as usize;
            if self.hashes[i] == h
                && keys
                    .iter()
                    .all(|&(bk, pk)| self.cols[bk][i] == probe_key_at(pk))
            {
                matches.push(i as u32);
            }
            link = self.next_link[i];
        }
    }

    /// Tuple-path probe (the batch-built table still serves `next()`
    /// calls, e.g. from a Grace parent spilling its probe input
    /// tuple-wise): appends matches (build ++ probe) to `out` in reverse,
    /// so `pop` yields them in build-arrival order — exactly like
    /// [`probe_into`]. Charges mirror [`probe_into`]: one hash per probe
    /// row, one record per match.
    fn probe_row_into(
        &self,
        keys: &Keys,
        counters: &SharedCounters,
        probe_row: &[i64],
        out: &mut Vec<Tuple>,
    ) {
        counters.add_hashes(1);
        let h = hash_key(keys, probe_row, false);
        let mut matches: Vec<u32> = Vec::new();
        self.chain_matches(keys, h, |pk| probe_row[pk], &mut matches);
        for &i in matches.iter().rev() {
            let i = i as usize;
            let mut joined: Tuple = Vec::with_capacity(self.build_width() + probe_row.len());
            joined.extend(self.cols.iter().map(|col| col[i]));
            joined.extend_from_slice(probe_row);
            counters.add_records(1);
            out.push(joined);
        }
    }

    /// Gathers `pairs` (build scattered index, probe physical index) into
    /// `out` column by column: build attributes then probe attributes, or
    /// the reverse when `build_first` is false.
    fn gather_pairs_into(
        &self,
        probe_batch: &RowBatch,
        pairs_b: &[u32],
        pairs_p: &[u32],
        build_first: bool,
        out: &mut RowBatch,
    ) {
        let split = if build_first {
            self.build_width()
        } else {
            probe_batch.width()
        };
        out.extend_rows_with(pairs_b.len(), |cols| {
            let (head, tail) = cols.split_at_mut(split);
            let (build_cols, probe_cols) = if build_first {
                (head, tail)
            } else {
                (tail, head)
            };
            for (c, col) in build_cols.iter_mut().enumerate() {
                let src = &self.cols[c];
                col.extend(pairs_b.iter().map(|&i| src[i as usize]));
            }
            for (c, col) in probe_cols.iter_mut().enumerate() {
                let src = probe_batch.column(c);
                col.extend(pairs_p.iter().map(|&i| src[i as usize]));
            }
        });
    }

    /// One joined row from a match pair, as an owned tuple (the overflow
    /// stash path).
    fn pair_tuple(&self, probe_batch: &RowBatch, bi: u32, pi: u32) -> Tuple {
        let mut joined: Tuple = Vec::with_capacity(self.build_width() + probe_batch.width());
        joined.extend(self.cols.iter().map(|col| col[bi as usize]));
        probe_batch.gather_row_into(pi as usize, &mut joined);
        joined
    }
}

/// Low hash bits [`join_batches`] leaves out of its partition and bucket
/// indexes. Its inputs may be repartitioned on the same hash: every row of
/// shard `s` of `n` has `hash % n == s`, so for power-of-two `n` the low
/// bits are constant and would pile every row into one partition and half
/// (or fewer) of the buckets.
const BATCH_JOIN_HASH_SHIFT: u32 = 16;

/// One input of [`join_batches`]: its batches (selection vectors
/// respected) and the width of its rows.
#[derive(Debug, Clone, Copy)]
pub struct JoinInput<'a> {
    /// The input rows.
    pub batches: &'a [RowBatch],
    /// Attributes per row (the width of every batch).
    pub width: usize,
}

/// Which input of [`join_batches`] its hash tables are built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSide {
    /// Build on the left input, probe with the right.
    Left,
    /// Build on the right input, probe with the left.
    Right,
}

/// Equi-joins two in-memory batch inputs through the batch-mode hash join
/// kernel: the columnar build, radix table, chain walk and column-wise
/// pair gather the hash join operator runs in batch mode. `keys` pairs a
/// left column with a right column; rows join when every pair is equal.
/// The output is always `left ⊗ right`, whichever side `build` names, in
/// dense batches of [`BATCH_CAPACITY`] rows (the last one shorter).
///
/// The build side is hashed in chunks of at most `chunk_rows` rows, one
/// table per chunk, each probed by the whole other input: a caller short
/// of memory for one table over the full build side bounds it this way.
/// Row order is deterministic: chunk by chunk, probe rows in input order,
/// and each probe row's matches in build order. Charges one hash per
/// build row and per probe row per chunk, and one record per match.
#[must_use]
pub fn join_batches(
    left: JoinInput<'_>,
    right: JoinInput<'_>,
    keys: &[(usize, usize)],
    build: BuildSide,
    chunk_rows: usize,
    counters: &SharedCounters,
) -> Vec<RowBatch> {
    let build_left = build == BuildSide::Left;
    let (build_in, probe_in) = if build_left {
        (left, right)
    } else {
        (right, left)
    };
    let keys: Keys = keys
        .iter()
        .map(|&(l, r)| if build_left { (l, r) } else { (r, l) })
        .collect();
    let mut store = ColumnStore::new(build_in.width);
    store.reserve(build_in.batches.iter().map(RowBatch::len).sum());
    for batch in build_in.batches {
        store.extend_from_batch(batch);
    }
    let n = store.rows();
    let chunk = chunk_rows.clamp(1, n.max(1));
    let out_width = left.width + right.width;
    let mut out: Vec<RowBatch> = Vec::new();
    let mut acc = RowBatch::with_capacity(out_width, BATCH_CAPACITY);
    let (mut hashes, mut pairs_b, mut pairs_p) = (Vec::new(), Vec::new(), Vec::new());
    for lo in (0..n).step_by(chunk) {
        let hi = (lo + chunk).min(n);
        let cols: Vec<&[i64]> = store.cols.iter().map(|c| &c[lo..hi]).collect();
        let parts = radix_partitions((hi - lo) * build_in.width * 8, 1);
        let table = RadixTable::build_cols(&keys, counters, &cols, parts, BATCH_JOIN_HASH_SHIFT);
        for probe in probe_in.batches {
            hash_probe_batch(&keys, probe, &mut hashes);
            pairs_b.clear();
            pairs_p.clear();
            for (j, idx) in probe.selected_indices().enumerate() {
                table.chain_matches(&keys, hashes[j], |pk| probe.column(pk)[idx], &mut pairs_b);
                pairs_p.resize(pairs_b.len(), idx as u32);
            }
            counters.add_hashes(probe.len() as u64);
            counters.add_records(pairs_b.len() as u64);
            let mut k = 0;
            while k < pairs_b.len() {
                let take = (BATCH_CAPACITY - acc.rows()).min(pairs_b.len() - k);
                let (pb, pp) = (&pairs_b[k..k + take], &pairs_p[k..k + take]);
                table.gather_pairs_into(probe, pb, pp, build_left, &mut acc);
                k += take;
                if acc.rows() == BATCH_CAPACITY {
                    let full = RowBatch::with_capacity(out_width, BATCH_CAPACITY);
                    out.push(std::mem::replace(&mut acc, full));
                }
            }
        }
    }
    if acc.rows() > 0 {
        out.push(acc);
    }
    out
}

/// Locks a mutex, absorbing poisoning (a worker panic propagates through
/// the thread scope anyway; the gate's counter stays consistent).
fn lock_gate<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait-or-fail admission for concurrent partition-table reservations: a
/// worker that cannot reserve its partition's bytes *waits* while sibling
/// partitions hold reservations (they will release), and only fails when
/// it is alone — exactly the situation in which the serial join, holding
/// no other partition's memory, would have been refused too.
struct ReserveGate {
    inflight: Mutex<usize>,
    cv: Condvar,
}

impl ReserveGate {
    fn new() -> ReserveGate {
        ReserveGate {
            inflight: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn reserve(&self, governor: &ResourceGovernor, bytes: u64) -> Result<(), ExecError> {
        let mut inflight = lock_gate(&self.inflight);
        loop {
            match governor.try_reserve_memory(bytes) {
                Ok(()) => {
                    *inflight += 1;
                    return Ok(());
                }
                Err(e) => {
                    if *inflight == 0 {
                        return Err(e);
                    }
                    inflight = self
                        .cv
                        .wait(inflight)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    fn release(&self, governor: &ResourceGovernor, bytes: u64) {
        let mut inflight = lock_gate(&self.inflight);
        *inflight -= 1;
        governor.release_memory(bytes);
        self.cv.notify_all();
    }
}

/// The build buffer: rows for the tuple path, columns for the batch path.
/// Both reserve the same bytes and spill the same records in the same
/// order, so the mode choice never shows in accounting.
enum BuildBuf {
    Rows(Vec<Tuple>),
    Cols(ColumnStore),
}

impl BuildBuf {
    fn len(&self) -> usize {
        match self {
            BuildBuf::Rows(rows) => rows.len(),
            BuildBuf::Cols(store) => store.rows(),
        }
    }
}

enum State {
    Closed,
    /// Build table resident (tuple mode); probe streams.
    InMemory(HashMap<u64, Vec<Tuple>>),
    /// Build table resident (batch mode, serial): radix-partitioned
    /// columnar table; probe streams batched.
    Radix(RadixTable),
    /// Grace mode: partition pairs joined one at a time.
    Partitioned {
        build_parts: Vec<HeapFile>,
        probe_parts: Vec<HeapFile>,
        part: usize,
    },
    /// Parallel tuple mode: all partition work finished at `open`; the
    /// merged result streams out.
    Streamed(std::vec::IntoIter<Tuple>),
    /// Parallel batch mode: the merged columnar result streams out in
    /// `max_rows` slices.
    StreamedCols { batch: RowBatch, pos: usize },
}

/// Hash join over equi-join keys. With `ctx.dop > 1` the partition work
/// (in-memory or Grace) fans out across worker threads; see the module
/// docs for the parity guarantees.
pub struct HashJoinExec<'a> {
    build: BoxedOperator<'a>,
    probe: BoxedOperator<'a>,
    keys: Keys,
    layout: TupleLayout,
    ctx: ExecContext,
    disk: SimDisk,
    /// Memory budget in bytes for the build table.
    budget_bytes: usize,
    /// Bytes currently reserved with the governor; released in `close`.
    reserved: u64,
    state: State,
    pending: Vec<Tuple>,
    /// A failure from work the serial join performs in `next()` (probe
    /// streaming, partition joining) that the parallel paths perform
    /// eagerly at `open()`; surfaced on the first `next`/`next_batch`.
    pending_err: Option<ExecError>,
    /// Mid-query re-optimization probe, fired once per `open` with the
    /// build input's actual cardinality when the build completes.
    checkpoint: Option<crate::reopt::ReoptProbe>,
}

impl<'a> HashJoinExec<'a> {
    /// Creates a hash join building on `build`. The degree of parallelism
    /// comes from `ctx.dop`; `1` compiles the classic serial join.
    #[must_use]
    pub fn new(
        build: BoxedOperator<'a>,
        probe: BoxedOperator<'a>,
        keys: Keys,
        ctx: ExecContext,
        disk: SimDisk,
        budget_bytes: usize,
    ) -> Self {
        let layout = build.layout().concat(probe.layout());
        HashJoinExec {
            build,
            probe,
            keys,
            layout,
            ctx,
            disk,
            budget_bytes,
            reserved: 0,
            state: State::Closed,
            pending: Vec::new(),
            pending_err: None,
            checkpoint: None,
        }
    }

    /// Attaches a re-optimization checkpoint probe to the build phase.
    pub(crate) fn with_checkpoint(mut self, probe: crate::reopt::ReoptProbe) -> Self {
        self.checkpoint = Some(probe);
        self
    }

    fn release(&mut self, bytes: u64) {
        self.ctx.governor.release_memory(bytes);
        self.reserved -= bytes;
    }

    /// Drains the probe input (mode-faithfully: batches in batch mode,
    /// rows in tuple mode), hashing each row once into `parts` radix
    /// partitions (`parts = part_mask + 1`). Hash charges match the
    /// serial probe exactly: one per probe row.
    fn partition_probe(
        &mut self,
        parts: usize,
        part_mask: u64,
    ) -> Result<Vec<Vec<(u64, Tuple)>>, ExecError> {
        let mut out: Vec<Vec<(u64, Tuple)>> = (0..parts).map(|_| Vec::new()).collect();
        // Pre-size each partition vector from the input's row estimate.
        if let Some(n) = self.probe.estimated_rows() {
            let share = (n.min(1 << 20) as usize / parts).saturating_add(1);
            for p in &mut out {
                p.reserve(share);
            }
        }
        if self.ctx.mode == ExecMode::Batch {
            while let Some(batch) = self.probe.next_batch(BATCH_CAPACITY)? {
                self.ctx.governor.check_batch(batch.len() as u64)?;
                self.ctx.counters.add_hashes(batch.len() as u64);
                for row in &batch {
                    let h = hash_key(&self.keys, &row, false);
                    out[(h & part_mask) as usize].push((h, row));
                }
            }
        } else {
            loop {
                self.ctx.governor.check()?;
                let Some(row) = self.probe.next()? else { break };
                self.ctx.counters.add_hashes(1);
                let h = hash_key(&self.keys, &row, false);
                out[(h & part_mask) as usize].push((h, row));
            }
        }
        Ok(out)
    }

    /// Parallel in-memory strategy, tuple mode: radix-partition the
    /// (already reserved) build rows and the probe input, then build +
    /// probe each partition's table on its own worker thread.
    fn open_parallel_in_memory(
        &mut self,
        build_rows: Vec<Tuple>,
        dop: usize,
    ) -> Result<(), ExecError> {
        let parts = dop.next_power_of_two();
        let part_mask = (parts - 1) as u64;
        let share = build_rows.len() / parts + 1;
        let mut build_parts: Vec<Vec<(u64, Tuple)>> =
            (0..parts).map(|_| Vec::with_capacity(share)).collect();
        for row in build_rows {
            self.ctx.counters.add_hashes(1);
            let h = hash_key(&self.keys, &row, true);
            build_parts[(h & part_mask) as usize].push((h, row));
        }
        // Probe-phase work starts here: the serial join performs it in
        // `next()`, so failures defer to `next()`.
        let probe_parts = match self.partition_probe(parts, part_mask) {
            Ok(parts) => parts,
            Err(e) => {
                self.pending_err = Some(e);
                self.state = State::Streamed(Vec::new().into_iter());
                return Ok(());
            }
        };
        let keys = &self.keys;
        let tasks: Vec<_> = build_parts
            .into_iter()
            .zip(probe_parts)
            .map(|(bpart, ppart)| {
                let worker = self.ctx.worker();
                move || {
                    let table = build_table_prehashed(bpart);
                    let mut out: Vec<Tuple> = Vec::new();
                    for (h, row) in ppart {
                        if let Some(candidates) = table.get(&h) {
                            for b in candidates {
                                if keys_match(keys, b, &row) {
                                    let mut joined = b.clone();
                                    joined.extend_from_slice(&row);
                                    worker.counters.add_records(1);
                                    out.push(joined);
                                }
                            }
                        }
                    }
                    Ok((out, worker.counters))
                }
            })
            .collect();
        let mut merged: Vec<Tuple> = Vec::new();
        for result in run_parallel(tasks) {
            // Workers are pure CPU here; errors are impossible, but keep
            // the merge defensive so the task signature stays uniform.
            let (out, counters) = result?;
            self.ctx.counters.merge_from(&counters);
            merged.extend(out);
        }
        self.state = State::Streamed(merged.into_iter());
        Ok(())
    }

    /// Parallel in-memory strategy, batch mode: build one [`RadixTable`]
    /// (fan-out ≥ `dop`), drain + scatter the probe input columnar, then
    /// have `dop` workers claim partitions and probe them — match pairs
    /// gather into per-partition output batches merged in partition
    /// order.
    fn open_parallel_radix(&mut self, store: &ColumnStore, dop: usize) -> Result<(), ExecError> {
        let build_bytes = store.rows() * self.build.layout().row_bytes;
        let parts = radix_partitions(build_bytes, dop);
        let table = RadixTable::build(&self.keys, &self.ctx.counters, store, parts);
        // Probe-phase work: drain batched (errors defer to `next()`),
        // hashing each live row once with the columnar kernel.
        let mut probe_store = ColumnStore::new(self.probe.layout().width());
        if let Some(n) = self.probe.estimated_rows() {
            probe_store.reserve(n.min(1 << 20) as usize);
        }
        let mut probe_hashes: Vec<u64> = Vec::new();
        let mut scratch: Vec<u64> = Vec::new();
        let drained: Result<(), ExecError> = loop {
            match self.probe.next_batch(BATCH_CAPACITY) {
                Ok(Some(batch)) => {
                    if let Err(e) = self.ctx.governor.check_batch(batch.len() as u64) {
                        break Err(e);
                    }
                    self.ctx.counters.add_hashes(batch.len() as u64);
                    hash_probe_batch(&self.keys, &batch, &mut scratch);
                    probe_hashes.extend_from_slice(&scratch);
                    probe_store.extend_from_batch(&batch);
                }
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        if let Err(e) = drained {
            self.pending_err = Some(e);
            self.state = State::Streamed(Vec::new().into_iter());
            return Ok(());
        }
        let (probe_cols, probe_hashes, probe_starts) = scatter_by_partition(
            &probe_store.cols,
            &probe_hashes,
            table.part_mask,
            table.shift,
        );
        let keys = &self.keys;
        let table_ref = &table;
        let probe_cols_ref = &probe_cols;
        let probe_hashes_ref = &probe_hashes;
        let probe_starts_ref = &probe_starts;
        let next_part = AtomicUsize::new(0);
        let out_width = self.layout.width();
        let tasks: Vec<_> = (0..dop.min(parts))
            .map(|_| {
                let worker = self.ctx.worker();
                let next_part = &next_part;
                move || {
                    let mut outs: Vec<(usize, RowBatch)> = Vec::new();
                    loop {
                        let p = next_part.fetch_add(1, Ordering::Relaxed);
                        if p >= parts {
                            return Ok((outs, worker.counters));
                        }
                        let (lo, hi) = (probe_starts_ref[p], probe_starts_ref[p + 1]);
                        let mut pairs_b: Vec<u32> = Vec::new();
                        let mut pairs_p: Vec<u32> = Vec::new();
                        for j in lo..hi {
                            table_ref.chain_matches(
                                keys,
                                probe_hashes_ref[j],
                                |pk| probe_cols_ref[pk][j],
                                &mut pairs_b,
                            );
                            pairs_p.resize(pairs_b.len(), j as u32);
                        }
                        worker.counters.add_records(pairs_b.len() as u64);
                        let mut out = RowBatch::with_capacity(out_width, pairs_b.len());
                        let bw = table_ref.build_width();
                        out.extend_rows_with(pairs_b.len(), |cols| {
                            for (c, col) in cols[..bw].iter_mut().enumerate() {
                                let src = &table_ref.cols[c];
                                col.extend(pairs_b.iter().map(|&i| src[i as usize]));
                            }
                            for (c, col) in cols[bw..].iter_mut().enumerate() {
                                let src = &probe_cols_ref[c];
                                col.extend(pairs_p.iter().map(|&i| src[i as usize]));
                            }
                        });
                        outs.push((p, out));
                    }
                }
            })
            .collect();
        let mut part_outs: Vec<(usize, RowBatch)> = Vec::new();
        for result in run_parallel(tasks) {
            let (outs, counters): (Vec<(usize, RowBatch)>, SharedCounters) = result?;
            self.ctx.counters.merge_from(&counters);
            part_outs.extend(outs);
        }
        part_outs.sort_by_key(|&(p, _)| p);
        let total: usize = part_outs.iter().map(|(_, b)| b.rows()).sum();
        let mut merged = RowBatch::with_capacity(out_width, total);
        for (_, part) in &part_outs {
            merged.extend_rows_with(part.rows(), |cols| {
                for (c, col) in cols.iter_mut().enumerate() {
                    col.extend_from_slice(part.column(c));
                }
            });
        }
        self.state = State::StreamedCols { batch: merged, pos: 0 };
        Ok(())
    }

    /// Parallel Grace strategy: the partitions were spilled exactly as
    /// the serial join spills them; join the `PARTITIONS` pairs
    /// concurrently on `dop` workers claiming partition indexes from an
    /// atomic counter. Each pair's table reservation goes through a
    /// [`ReserveGate`], so concurrent pairs never oversubscribe the query
    /// grant.
    fn open_parallel_grace(
        &mut self,
        build_parts: Vec<HeapFile>,
        probe_parts: Vec<HeapFile>,
        dop: usize,
    ) -> Result<(), ExecError> {
        let build_width = self.build.layout().width();
        let probe_width = self.probe.layout().width();
        let build_row_bytes = self.build.layout().row_bytes;
        let keys = &self.keys;
        let gate = ReserveGate::new();
        let next_part = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..dop.min(PARTITIONS))
            .map(|_| {
                let worker = self.ctx.worker();
                let gate = &gate;
                let next_part = &next_part;
                let build_parts = &build_parts;
                let probe_parts = &probe_parts;
                move || {
                    let mut outs: Vec<(usize, Vec<Tuple>)> = Vec::new();
                    loop {
                        let p = next_part.fetch_add(1, Ordering::Relaxed);
                        if p >= PARTITIONS {
                            return Ok((outs, worker.counters));
                        }
                        worker.governor.check()?;
                        let mut build_rows: Vec<Tuple> = Vec::new();
                        for record in build_parts[p].scan() {
                            build_rows.push(decode_record(&record?, build_width));
                        }
                        let mut probe_rows: Vec<Tuple> = Vec::new();
                        for record in probe_parts[p].scan() {
                            probe_rows.push(decode_record(&record?, probe_width));
                        }
                        let part_bytes = (build_rows.len() * build_row_bytes) as u64;
                        gate.reserve(&worker.governor, part_bytes)?;
                        let table = build_table(keys, &worker.counters, build_rows);
                        let mut out: Vec<Tuple> = Vec::new();
                        for row in &probe_rows {
                            probe_into(keys, &worker.counters, &table, row, &mut out);
                        }
                        out.reverse();
                        drop(table);
                        gate.release(&worker.governor, part_bytes);
                        outs.push((p, out));
                    }
                }
            })
            .collect();
        let results = run_parallel(tasks);
        let mut parts: Vec<(usize, Vec<Tuple>)> = Vec::new();
        let mut first_err: Option<ExecError> = None;
        for result in results {
            match result {
                Ok((outs, counters)) => {
                    self.ctx.counters.merge_from(&counters);
                    parts.extend(outs);
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            // Serial raises partition-phase failures from `next()`.
            self.pending_err = Some(e);
            self.state = State::Streamed(Vec::new().into_iter());
            return Ok(());
        }
        parts.sort_by_key(|&(p, _)| p);
        let merged: Vec<Tuple> = parts.into_iter().flat_map(|(_, out)| out).collect();
        self.state = State::Streamed(merged.into_iter());
        Ok(())
    }
}

impl Operator for HashJoinExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.pending.clear();
        self.pending_err = None;
        let dop = self.ctx.dop.max(1);
        self.build.open()?;
        let build_row_bytes = self.build.layout().row_bytes;
        let build_width = self.build.layout().width();
        let batch_mode = self.ctx.mode == ExecMode::Batch;
        let mut buf = if batch_mode {
            BuildBuf::Cols(ColumnStore::new(build_width))
        } else {
            BuildBuf::Rows(Vec::new())
        };
        // Pre-size the build buffer from the input's row estimate — the
        // common in-memory case never reallocates mid-build.
        if let Some(n) = self.build.estimated_rows() {
            let n = n.min(1 << 20) as usize;
            match &mut buf {
                BuildBuf::Rows(rows) => rows.reserve(n),
                BuildBuf::Cols(store) => store.reserve(n),
            }
        }
        match &mut buf {
            BuildBuf::Cols(store) => {
                // Batched build: drain whole batches straight into the
                // columnar store, reserving and checking once per batch.
                // The reservation total and failure condition are
                // identical to the per-row path — only the charge
                // granularity changes.
                loop {
                    // Bounded so a refused batch reservation trips with
                    // the same cumulative row count as the per-row path:
                    // the request never extends past the first refusable
                    // row.
                    let req = self.ctx.governor.ingest_batch_rows(build_row_bytes);
                    let Some(batch) = self.build.next_batch(req)? else { break };
                    let n = batch.len();
                    self.ctx.governor.check_batch(n as u64)?;
                    self.ctx.governor.try_reserve_memory((n * build_row_bytes) as u64)?;
                    self.reserved += (n * build_row_bytes) as u64;
                    store.extend_from_batch(&batch);
                }
            }
            BuildBuf::Rows(rows) => loop {
                self.ctx.governor.check()?;
                let Some(t) = self.build.next()? else { break };
                self.ctx.governor.try_reserve_memory(build_row_bytes as u64)?;
                self.reserved += build_row_bytes as u64;
                rows.push(t);
            },
        }
        self.build.close();
        // Build completion is a pipeline breaker: the build input's true
        // cardinality is now known exactly.
        if let Some(probe) = &self.checkpoint {
            probe.observe(buf.len() as u64);
        }
        self.probe.open()?;

        let build_bytes = buf.len() * build_row_bytes;
        if build_bytes <= self.budget_bytes {
            // The reservation stays held while the table is resident;
            // `close` releases it.
            match buf {
                BuildBuf::Cols(store) => {
                    if dop > 1 {
                        return self.open_parallel_radix(&store, dop);
                    }
                    let parts = radix_partitions(build_bytes, 1);
                    self.state = State::Radix(RadixTable::build(
                        &self.keys,
                        &self.ctx.counters,
                        &store,
                        parts,
                    ));
                }
                BuildBuf::Rows(rows) => {
                    if dop > 1 {
                        return self.open_parallel_in_memory(rows, dop);
                    }
                    self.state =
                        State::InMemory(build_table(&self.keys, &self.ctx.counters, rows));
                }
            }
            return Ok(());
        }

        // Grace partitioning: spill both inputs by key hash (accounted);
        // the buffered build rows move to disk, so release their grant.
        // The spill is single-threaded at every DOP — identical pages in
        // identical order — only the partition-pair joining fans out.
        let probe_row_bytes = self.probe.layout().row_bytes;
        let mut build_parts: Vec<HeapFile> = (0..PARTITIONS)
            .map(|_| HeapFile::new_temp(self.disk.clone()))
            .collect();
        match buf {
            BuildBuf::Rows(rows) => {
                for row in rows {
                    self.ctx.counters.add_hashes(1);
                    let p = (hash_key(&self.keys, &row, true) as usize) % PARTITIONS;
                    build_parts[p].append(&encode_record(&row, build_row_bytes))?;
                }
            }
            BuildBuf::Cols(store) => {
                // Same rows in the same order as the tuple path — the
                // spilled pages are byte-identical across modes.
                let mut scratch: Tuple = Vec::with_capacity(build_width);
                for i in 0..store.rows() {
                    scratch.clear();
                    store.gather_row_into(i, &mut scratch);
                    self.ctx.counters.add_hashes(1);
                    let p = (hash_key(&self.keys, &scratch, true) as usize) % PARTITIONS;
                    build_parts[p].append(&encode_record(&scratch, build_row_bytes))?;
                }
            }
        }
        self.release(build_bytes as u64);
        for part in &mut build_parts {
            part.finish()?;
        }
        let mut probe_parts: Vec<HeapFile> = (0..PARTITIONS)
            .map(|_| HeapFile::new_temp(self.disk.clone()))
            .collect();
        // Probe spill stays tuple-wise in both modes: its cost is
        // partition I/O, and interleaving reads and spill writes
        // identically keeps fault-plan ordinals mode-independent.
        loop {
            self.ctx.governor.check()?;
            let Some(row) = self.probe.next()? else { break };
            self.ctx.counters.add_hashes(1);
            let p = (hash_key(&self.keys, &row, false) as usize) % PARTITIONS;
            probe_parts[p].append(&encode_record(&row, probe_row_bytes))?;
        }
        for part in &mut probe_parts {
            part.finish()?;
        }
        if dop > 1 {
            return self.open_parallel_grace(build_parts, probe_parts, dop);
        }
        self.state = State::Partitioned {
            build_parts,
            probe_parts,
            part: 0,
        };
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        if let Some(e) = self.pending_err.take() {
            return Err(e);
        }
        loop {
            self.ctx.governor.check()?;
            if let Some(t) = self.pending.pop() {
                return Ok(Some(t));
            }
            match &mut self.state {
                State::Closed => return Ok(None),
                State::Streamed(out) => return Ok(out.next()),
                State::StreamedCols { batch, pos } => {
                    if *pos >= batch.rows() {
                        return Ok(None);
                    }
                    let row = batch.row_vec(*pos);
                    *pos += 1;
                    return Ok(Some(row));
                }
                State::InMemory(table) => {
                    let Some(probe_row) = self.probe.next()? else {
                        return Ok(None);
                    };
                    probe_into(&self.keys, &self.ctx.counters, table, &probe_row, &mut self.pending);
                }
                State::Radix(table) => {
                    let Some(probe_row) = self.probe.next()? else {
                        return Ok(None);
                    };
                    table.probe_row_into(&self.keys, &self.ctx.counters, &probe_row, &mut self.pending);
                }
                State::Partitioned {
                    build_parts,
                    probe_parts,
                    part,
                } => {
                    if *part >= PARTITIONS {
                        return Ok(None);
                    }
                    let p = *part;
                    *part += 1;
                    let build_width = self.build.layout().width();
                    let probe_width = self.probe.layout().width();
                    let build_row_bytes = self.build.layout().row_bytes;
                    let mut build_rows: Vec<Tuple> = Vec::new();
                    for record in build_parts[p].scan() {
                        build_rows.push(decode_record(&record?, build_width));
                    }
                    let mut probe_rows: Vec<Tuple> = Vec::new();
                    for record in probe_parts[p].scan() {
                        probe_rows.push(decode_record(&record?, probe_width));
                    }
                    // This partition's table is resident until the arm
                    // ends; reserve it (nothing is held on failure, both
                    // row vectors are dropped).
                    let part_bytes = (build_rows.len() * build_row_bytes) as u64;
                    self.ctx.governor.try_reserve_memory(part_bytes)?;
                    let table = build_table(&self.keys, &self.ctx.counters, build_rows);
                    for row in &probe_rows {
                        probe_into(&self.keys, &self.ctx.counters, &table, row, &mut self.pending);
                    }
                    drop(table);
                    self.ctx.governor.release_memory(part_bytes);
                    self.pending.reverse();
                }
            }
        }
    }

    /// Native batch probe. The serial resident path ([`State::Radix`])
    /// hashes each probe batch with the columnar kernel, walks the radix
    /// table's chains, and gathers match pairs into the output column by
    /// column; the serial Grace path joins each spilled partition pair
    /// through a per-partition radix table; the parallel batch path
    /// streams pre-merged columnar results in `max_rows` slices. The
    /// remaining states fall back to tuple-looping — their cost is thread
    /// work, not interpretation.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        if let Some(e) = self.pending_err.take() {
            return Err(e);
        }
        match &mut self.state {
            State::Radix(_) => {}
            State::Partitioned { build_parts, probe_parts, part } => {
                // Batched Grace: one spilled partition pair per iteration,
                // joined through a per-partition radix table instead of
                // the tuple path's `HashMap`. Reads, reservation points,
                // and counter totals are identical to the tuple arm in
                // `next()` — only the in-memory join is columnar.
                let build_width = self.build.layout().width();
                let probe_width = self.probe.layout().width();
                let build_row_bytes = self.build.layout().row_bytes;
                let mut out = RowBatch::with_capacity(self.layout.width(), max_rows);
                loop {
                    while out.rows() < max_rows {
                        let Some(t) = self.pending.pop() else { break };
                        out.push_row(&t);
                    }
                    if out.rows() >= max_rows || *part >= PARTITIONS {
                        return Ok(if out.rows() == 0 { None } else { Some(out) });
                    }
                    let p = *part;
                    *part += 1;
                    let mut store = ColumnStore::new(build_width);
                    for record in build_parts[p].scan() {
                        store.push_row(&decode_record(&record?, build_width));
                    }
                    let mut probe_batch = RowBatch::with_capacity(probe_width, 0);
                    for record in probe_parts[p].scan() {
                        probe_batch.push_row(&decode_record(&record?, probe_width));
                    }
                    self.ctx.governor.check_batch(probe_batch.rows() as u64)?;
                    let part_bytes = (store.rows() * build_row_bytes) as u64;
                    self.ctx.governor.try_reserve_memory(part_bytes)?;
                    let table = RadixTable::build(
                        &self.keys,
                        &self.ctx.counters,
                        &store,
                        radix_partitions(part_bytes as usize, 1),
                    );
                    let mut hashes: Vec<u64> = Vec::new();
                    hash_probe_batch(&self.keys, &probe_batch, &mut hashes);
                    let mut pairs_b: Vec<u32> = Vec::new();
                    let mut pairs_p: Vec<u32> = Vec::new();
                    for (j, &h) in hashes.iter().enumerate() {
                        let start = pairs_b.len();
                        table.chain_matches(
                            &self.keys,
                            h,
                            |pk| probe_batch.column(pk)[j],
                            &mut pairs_b,
                        );
                        // The tuple arm bulk-reverses its pending stack and
                        // drains it by `pop`, which emits each probe row's
                        // matches in *reverse* build-arrival order; mirror
                        // that here so drained tuples are identical.
                        pairs_b[start..].reverse();
                        pairs_p.resize(pairs_b.len(), j as u32);
                    }
                    self.ctx.counters.add_hashes(probe_batch.rows() as u64);
                    self.ctx.counters.add_records(pairs_b.len() as u64);
                    let room = max_rows - out.rows();
                    let emit = pairs_b.len().min(room);
                    table.gather_pairs_into(
                        &probe_batch,
                        &pairs_b[..emit],
                        &pairs_p[..emit],
                        true,
                        &mut out,
                    );
                    for k in (emit..pairs_b.len()).rev() {
                        self.pending
                            .push(table.pair_tuple(&probe_batch, pairs_b[k], pairs_p[k]));
                    }
                    drop(table);
                    self.ctx.governor.release_memory(part_bytes);
                }
            }
            State::StreamedCols { batch, pos } => {
                self.ctx.governor.check_batch(0)?;
                // Stashed rows first (tuple-path interleaving).
                if !self.pending.is_empty() {
                    let mut out = RowBatch::with_capacity(self.layout.width(), max_rows);
                    while out.rows() < max_rows {
                        let Some(t) = self.pending.pop() else { break };
                        out.push_row(&t);
                    }
                    return Ok(Some(out));
                }
                let take = max_rows.min(batch.rows() - *pos);
                if take == 0 {
                    return Ok(None);
                }
                let lo = *pos;
                *pos += take;
                let mut out = RowBatch::with_capacity(self.layout.width(), take);
                out.extend_rows_with(take, |cols| {
                    for (c, col) in cols.iter_mut().enumerate() {
                        col.extend_from_slice(&batch.column(c)[lo..lo + take]);
                    }
                });
                return Ok(Some(out));
            }
            _ => {
                // Grace / parallel tuple / closed: the default
                // tuple-looping behavior (`next` also surfaces a deferred
                // parallel-phase error first).
                let mut batch = RowBatch::with_capacity(self.layout.width(), max_rows);
                while batch.rows() < max_rows {
                    match self.next()? {
                        Some(t) => batch.push_row(&t),
                        None => break,
                    }
                }
                return Ok(if batch.rows() == 0 { None } else { Some(batch) });
            }
        }
        let State::Radix(table) = &self.state else {
            return Err(ExecError::Internal("hash join state changed".into()));
        };
        let mut out = RowBatch::with_capacity(self.layout.width(), max_rows);
        // Stashed matches first: from earlier tuple-path calls, or from a
        // previous batch whose last probe row out-produced the request.
        while out.rows() < max_rows {
            let Some(t) = self.pending.pop() else { break };
            out.push_row(&t);
        }
        let mut hashes: Vec<u64> = Vec::new();
        let mut pairs_b: Vec<u32> = Vec::new();
        let mut pairs_p: Vec<u32> = Vec::new();
        while out.rows() < max_rows {
            let Some(probe_batch) = self.probe.next_batch(max_rows)? else {
                break;
            };
            self.ctx.governor.check_batch(probe_batch.len() as u64)?;
            hash_probe_batch(&self.keys, &probe_batch, &mut hashes);
            pairs_b.clear();
            pairs_p.clear();
            for (j, idx) in probe_batch.selected_indices().enumerate() {
                table.chain_matches(
                    &self.keys,
                    hashes[j],
                    |pk| probe_batch.column(pk)[idx],
                    &mut pairs_b,
                );
                pairs_p.resize(pairs_b.len(), idx as u32);
            }
            self.ctx.counters.add_hashes(probe_batch.len() as u64);
            self.ctx.counters.add_records(pairs_b.len() as u64);
            let room = max_rows - out.rows();
            let emit = pairs_b.len().min(room);
            table.gather_pairs_into(
                &probe_batch,
                &pairs_b[..emit],
                &pairs_p[..emit],
                true,
                &mut out,
            );
            // Matches past the request: deliver them next call, stashed
            // in reverse so `pop` keeps order.
            for k in (emit..pairs_b.len()).rev() {
                self.pending
                    .push(table.pair_tuple(&probe_batch, pairs_b[k], pairs_p[k]));
            }
        }
        Ok(if out.rows() == 0 { None } else { Some(out) })
    }

    fn close(&mut self) {
        self.probe.close();
        self.state = State::Closed;
        self.pending.clear();
        self.pending_err = None;
        if self.reserved > 0 {
            self.ctx.governor.release_memory(self.reserved);
            self.reserved = 0;
        }
    }

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::ResourceLimits;

    #[test]
    fn hash_is_stable_across_sides_and_partitions() {
        // Build position 1 and probe position 0 carry the key.
        let keys: Keys = vec![(1, 0)];
        let build = [10i64, 42];
        let probe = [42i64, 99];
        let hb = hash_key(&keys, &build, true);
        let hp = hash_key(&keys, &probe, false);
        assert_eq!(hb, hp, "equal key values hash identically on both sides");
        for parts in [2usize, 4, 8] {
            assert_eq!(
                (hb as usize) % parts,
                (hp as usize) % parts,
                "partition assignment stable at {parts} partitions"
            );
        }
    }

    #[test]
    fn hash_spreads_small_sequential_keys() {
        let keys: Keys = vec![(0, 0)];
        let mut buckets = [0usize; PARTITIONS];
        for v in 0..800i64 {
            let h = hash_key(&keys, &[v], true);
            buckets[(h as usize) % PARTITIONS] += 1;
        }
        for (i, &count) in buckets.iter().enumerate() {
            assert!(
                count > 800 / PARTITIONS / 2,
                "bucket {i} starved: {buckets:?}"
            );
        }
    }

    #[test]
    fn batched_hash_kernel_matches_scalar() {
        // Two key columns; the folded column kernel must reproduce
        // hash_key bit for bit, dense and under a selection vector.
        let keys: Keys = vec![(0, 1), (1, 0)];
        let mut batch = RowBatch::new(2);
        for v in 0..100i64 {
            batch.push_row(&[v * 7 - 50, v * v]);
        }
        let mut hashes = Vec::new();
        hash_probe_batch(&keys, &batch, &mut hashes);
        for (i, &h) in hashes.iter().enumerate() {
            let row = batch.row_vec(i);
            assert_eq!(h, hash_key(&keys, &row, false), "row {i}");
        }
        batch.set_selection(vec![3, 17, 42, 99]);
        hash_probe_batch(&keys, &batch, &mut hashes);
        for (j, idx) in [3usize, 17, 42, 99].into_iter().enumerate() {
            let row = batch.row_vec(idx);
            assert_eq!(hashes[j], hash_key(&keys, &row, false), "selected row {idx}");
        }
    }

    #[test]
    fn radix_table_probe_matches_hashmap_semantics() {
        // Duplicate keys on both sides: matches must come back in
        // build-arrival order for each probe row, like the HashMap path.
        let keys: Keys = vec![(0, 0)];
        let counters = SharedCounters::default();
        let mut store = ColumnStore::new(2);
        let mut batch = RowBatch::new(2);
        for (k, payload) in [(1i64, 10i64), (2, 20), (1, 11), (3, 30), (1, 12)] {
            batch.push_row(&[k, payload]);
        }
        store.extend_from_batch(&batch);
        for parts in [1usize, 2, 4, 8] {
            let table = RadixTable::build(&keys, &counters, &store, parts);
            let mut out: Vec<Tuple> = Vec::new();
            table.probe_row_into(&keys, &counters, &[1, 99], &mut out);
            out.reverse();
            assert_eq!(
                out,
                vec![vec![1, 10, 1, 99], vec![1, 11, 1, 99], vec![1, 12, 1, 99]],
                "arrival order at {parts} partitions"
            );
            let mut none: Vec<Tuple> = Vec::new();
            table.probe_row_into(&keys, &counters, &[7, 0], &mut none);
            assert!(none.is_empty());
        }
    }

    #[test]
    fn scatter_preserves_arrival_order_within_partitions() {
        let hashes: Vec<u64> = (0..32).map(|i| mix(i as u64)).collect();
        let cols = vec![(0..32i64).collect::<Vec<_>>()];
        let (scols, shashes, starts) = scatter_by_partition(&cols, &hashes, 3, 0);
        assert_eq!(*starts.last().unwrap(), 32);
        for p in 0..4u64 {
            let (lo, hi) = (starts[p as usize], starts[p as usize + 1]);
            let mut last = -1i64;
            for i in lo..hi {
                assert_eq!(shashes[i] & 3, p, "row landed in wrong partition");
                assert!(scols[0][i] > last, "arrival order broken in partition {p}");
                last = scols[0][i];
            }
        }
    }

    fn batch_of(rows: &[[i64; 2]]) -> RowBatch {
        let mut b = RowBatch::new(2);
        for row in rows {
            b.push_row(row);
        }
        b
    }

    /// Nested-loop reference: `left ⊗ right` for every pair whose keys
    /// agree, over the live rows.
    fn nested_loops(left: &[RowBatch], right: &[RowBatch], keys: &[(usize, usize)]) -> Vec<Tuple> {
        let mut out = Vec::new();
        for l in left.iter().flat_map(RowBatch::iter) {
            for r in right.iter().flat_map(RowBatch::iter) {
                if keys.iter().all(|&(lk, rk)| l[lk] == r[rk]) {
                    out.push([l.clone(), r].concat());
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn joined(
        left: &[RowBatch],
        right: &[RowBatch],
        keys: &[(usize, usize)],
        build: BuildSide,
        chunk_rows: usize,
    ) -> Vec<Tuple> {
        let counters = SharedCounters::default();
        let out = join_batches(
            JoinInput {
                batches: left,
                width: 2,
            },
            JoinInput {
                batches: right,
                width: 2,
            },
            keys,
            build,
            chunk_rows,
            &counters,
        );
        let n = out.len();
        for (i, b) in out.iter().enumerate() {
            assert!(b.selection().is_none(), "output batches are dense");
            assert!(
                i + 1 == n || b.rows() == BATCH_CAPACITY,
                "full but the last"
            );
        }
        let mut rows: Vec<Tuple> = out.iter().flat_map(RowBatch::iter).collect();
        assert_eq!(
            counters.snapshot().records,
            rows.len() as u64,
            "one record per match"
        );
        rows.sort_unstable();
        rows
    }

    #[test]
    fn batch_join_emits_left_then_right_whichever_side_builds() {
        // Duplicate keys on both sides (key 1: 3 x 2 matches), a key on
        // one side only, and payloads that tell the sides apart.
        let left = vec![batch_of(&[[1, 10], [2, 20], [1, 11], [4, 40], [1, 12]])];
        let right = vec![batch_of(&[[100, 1], [200, 2], [101, 1], [300, 3]])];
        let keys = [(0, 1)];
        let expected = nested_loops(&left, &right, &keys);
        assert_eq!(expected.len(), 7);
        assert!(
            expected.contains(&vec![1, 11, 101, 1]),
            "left columns come first"
        );
        for build in [BuildSide::Left, BuildSide::Right] {
            for chunk in [1usize, 2, 3, usize::MAX] {
                assert_eq!(
                    joined(&left, &right, &keys, build, chunk),
                    expected,
                    "{build:?} {chunk}"
                );
            }
        }
        // Two key pairs: the second narrows the first's matches.
        let keys = [(0, 1), (1, 0)];
        let right2 = vec![batch_of(&[[11, 1], [99, 1], [20, 2]])];
        let expected = nested_loops(&left, &right2, &keys);
        assert_eq!(expected, vec![vec![1, 11, 11, 1], vec![2, 20, 20, 2]]);
        for build in [BuildSide::Left, BuildSide::Right] {
            assert_eq!(joined(&left, &right2, &keys, build, usize::MAX), expected);
        }
    }

    #[test]
    fn batch_join_respects_selection_vectors_on_either_input() {
        let mut left = vec![
            batch_of(&[[1, 10], [2, 20], [1, 11], [3, 30]]),
            batch_of(&[[2, 21]]),
        ];
        left[0].set_selection(vec![1, 2]);
        let mut right = vec![batch_of(&[[100, 1], [200, 2], [101, 1], [300, 3]])];
        let keys = [(0, 1)];
        for filtered_right in [false, true] {
            if filtered_right {
                right[0].set_selection(vec![0, 1, 3]);
            }
            let expected = nested_loops(&left, &right, &keys);
            for build in [BuildSide::Left, BuildSide::Right] {
                for chunk in [1usize, usize::MAX] {
                    assert_eq!(joined(&left, &right, &keys, build, chunk), expected);
                }
            }
        }
    }

    #[test]
    fn batch_join_of_empty_inputs_is_empty() {
        let some = vec![batch_of(&[[1, 10], [2, 20]])];
        let mut emptied = vec![batch_of(&[[1, 10]])];
        emptied[0].set_selection(Vec::new());
        for empty in [Vec::new(), emptied] {
            for build in [BuildSide::Left, BuildSide::Right] {
                assert!(joined(&empty, &some, &[(0, 0)], build, 4).is_empty());
                assert!(joined(&some, &empty, &[(0, 0)], build, 4).is_empty());
                assert!(joined(&empty, &empty, &[(0, 0)], build, 4).is_empty());
            }
        }
    }

    #[test]
    fn batch_join_over_pre_routed_keys_fills_batches_and_spreads_buckets() {
        // Every key routes to shard 0 of 4 (constant low hash bits), as on
        // a repartitioned shard; the join still finds every match, and
        // the output spans several full batches.
        let keys: Keys = vec![(0, 0)];
        let routed: Vec<i64> = (0..20_000i64)
            .filter(|&v| hash_key(&keys, &[v], true) & 3 == 0)
            .take(1500)
            .collect();
        let mut left = RowBatch::new(2);
        let mut right = RowBatch::new(2);
        for &v in &routed {
            left.push_row(&[v, 1]);
            right.push_row(&[v, 2]);
            right.push_row(&[v, 3]);
        }
        let (left, right) = (vec![left], vec![right]);
        let expected = nested_loops(&left, &right, &[(0, 0)]);
        assert_eq!(expected.len(), 3000);
        assert_eq!(
            joined(&left, &right, &[(0, 0)], BuildSide::Left, usize::MAX),
            expected
        );
        assert_eq!(
            joined(&left, &right, &[(0, 0)], BuildSide::Right, 700),
            expected
        );
        // Indexed from bit 16 up, the pre-routed keys use the whole
        // bucket array; from bit 0, at most the quarter whose low two
        // bits match.
        let occupied = |shift| {
            let counters = SharedCounters::default();
            let table = RadixTable::build_cols(&keys, &counters, &[&routed[..]], 1, shift);
            table.buckets[0].heads.iter().filter(|&&h| h != 0).count()
        };
        let (low, high) = (occupied(0), occupied(BATCH_JOIN_HASH_SHIFT));
        assert!(low <= 4096 / 4, "{low} buckets from bit 0");
        assert!(
            high > low + low / 4,
            "{high} from bit 16 vs {low} from bit 0"
        );
    }

    #[test]
    fn reserve_gate_waits_for_siblings_then_succeeds() {
        use std::sync::Arc;
        let governor = ResourceGovernor::new(ResourceLimits {
            memory_bytes: Some(100),
            ..ResourceLimits::default()
        });
        let gate = Arc::new(ReserveGate::new());
        // One "partition" holds most of the grant; a second must wait for
        // the release instead of failing.
        gate.reserve(&governor, 80).unwrap();
        let gate2 = Arc::clone(&gate);
        let governor2 = governor.clone();
        let waiter = std::thread::spawn(move || gate2.reserve(&governor2, 60));
        std::thread::sleep(std::time::Duration::from_millis(20));
        gate.release(&governor, 80);
        waiter.join().unwrap().unwrap();
        gate.release(&governor, 60);
        assert_eq!(governor.memory_used(), 0);
    }

    #[test]
    fn reserve_gate_fails_when_alone() {
        let governor = ResourceGovernor::new(ResourceLimits {
            memory_bytes: Some(100),
            ..ResourceLimits::default()
        });
        let gate = ReserveGate::new();
        let err = gate.reserve(&governor, 200).unwrap_err();
        assert!(matches!(err, ExecError::ResourceExhausted(_)));
    }
}

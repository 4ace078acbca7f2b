//! The Volcano iterator interface, tuple-at-a-time and batched.

use crate::batch::{RowBatch, BATCH_CAPACITY};
use crate::error::ExecError;
use crate::governor::{ExecMode, ResourceGovernor};
use crate::tuple::{Tuple, TupleLayout};

/// A demand-driven query operator (Volcano iterator model): `open`
/// prepares state (and may consume inputs eagerly for stop-and-go
/// operators like sort and hash-join build), `next` produces one tuple at
/// a time, `close` releases state.
///
/// `open` and `next` are fallible: storage faults, resource-governor
/// aborts and cancellation surface as [`ExecError`] instead of panics, so
/// a choose-plan operator can catch a retryable `open` failure and fall
/// back to another alternative. `close` stays infallible — teardown must
/// always succeed so errors propagate without leaking operator state.
///
/// Operators additionally transport rows in batches through
/// [`Operator::next_batch`]. The default implementation loops `next()`, so
/// every operator works in a batched pipeline unchanged; hot operators
/// (scans, filter, hash join, sort) override it natively to amortize
/// per-row costs. One pipeline must stick to one interface between `open`
/// and `close` — interleaving `next` and `next_batch` calls on the same
/// operator is unsupported.
pub trait Operator {
    /// Prepares the operator; must be called before `next`.
    ///
    /// # Errors
    /// Any [`ExecError`]; blocking operators do their buffering here, so
    /// memory exhaustion and most storage faults surface from `open`.
    fn open(&mut self) -> Result<(), ExecError>;

    /// Produces the next tuple, or `Ok(None)` when exhausted.
    ///
    /// # Errors
    /// Any [`ExecError`]. After an error the operator's state is
    /// unspecified; callers should `close` it and not call `next` again.
    fn next(&mut self) -> Result<Option<Tuple>, ExecError>;

    /// Produces the next batch of up to roughly `max_rows` rows, or
    /// `Ok(None)` when exhausted. A returned batch is never empty of
    /// physical rows, but a native filter may return a batch whose
    /// selection vector is empty — callers iterate live rows and pull
    /// again.
    ///
    /// The default implementation loops [`Operator::next`]; it is
    /// *correct* for every operator but pays the tuple path's per-row
    /// costs.
    ///
    /// # Errors
    /// Any [`ExecError`], as for `next`.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        let mut batch = RowBatch::with_capacity(self.layout().width(), max_rows);
        while batch.rows() < max_rows {
            match self.next()? {
                Some(t) => batch.push_row(&t),
                None => break,
            }
        }
        Ok(if batch.rows() == 0 { None } else { Some(batch) })
    }

    /// Releases resources; the operator may not be reopened.
    fn close(&mut self);

    /// The layout of produced tuples.
    fn layout(&self) -> &TupleLayout;

    /// A hint of how many rows this operator will still produce, when it
    /// knows (a file scan knows its table's record count; a sort knows its
    /// buffered output exactly after `open`). `None` when unknown —
    /// operators whose output depends on predicate selectivity do not
    /// guess. Callers use this to pre-size result buffers only; it has no
    /// correctness weight.
    fn estimated_rows(&self) -> Option<u64> {
        None
    }
}

/// A boxed operator as the compiler produces it. Operators are `Send` so
/// a compiled subtree can be handed to an exchange worker thread; they are
/// not `Sync` — each worker owns its subtree exclusively.
pub type BoxedOperator<'a> = Box<dyn Operator + Send + 'a>;

/// Caps speculative `Vec` pre-sizing from [`Operator::estimated_rows`], so
/// a bad hint cannot ask for unbounded memory up front.
pub(crate) const MAX_PRESIZE_ROWS: u64 = 1 << 20;

/// What a drain does with result rows: count them, or also keep them —
/// as owned tuples or as the root's batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Count rows only; nothing is materialized.
    Count,
    /// Collect every row as an owned [`Tuple`] (pre-sized from
    /// [`Operator::estimated_rows`]).
    Collect,
    /// Keep the root's [`RowBatch`]es as produced, selection vectors
    /// included (batches with no live row are dropped); tuple mode packs
    /// its rows into dense batches of [`BATCH_CAPACITY`]. No row becomes a
    /// `Vec<i64>`.
    Batches,
}

/// What one drain produced: the row count, plus the rows in the form the
/// [`Sink`] asked for (`tuples` under [`Sink::Collect`], `batches` under
/// [`Sink::Batches`], both empty under [`Sink::Count`]).
#[derive(Debug, Default)]
pub(crate) struct Drained {
    pub(crate) rows: u64,
    pub(crate) tuples: Vec<Tuple>,
    pub(crate) batches: Vec<RowBatch>,
}

/// The one drain loop: opens `op`, pulls it dry through the interface
/// `mode` selects — `next()` per tuple or `next_batch()` per
/// [`crate::RowBatch`] — and closes it on success *and* on error, so
/// buffered state and memory reservations are released either way.
/// With a `governor`, result rows are charged against its row budget
/// (once per tuple, or once per batch: the budget trips at the same
/// cumulative counts). Returns the row count and the rows `sink` keeps.
pub(crate) fn pull(
    op: &mut dyn Operator,
    mode: ExecMode,
    governor: Option<&ResourceGovernor>,
    sink: Sink,
) -> Result<Drained, ExecError> {
    fn run(
        op: &mut dyn Operator,
        mode: ExecMode,
        governor: Option<&ResourceGovernor>,
        sink: Sink,
        out: &mut Drained,
    ) -> Result<(), ExecError> {
        op.open()?;
        if let (Sink::Collect, Some(n)) = (sink, op.estimated_rows()) {
            out.tuples.reserve(n.min(MAX_PRESIZE_ROWS) as usize);
        }
        let width = op.layout().width();
        match mode {
            ExecMode::Tuple => {
                while let Some(t) = op.next()? {
                    if let Some(g) = governor {
                        g.charge_rows(1)?;
                    }
                    out.rows += 1;
                    match sink {
                        Sink::Count => {}
                        Sink::Collect => out.tuples.push(t),
                        Sink::Batches => match out.batches.last_mut() {
                            Some(b) if b.rows() < BATCH_CAPACITY => b.push_row(&t),
                            _ => {
                                let mut b = RowBatch::new(width);
                                b.push_row(&t);
                                out.batches.push(b);
                            }
                        },
                    }
                }
            }
            ExecMode::Batch => {
                while let Some(batch) = op.next_batch(BATCH_CAPACITY)? {
                    let n = batch.len() as u64;
                    if let Some(g) = governor {
                        g.charge_rows(n)?;
                    }
                    out.rows += n;
                    match sink {
                        Sink::Count => {}
                        Sink::Collect => out.tuples.extend(batch.iter()),
                        Sink::Batches if n > 0 => out.batches.push(batch),
                        Sink::Batches => {}
                    }
                }
            }
        }
        Ok(())
    }
    let mut out = Drained::default();
    let result = run(op, mode, governor, sink, &mut out);
    op.close();
    result.map(|()| out)
}

/// Drains an operator to completion through the interface `mode` selects,
/// returning all tuples. No row budget is charged. The operator is closed
/// on success *and* on error.
///
/// # Errors
/// The first [`ExecError`] raised by `open`, `next` or `next_batch`.
pub fn drain(op: &mut dyn Operator, mode: ExecMode) -> Result<Vec<Tuple>, ExecError> {
    pull(op, mode, None, Sink::Collect).map(|d| d.tuples)
}

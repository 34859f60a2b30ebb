//! Failure-atomic transactions (`libtx`, §3.6 and §4.1).
//!
//! Transactions are thread-local: each thread lazily acquires one log puddle
//! from the daemon and reuses it for every subsequent transaction. Inside a
//! transaction the application (and the allocator) record undo entries
//! ([`Transaction::add`], the analogue of `TX_ADD`) and redo entries
//! ([`Transaction::redo_set`], the analogue of `TX_REDO_SET`); commit then
//! runs the three stages of Fig. 7:
//!
//! 1. flush every undo-logged location (coalesced by cache line), fence,
//!    publish sequence range `(2,4)`;
//! 2. copy every redo entry to its target (straight from the log memory —
//!    zero-copy), flush, fence, publish `(4,4)`;
//! 3. the transaction is complete; the log is reset.
//!
//! # Persist cost of the hot path
//!
//! Log appends go through [`LogWriter`]: the cursor lives in DRAM, so an
//! append is one unfenced flush — no log-header rewrite and no `sfence`.
//! The fences the stages above already issue are the only fences in a
//! transaction; by the time a sequence range advances, every entry flushed
//! before it is durable. Undo logging is additionally *deduplicated*
//! through an [`IntervalSet`]: re-logging an already-covered location (the
//! dominant pattern in tree updates) appends nothing.
//!
//! One ordering caveat is inherent to eliding the per-append fence: after
//! `add`/`set` return, nothing orders the undo entry's write-back before
//! the caller's in-place store to the same location. On ADR hardware whose
//! cache evicts lines in arbitrary order, a power failure could persist
//! the mutated data while the (flushed but unfenced) undo entry is still
//! in cache, leaving that location unrecoverable. This reproduction's
//! crash model makes the race unobservable — a crash is an armed
//! [`CrashPoint`] of the client's fault plan aborting the operation over
//! mmap-backed "PM", so every executed store is durable and tearing exists
//! only where a crash point injects it — but a port to real PM must fence
//! between a *first-touch* undo append and the store it guards (dedup
//! already makes later touches fence-free). Tracked in ROADMAP.
//!
//! A crash anywhere in this sequence leaves the log in a state from which
//! the daemon's recovery (stage-aware replay) produces a consistent result:
//! before `(2,4)` the durable prefix of undo entries rolls the transaction
//! back, after it the redo entries roll it forward.

use crate::alloc::MetaLogger;
use crate::client::{ClientInner, ThreadLogHandle};
use crate::error::{Error, Result};
use crate::interval::IntervalSet;
use puddles_logfmt::{
    chain_iter, replay_chain, segment_payload_capacity, DirectMemoryTarget, EntryKind, LogWriter,
    ReplayOrder, RANGE_REDO, SEQ_REDO, SEQ_UNDO,
};
use puddles_pmem::faultio::{self, CrashPoint};
use puddles_pmem::persist;
use puddles_pmem::{PmError, CACHELINE};
use puddles_proto::PuddleInfo;
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static IN_TX: Cell<bool> = const { Cell::new(false) };
}

/// An open failure-atomic transaction.
///
/// Obtained through [`crate::PuddleClient::tx`] (or `Pool::tx`); all undo /
/// redo records of one transaction go to this thread's cached log puddle.
/// A transaction that outgrows that puddle transparently *chains* further
/// log puddles (Fig. 5's `chain_index`): the daemon supplies a fresh
/// puddle, it is registered in the log space under the same `log_id`, and
/// logging continues — [`Error::TxTooLarge`] is raised only when the daemon
/// cannot supply another log puddle (or a single entry exceeds a whole
/// segment). Chained segments are released back to the daemon once the
/// transaction commits or aborts.
pub struct Transaction<'c> {
    client: &'c ClientInner,
    writer: LogWriter,
    /// Undo-logged `[addr, addr+len)` ranges: dedups re-logging and drives
    /// the coalesced stage-1 flush.
    undo_set: IntervalSet,
    /// Log-space id shared by every segment of this thread's log chain.
    log_id: u64,
    /// Chain segments acquired mid-transaction, in `chain_index` order
    /// starting at 1; released after commit/abort (never on an injected
    /// crash — the daemon's recovery reclaims them, like real power loss).
    chain: Vec<PuddleInfo>,
}

impl<'c> Transaction<'c> {
    /// Appends one log entry, growing the log chain when the active segment
    /// is full. Every logging path funnels through here so chaining is
    /// transparent to `add`/`set`/`redo_set`/allocator metadata logging.
    fn append_entry(
        &mut self,
        addr: u64,
        seq: u32,
        order: ReplayOrder,
        kind: EntryKind,
        data: &[u8],
    ) -> Result<()> {
        match self.writer.append(addr, seq, order, kind, data) {
            Ok(()) => Ok(()),
            Err(PmError::LogFull { need, free }) => {
                let segment_capacity =
                    self.client.log_puddle_size() as usize - puddled::LOG_REGION_OFFSET;
                if data.len() > segment_payload_capacity(segment_capacity) {
                    // No fresh segment could ever hold this payload; chaining
                    // would allocate puddles forever without making progress.
                    return Err(Error::TxTooLarge { need, free });
                }
                self.extend_chain(need, free)?;
                self.writer
                    .append(addr, seq, order, kind, data)
                    .map_err(Error::from)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Chains one more log puddle onto this transaction's log.
    ///
    /// Ordering at the chain boundary (the Fig. 7 discipline): the new
    /// tail's header is initialized and fenced by [`LogWriter::extend`]
    /// (which also commits every unfenced flush into earlier segments),
    /// then the log-space slot is persisted and fenced — only after that
    /// does the first append land in the tail, so recovery always finds a
    /// registered (possibly empty) segment, never entries it cannot reach.
    fn extend_chain(&mut self, need: usize, free: usize) -> Result<()> {
        let (info, seg) = match self.client.acquire_log_segment() {
            Ok(pair) => pair,
            // The daemon cannot supply another log puddle — the log cannot
            // grow, which is what TxTooLarge reports. Other daemon errors
            // (permission, shutdown) keep their own diagnosis.
            Err(Error::Daemon(e)) if e.code == puddles_proto::ErrorCode::OutOfSpace => {
                return Err(Error::TxTooLarge { need, free })
            }
            Err(e) => return Err(e),
        };
        // Crash window: the puddle exists daemon-side but no log space
        // references it yet — only the startup sweep can reclaim it.
        faultio::crash(self.client.faults.as_deref(), CrashPoint::LogChainAlloc)?;
        let chain_index = self.chain.len() as u32 + 1;
        // Track the segment before registering it: if registration fails,
        // the abort path still releases the acquired puddle.
        self.chain.push(info);
        let info = self.chain.last().expect("just pushed");
        self.writer.extend(seg).map_err(Error::from)?;
        self.client
            .register_log_segment(info, self.log_id, chain_index)
            .map_err(|e| match e {
                // Every log-space slot is taken: the log genuinely cannot
                // grow any further, same condition as a daemon refusal.
                Error::Pm(PmError::OutOfRange { .. }) => Error::TxTooLarge { need, free },
                other => other,
            })?;
        faultio::crash(self.client.faults.as_deref(), CrashPoint::LogChainRegister)?;
        Ok(())
    }

    /// Unregisters, unmaps and frees every chained segment (best-effort);
    /// called after the head log was reset, so the chain is already invalid
    /// for recovery whichever prefix of the release survives.
    fn release_chain(&mut self) {
        for info in std::mem::take(&mut self.chain) {
            self.client.release_log_segment(&info);
        }
    }
    /// Undo-logs the current contents of `*target` so the transaction can
    /// roll it back (the analogue of `TX_ADD`). The caller then updates the
    /// location in place.
    pub fn add<T>(&mut self, target: &T) -> Result<()> {
        self.add_range(target as *const T as usize, std::mem::size_of::<T>())
    }

    /// Undo-logs `[addr, addr + len)`.
    ///
    /// Re-logging a range that earlier undo logging already covers is a
    /// no-op: the first entry captured the pre-transaction bytes, and
    /// reverse-order replay applies it last, so it alone decides the
    /// rolled-back contents.
    pub fn add_range(&mut self, addr: usize, len: usize) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        if self.undo_set.covers(addr as u64, len as u64) {
            return Ok(());
        }
        // SAFETY: the caller asserts (by passing the location to a logging
        // call) that `[addr, addr+len)` is a mapped, readable persistent
        // location it owns for the duration of the transaction.
        let data = unsafe { std::slice::from_raw_parts(addr as *const u8, len) };
        self.append_entry(
            addr as u64,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            data,
        )?;
        self.undo_set.insert(addr as u64, len as u64);
        Ok(())
    }

    /// Undo-logs `*target` and then stores `value` into it: the common
    /// "logged store" idiom.
    pub fn set<T: Copy>(&mut self, target: &mut T, value: T) -> Result<()> {
        self.add(&*target)?;
        *target = value;
        Ok(())
    }

    /// Redo-logs a store of `value` into `*target` (the analogue of
    /// `TX_REDO_SET`): the location is untouched now and updated when the
    /// transaction commits.
    pub fn redo_set<T: Copy>(&mut self, target: &T, value: T) -> Result<()> {
        // SAFETY: `value` is a live local; viewing it as bytes is sound for
        // Copy types.
        let bytes = unsafe {
            std::slice::from_raw_parts(&value as *const T as *const u8, std::mem::size_of::<T>())
        };
        self.redo_set_bytes(target as *const T as usize, bytes)
    }

    /// Redo-logs a store of `bytes` at `addr`.
    pub fn redo_set_bytes(&mut self, addr: usize, bytes: &[u8]) -> Result<()> {
        self.append_entry(
            addr as u64,
            SEQ_REDO,
            ReplayOrder::Forward,
            EntryKind::Redo,
            bytes,
        )
    }

    /// Logs the current contents of a *volatile* location so an abort can
    /// restore it; ignored by post-crash recovery (§4.1).
    ///
    /// Volatile entries are not deduplicated: they live in a different
    /// address space than the persistent undo set tracks.
    pub fn add_volatile<T>(&mut self, target: &T) -> Result<()> {
        let addr = target as *const T as usize;
        let len = std::mem::size_of::<T>();
        // SAFETY: as in `add_range`, for a volatile location.
        let data = unsafe { std::slice::from_raw_parts(addr as *const u8, len) };
        self.append_entry(
            addr as u64,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Volatile,
            data,
        )
    }

    /// Returns the number of log entries recorded so far.
    pub fn entries(&self) -> u64 {
        self.writer.num_entries()
    }

    /// Number of log puddles backing this transaction's log chain
    /// (1 = no chaining has happened yet).
    pub fn chain_segments(&self) -> usize {
        self.writer.segment_count()
    }

    /// Largest payload that can still be logged **without chaining another
    /// segment** — the active segment's headroom. Chaining extends this
    /// transparently; the hard limit is the daemon's willingness to supply
    /// further log puddles.
    pub fn log_free_bytes(&self) -> usize {
        self.writer.free_bytes()
    }

    fn commit(&mut self) -> Result<()> {
        let faults = self.client.faults.as_deref();
        // Stage 1: make every undo-logged location durable. Spans are
        // sorted and disjoint, so tracking the last flushed cache line
        // ensures a line shared by two spans is flushed once. The closing
        // `sfence` also commits every unfenced log-entry flush issued by
        // the appends.
        let line_mask = !(CACHELINE as u64 - 1);
        let mut flushed_to: u64 = 0;
        for (start, end) in self.undo_set.spans() {
            let from = (start & line_mask).max(flushed_to);
            if from < end {
                persist::flush(from as *const u8, (end - from) as usize);
                flushed_to = (end + CACHELINE as u64 - 1) & line_mask;
            }
        }
        persist::sfence();
        faultio::crash(faults, CrashPoint::CommitAfterUndoFlush)?;
        // Publish stage 2: only redo entries are live from here on.
        self.writer.set_seq_range(RANGE_REDO);
        faultio::crash(faults, CrashPoint::CommitBeforeRedoApply)?;

        // Stage 2: apply the redo entries in logging order, copying each
        // payload straight out of the log memory (zero-copy), stitched
        // across every chained segment.
        let mut applied = 0usize;
        for (hdr, data) in chain_iter(self.writer.chain()) {
            if !RANGE_REDO.contains(hdr.seq) {
                continue;
            }
            // SAFETY: the application redo-logged this address inside the
            // transaction, asserting it owns a writable mapping of it; the
            // log memory and the target never overlap (log puddles hold no
            // application data).
            unsafe {
                std::ptr::copy_nonoverlapping(data.as_ptr(), hdr.addr as *mut u8, data.len());
            }
            persist::flush(hdr.addr as *const u8, data.len());
            applied += 1;
            if applied == 1 {
                if let Err(crash) = faultio::crash(faults, CrashPoint::CommitMidRedoApply) {
                    persist::sfence();
                    return Err(crash.into());
                }
            }
        }
        persist::sfence();
        faultio::crash(faults, CrashPoint::CommitBeforeInvalidate)?;

        // Stage 3: the transaction is complete; drop the log (the head
        // reset is the single fenced write invalidating the whole chain)
        // and return any chained segments to the daemon.
        self.writer.reset();
        self.release_chain();
        Ok(())
    }

    fn abort(&mut self) {
        // Roll back in-place (undo-logged) updates and volatile locations,
        // replaying across every chained segment.
        let mut target = DirectMemoryTarget::unrestricted();
        replay_chain(self.writer.chain(), &mut target, true);
        self.writer.reset();
        self.release_chain();
    }
}

impl MetaLogger for Transaction<'_> {
    fn log_range(&mut self, addr: usize, len: usize) -> Result<()> {
        self.add_range(addr, len)
    }
}

/// Runs `body` inside a failure-atomic transaction on the calling thread.
pub(crate) fn run_tx<R>(
    client: &Arc<ClientInner>,
    body: impl FnOnce(&mut Transaction<'_>) -> Result<R>,
) -> Result<R> {
    if IN_TX.with(|flag| flag.get()) {
        return Err(Error::NestedTransaction);
    }
    let handle = client.thread_log()?;
    IN_TX.with(|flag| flag.set(true));
    let result = run_tx_inner(client, handle, body);
    IN_TX.with(|flag| flag.set(false));
    result
}

fn run_tx_inner<R>(
    client: &Arc<ClientInner>,
    handle: ThreadLogHandle,
    body: impl FnOnce(&mut Transaction<'_>) -> Result<R>,
) -> Result<R> {
    // One fenced header write starts the transaction: bump the generation
    // (orphaning any leftover entries) and publish the exec-stage range.
    let writer = LogWriter::begin(handle.log)?.with_faults(client.faults.clone());
    let mut tx = Transaction {
        client,
        writer,
        undo_set: IntervalSet::new(),
        log_id: handle.log_id,
        chain: Vec::new(),
    };
    match body(&mut tx) {
        Ok(value) => match tx.commit() {
            Ok(()) => Ok(value),
            Err(e) => Err(e),
        },
        // An injected crash must leave persistent state exactly as the
        // "power failure" found it: no abort processing.
        Err(e) if e.is_injected_crash() => Err(e),
        Err(e) => {
            tx.abort();
            Err(e)
        }
    }
}

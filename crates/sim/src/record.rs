//! Event-trace capture: record one execution's event stream into a
//! compact buffer that can be replayed into any [`TraceSink`].
//!
//! [`RecordSink`] captures the executor's four event kinds (block,
//! access, marker, branch) and [`replay`](crate::replay::replay) feeds
//! them back into a sink with none of the interpreter's control-flow,
//! occurrence-counter, or address-generation overhead. Replay is the
//! equivalence oracle for the live simulators, and the encoding is
//! the one trace slices are stored in. The simulators' own cost
//! dominates both a live run and a replay, so the estimate path
//! simulates live and records no whole-execution trace.
//!
//! # Encoding
//!
//! The buffer is a flat byte stream of events, each a *head* LEB128
//! varint followed by zero or more payload varints. The head's low two
//! bits select the event kind; integer operands that track a running
//! value (block ids, access addresses, branch ids) are delta-encoded
//! against the previous operand of the same kind, zigzag-mapped so
//! small forward or backward deltas stay short, and folded into the
//! head varint — the common event decodes with a single varint read:
//!
//! | kind | head | payload |
//! |---|---|---|
//! | block | `zigzag(block_id Δ) << 2 \| 0b00` | `instrs` |
//! | access | `(zigzag(addr Δ) + 1) << 3 \| write << 2 \| 0b01` | — |
//! | marker | `id << 4 \| marker_kind << 2 \| 0b10` | — |
//! | branch | `(zigzag(branch_id Δ) + 1) << 3 \| taken << 2 \| 0b11` | — |
//!
//! Access and branch deltas whose zigzag code is too large to fold
//! (≥ `FOLD_LIMIT`, i.e. the shifted head would overflow 64 bits) set
//! the folded field to 0 — an escape — and carry `zigzag(Δ)` as a
//! payload varint instead. Block deltas never need the escape: block
//! ids are 32-bit, so their shifted zigzag code always fits.
//!
//! `marker_kind` is 0 for procedure entries, 1 for loop entries, 2 for
//! loop backs. All delta state starts at zero, so a trace decodes
//! without any out-of-band context; the [`EventTrace`] header carries
//! only the marker-vector dimensions (so marker-counting sinks can be
//! sized without the original [`Binary`]) and the event count (so
//! truncation is detectable).

use cbsp_program::{run, Binary, ExecSummary, Input, Marker, TeeSink, TraceSink};

/// Event-kind tag stored in the low two bits of each head varint.
pub(crate) const TAG_BLOCK: u64 = 0b00;
pub(crate) const TAG_ACCESS: u64 = 0b01;
pub(crate) const TAG_MARKER: u64 = 0b10;
pub(crate) const TAG_BRANCH: u64 = 0b11;

/// Largest zigzag code an access or branch delta may have and still be
/// folded (as `code + 1`) into the head varint's bits above the flag.
/// Codes at or above this limit take the escape encoding (folded field
/// 0, delta in a payload varint).
pub(crate) const FOLD_LIMIT: u64 = u64::MAX >> 3;

/// Maps a signed delta onto an unsigned integer with small absolute
/// values staying small (LEB128-friendly).
#[inline]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as an LEB128 varint (7 payload bits per byte,
/// continuation in the high bit).
#[inline]
pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// A recorded execution: the complete event stream of one
/// `(binary, input)` run in the encoding described in the
/// [module docs](self).
///
/// Equivalence invariant: replaying a trace through any sink produces
/// exactly the callback sequence the original [`run`] produced, so
/// simulation results computed from a replay are byte-identical to
/// direct interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventTrace {
    /// Number of procedures in the recorded binary (sizes marker-count
    /// vectors at replay time).
    pub n_procs: u32,
    /// Number of loops in the recorded binary.
    pub n_loops: u32,
    /// Number of events encoded in `bytes`.
    pub events: u64,
    /// The encoded event stream.
    pub bytes: Vec<u8>,
}

impl EventTrace {
    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }
}

/// A [`TraceSink`] that captures every event into an [`EventTrace`].
///
/// Use directly to record alongside arbitrary instrumentation, or via
/// [`record_trace`] / [`record_trace_with`] for the common cases.
#[derive(Debug)]
pub struct RecordSink {
    buf: Vec<u8>,
    events: u64,
    prev_block: u64,
    prev_addr: u64,
    prev_branch: u64,
    n_procs: u32,
    n_loops: u32,
}

impl RecordSink {
    /// Creates a recorder sized for `binary`.
    pub fn for_binary(binary: &Binary) -> Self {
        Self::with_dims(binary.procs.len() as u32, binary.loops.len() as u32)
    }

    /// Creates a recorder with explicit marker-vector dimensions, for
    /// callers that re-encode a recorded stream (e.g. trace slicing)
    /// and so have no [`Binary`] at hand. Delta state starts at zero,
    /// exactly as replay's decode state does, so a stream recorded here
    /// decodes without out-of-band context.
    pub fn with_dims(n_procs: u32, n_loops: u32) -> Self {
        RecordSink {
            buf: Vec::with_capacity(64 * 1024),
            events: 0,
            prev_block: 0,
            prev_addr: 0,
            prev_branch: 0,
            n_procs,
            n_loops,
        }
    }

    /// Number of events recorded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Consumes the recorder, returning the captured trace.
    pub fn finish(self) -> EventTrace {
        cbsp_trace::add("sim/record_bytes", self.buf.len() as u64);
        EventTrace {
            n_procs: self.n_procs,
            n_loops: self.n_loops,
            events: self.events,
            bytes: self.buf,
        }
    }

    /// Records a delta-coded operand event (block / access / branch).
    #[inline]
    fn delta(prev: &mut u64, cur: u64) -> u64 {
        let d = cur.wrapping_sub(*prev) as i64;
        *prev = cur;
        zigzag(d)
    }

    /// Encodes an access/branch head with the delta folded in, or the
    /// escape form when the zigzag code is too large to fold.
    #[inline]
    fn push_folded(buf: &mut Vec<u8>, zz: u64, flags: u64) {
        if zz < FOLD_LIMIT {
            push_varint(buf, ((zz + 1) << 3) | flags);
        } else {
            buf.push(flags as u8);
            push_varint(buf, zz);
        }
    }
}

impl TraceSink for RecordSink {
    #[inline]
    fn on_block(&mut self, block: cbsp_program::BlockId, instrs: u64) {
        let zz = Self::delta(&mut self.prev_block, u64::from(u32::from(block)));
        push_varint(&mut self.buf, (zz << 2) | TAG_BLOCK);
        push_varint(&mut self.buf, instrs);
        self.events += 1;
    }

    #[inline]
    fn on_access(&mut self, addr: u64, is_write: bool) {
        let zz = Self::delta(&mut self.prev_addr, addr);
        Self::push_folded(&mut self.buf, zz, (u64::from(is_write) << 2) | TAG_ACCESS);
        self.events += 1;
    }

    #[inline]
    fn on_marker(&mut self, marker: Marker) {
        let (kind, id) = match marker {
            Marker::ProcEntry(p) => (0u64, u64::from(u32::from(p))),
            Marker::LoopEntry(l) => (1, u64::from(u32::from(l))),
            Marker::LoopBack(l) => (2, u64::from(u32::from(l))),
        };
        push_varint(&mut self.buf, (id << 4) | (kind << 2) | TAG_MARKER);
        self.events += 1;
    }

    #[inline]
    fn on_branch(&mut self, branch: u64, taken: bool) {
        let zz = Self::delta(&mut self.prev_branch, branch);
        Self::push_folded(&mut self.buf, zz, (u64::from(taken) << 2) | TAG_BRANCH);
        self.events += 1;
    }
}

/// Interprets `binary` on `input` once, recording the full event
/// stream.
pub fn record_trace(binary: &Binary, input: &Input) -> EventTrace {
    let _span = cbsp_trace::span_labeled("sim/record", || binary.label());
    let mut sink = RecordSink::for_binary(binary);
    run(binary, input, &mut sink);
    sink.finish()
}

/// Interprets `binary` on `input` once, recording the event stream
/// *and* teeing every event into `primary` — one interpretation serves
/// both the live analysis and all future replays.
pub fn record_trace_with<S: TraceSink>(
    binary: &Binary,
    input: &Input,
    primary: &mut S,
) -> (EventTrace, ExecSummary) {
    let _span = cbsp_trace::span_labeled("sim/record", || binary.label());
    let mut rec = RecordSink::for_binary(binary);
    let summary = run(
        binary,
        input,
        &mut TeeSink {
            a: &mut rec,
            b: primary,
        },
    );
    (rec.finish(), summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::MAX,
            i64::MIN,
            1 << 40,
            -(1 << 40),
        ] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut buf = Vec::new();
        push_varint(&mut buf, 0x7F);
        assert_eq!(buf.len(), 1);
        push_varint(&mut buf, 0x80);
        assert_eq!(buf.len(), 3, "128 needs two bytes");
        push_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 13, "u64::MAX needs ten bytes");
    }

    #[test]
    fn recording_counts_every_event() {
        use cbsp_program::{compile, CompileTarget, ProgramBuilder};
        let mut b = ProgramBuilder::new("t");
        let a = b.array_i32("a", 64);
        b.proc("main", |p| {
            p.loop_fixed(7, |body| {
                body.compute(10, |k| {
                    k.seq(a, 4);
                });
            });
        });
        let bin = compile(&b.finish(), CompileTarget::W32_O2);
        let mut sink = RecordSink::for_binary(&bin);
        let summary = run(&bin, &Input::test(), &mut sink);
        let trace = sink.finish();
        let markers: u64 = summary.proc_entries.iter().sum::<u64>()
            + summary.loop_entries.iter().sum::<u64>()
            + summary.loop_backs.iter().sum::<u64>();
        // block + access + marker events, plus one branch per loop back.
        let expected =
            summary.block_executions + summary.accesses + markers + summary.loop_backs[0];
        assert_eq!(trace.events, expected);
        assert!(trace.encoded_len() > 0);
        assert_eq!(trace.n_procs, bin.procs.len() as u32);
        assert_eq!(trace.n_loops, bin.loops.len() as u32);
    }
}

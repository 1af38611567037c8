//! Recorded-traffic scenario files and the chunked parallel replay loader.
//!
//! The paper's economics only show up at scale: millions of devices pushing
//! contributions through a small trusted front end. Driving that scale from
//! an in-process loop (E11–E16) conflates generator cost with gateway cost,
//! so this module gives every scenario a shared **on-disk representation**
//! that can be generated once and replayed at full hardware speed.
//!
//! # Scenario format
//!
//! A scenario file is plain ASCII lines, one record per line:
//!
//! ```text
//! tenant;device;tick;seed\n
//! ```
//!
//! All four fields are decimal `u64` (tenant additionally must fit `u32`).
//! `tick` is the arrival tick — non-decreasing across the file — and `seed`
//! deterministically expands into the record's payload samples via
//! [`payload_samples`], so a multi-hundred-MB file still round-trips
//! bit-for-bit from a [`ScenarioSpec`]. The top bit of `seed`
//! ([`ABUSE_FLAG`]) marks an abusive record whose expanded payload contains
//! out-of-range samples the enclave policy rejects.
//!
//! # Chunked parallel loading (the 1brc `CHUNK_EXCESS` idiom)
//!
//! [`load_chunks`] splits the file into `N` near-equal byte ranges
//! ([`chunk_spans`]) and parses each on its own reader. A byte range almost
//! never falls on a record boundary, so ownership is defined positionally:
//! **a record belongs to the span containing its first byte.** A reader
//! whose span starts mid-record skips forward to the first line that starts
//! inside its span (the byte after the first `\n` at or past `start - 1`),
//! and keeps parsing past its span end until the last line it owns is
//! terminated. Each reader's window therefore extends [`CHUNK_EXCESS`]
//! bytes past its span (growing further on demand), and together the
//! readers parse **every record exactly once** — no record is split, lost,
//! or double-read, for any file size × chunk count × excess.
//!
//! The per-record parse path is allocation-free: records are `Copy`, field
//! parsing is a manual checked decimal scan, and each reader reserves its
//! output vector once from a line-count bound before parsing.

use glimmer_crypto::drbg::Drbg;
use std::fmt;
use std::io::{self, Write};

/// Top bit of [`ReplayRecord::seed`]: set for records whose payload expands
/// to out-of-range (abusive) samples.
pub const ABUSE_FLAG: u64 = 1 << 63;

/// Upper bound on an encoded record line, terminator included (10 digits of
/// tenant + 3 × 20 digits + 3 separators + `\n`). Capacity hint only —
/// correctness never depends on it.
pub const MAX_LINE_BYTES: usize = 80;

/// Smallest possible encoded record line (`0;0;0;0\n`). Used to bound the
/// per-chunk record count so output vectors are reserved exactly once.
pub const MIN_LINE_BYTES: usize = 8;

/// Default read-ahead past a chunk's span end. A window this far past the
/// span almost always already contains the final owned record's terminator;
/// when it does not (pathological line lengths, tiny excess in tests), the
/// loader grows the window until it does, so any value — including `0` — is
/// correct.
pub const CHUNK_EXCESS: usize = 128;

/// One replayed arrival: which device of which tenant sends at which tick,
/// and the seed its payload expands from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplayRecord {
    /// Tenant index (maps to a tenant name via [`replay_tenant_name`]).
    pub tenant: u32,
    /// Device identifier within the tenant (the session's `client_id`).
    pub device: u64,
    /// Arrival tick; non-decreasing across a generated scenario.
    pub tick: u64,
    /// Payload seed; top bit ([`ABUSE_FLAG`]) marks an abusive payload.
    pub seed: u64,
}

impl ReplayRecord {
    /// True when the record's payload expands to out-of-range samples.
    #[must_use]
    pub fn is_abusive(&self) -> bool {
        self.seed & ABUSE_FLAG != 0
    }

    /// Appends the record's encoded line (terminator included) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        // `writeln!` into a Vec cannot fail.
        let _ = writeln!(
            out,
            "{};{};{};{}",
            self.tenant, self.device, self.tick, self.seed
        );
    }

    /// The record's encoded line as a `String` (terminator included).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = Vec::with_capacity(MAX_LINE_BYTES);
        self.encode_into(&mut out);
        String::from_utf8(out).expect("record encoding is ASCII")
    }
}

/// Why a line failed to parse as a [`ReplayRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The line does not have exactly four `;`-separated fields.
    FieldCount,
    /// A field is empty.
    EmptyField,
    /// A field contains a non-digit byte.
    NonDigit,
    /// A field overflows `u64`.
    Overflow,
    /// The tenant field does not fit `u32`.
    TenantRange,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::FieldCount => write!(f, "expected four ';'-separated fields"),
            RecordError::EmptyField => write!(f, "empty field"),
            RecordError::NonDigit => write!(f, "non-digit byte in field"),
            RecordError::Overflow => write!(f, "field overflows u64"),
            RecordError::TenantRange => write!(f, "tenant does not fit u32"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Parses one line (terminator already stripped) into a record.
///
/// Never panics: truncated, empty-field, non-numeric, or overflowing lines
/// come back as a [`RecordError`]. The parse is allocation-free — a single
/// pass of checked decimal accumulation.
pub fn parse_line(line: &[u8]) -> Result<ReplayRecord, RecordError> {
    let mut fields = [0u64; 4];
    let mut idx = 0usize;
    let mut val = 0u64;
    let mut digits = 0usize;
    for &b in line {
        if b == b';' {
            if digits == 0 {
                return Err(RecordError::EmptyField);
            }
            if idx >= 3 {
                return Err(RecordError::FieldCount);
            }
            fields[idx] = val;
            idx += 1;
            val = 0;
            digits = 0;
        } else if b.is_ascii_digit() {
            val = val
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(b - b'0')))
                .ok_or(RecordError::Overflow)?;
            digits += 1;
        } else {
            return Err(RecordError::NonDigit);
        }
    }
    if idx != 3 {
        return Err(RecordError::FieldCount);
    }
    if digits == 0 {
        return Err(RecordError::EmptyField);
    }
    fields[3] = val;
    let tenant = u32::try_from(fields[0]).map_err(|_| RecordError::TenantRange)?;
    Ok(ReplayRecord {
        tenant,
        device: fields[1],
        tick: fields[2],
        seed: fields[3],
    })
}

/// Expands a record seed into its payload samples, reusing `out` (cleared,
/// then filled to `dimension`) so steady-state expansion allocates nothing.
///
/// Honest seeds produce samples in `[0.2, 0.8]` — inside the `[0, 1]` range
/// the IoT glimmer endorses. Seeds carrying [`ABUSE_FLAG`] inject
/// out-of-range samples (the first, then every third position) so the
/// enclave policy rejects the contribution.
pub fn payload_samples(seed: u64, dimension: usize, out: &mut Vec<f64>) {
    out.clear();
    out.reserve(dimension);
    let abusive = seed & ABUSE_FLAG != 0;
    let mut state = seed;
    for i in 0..dimension {
        let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let v = if abusive && (i == 0 || i % 3 == 2) {
            5.0 + 40.0 * u
        } else {
            0.2 + 0.6 * u
        };
        out.push(v);
    }
}

/// The tenant name a replay tenant index maps to. Zero-padded to two digits
/// so lexicographic tenant order (how the gateway lists tenants) matches
/// index order for up to 100 tenants.
#[must_use]
pub fn replay_tenant_name(tenant: u32) -> String {
    format!("replay-{tenant:02}.example")
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which statistical structure a generated scenario has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioMix {
    /// Uniform tenants and devices, one arrival per tick, all honest.
    Steady,
    /// Arrival density follows a cosine day curve of `period` records:
    /// ticks advance slowly at the peak (dense arrivals) and fast in the
    /// trough (sparse arrivals).
    Diurnal {
        /// Records per simulated day.
        period: u64,
    },
    /// Tenant 0 receives `hot_share` of the traffic; the rest is uniform
    /// over all tenants.
    TenantSkew {
        /// Fraction of records routed to the hot tenant.
        hot_share: f64,
    },
    /// Periodic abuse: within each `period`-record window the first
    /// `burst_len` records are abusive with probability `abusive_fraction`.
    AbuseBurst {
        /// Probability a burst record carries [`ABUSE_FLAG`].
        abusive_fraction: f64,
        /// Records per burst cycle.
        period: u64,
        /// Burst length in records at the start of each cycle.
        burst_len: u64,
    },
    /// Reconnect storms: every `4 * burst_len` records, `burst_len`
    /// *distinct consecutive* devices all arrive at the same tick.
    ReconnectStorm {
        /// Devices reconnecting per storm.
        burst_len: u64,
    },
}

/// Deterministic description of a scenario file: expand it with
/// [`ScenarioSpec::for_each_record`] or write it with
/// [`generate_scenario_file`]. The same spec always produces the same
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Tenant count (tenant indices `0..tenants`).
    pub tenants: u32,
    /// Devices per tenant (device ids `0..devices_per_tenant`).
    pub devices_per_tenant: u64,
    /// Total records to generate.
    pub records: u64,
    /// Statistical structure of the traffic.
    pub mix: ScenarioMix,
    /// Generator seed.
    pub seed: u64,
}

/// Size summary of a written scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioFileInfo {
    /// Records written.
    pub records: u64,
    /// Bytes written.
    pub bytes: u64,
}

impl ScenarioSpec {
    /// Streams the scenario's records through `f` in file order without
    /// materialising them, stopping at the first error `f` returns.
    pub fn try_for_each_record<E>(
        &self,
        mut f: impl FnMut(ReplayRecord) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut rng =
            Drbg::from_material(&[&self.seed.to_le_bytes()[..], b"replay-scenario"].concat());
        let tenants = u64::from(self.tenants.max(1));
        let devices = self.devices_per_tenant.max(1);
        let mut tick = 0u64;
        for i in 0..self.records {
            let mut abusive = false;
            let (tenant, device) = match self.mix {
                ScenarioMix::Steady => {
                    tick += 1;
                    (rng.gen_range(tenants), rng.gen_range(devices))
                }
                ScenarioMix::Diurnal { period } => {
                    let p = period.max(2);
                    let phase = (i % p) as f64 / p as f64;
                    let intensity = 0.5 - 0.5 * (phase * std::f64::consts::TAU).cos();
                    tick += if rng.next_bool(intensity) { 1 } else { 3 };
                    (rng.gen_range(tenants), rng.gen_range(devices))
                }
                ScenarioMix::TenantSkew { hot_share } => {
                    tick += 1;
                    let tenant = if rng.next_bool(hot_share) {
                        0
                    } else {
                        rng.gen_range(tenants)
                    };
                    (tenant, rng.gen_range(devices))
                }
                ScenarioMix::AbuseBurst {
                    abusive_fraction,
                    period,
                    burst_len,
                } => {
                    tick += 1;
                    if i % period.max(1) < burst_len {
                        abusive = rng.next_bool(abusive_fraction);
                    }
                    (rng.gen_range(tenants), rng.gen_range(devices))
                }
                ScenarioMix::ReconnectStorm { burst_len } => {
                    let bl = burst_len.max(1);
                    let pos = i % (bl * 4);
                    if pos < bl {
                        // Storm: distinct consecutive devices, same tick.
                        let _ = rng.next_u64();
                        (rng.gen_range(tenants), pos % devices)
                    } else {
                        tick += 1;
                        (rng.gen_range(tenants), rng.gen_range(devices))
                    }
                }
            };
            let mut seed = rng.next_u64() & !ABUSE_FLAG;
            if abusive {
                seed |= ABUSE_FLAG;
            }
            f(ReplayRecord {
                tenant: tenant as u32,
                device,
                tick,
                seed,
            })?;
        }
        Ok(())
    }

    /// Streams the scenario's records through `f` in file order.
    pub fn for_each_record(&self, mut f: impl FnMut(ReplayRecord)) {
        let _ = self.try_for_each_record::<()>(|r| {
            f(r);
            Ok(())
        });
    }

    /// The scenario's records, materialised in file order. Ground truth for
    /// exactly-once loader tests; prefer [`ScenarioSpec::for_each_record`]
    /// for large scenarios.
    #[must_use]
    pub fn records_vec(&self) -> Vec<ReplayRecord> {
        let mut out = Vec::with_capacity(usize::try_from(self.records).unwrap_or(0));
        self.for_each_record(|r| out.push(r));
        out
    }

    /// Writes the scenario's encoded lines to `w`, returning the size
    /// summary. One reused line buffer — no per-record allocation.
    pub fn write_scenario<W: Write>(&self, w: &mut W) -> io::Result<ScenarioFileInfo> {
        let mut line = Vec::with_capacity(MAX_LINE_BYTES);
        let mut info = ScenarioFileInfo {
            records: 0,
            bytes: 0,
        };
        self.try_for_each_record::<io::Error>(|r| {
            line.clear();
            r.encode_into(&mut line);
            w.write_all(&line)?;
            info.records += 1;
            info.bytes += line.len() as u64;
            Ok(())
        })?;
        Ok(info)
    }
}

/// Generates the scenario file at `path` (truncating any existing file),
/// buffered in 1 MiB writes.
pub fn generate_scenario_file(
    path: &std::path::Path,
    spec: &ScenarioSpec,
) -> io::Result<ScenarioFileInfo> {
    let file = std::fs::File::create(path)?;
    let mut w = io::BufWriter::with_capacity(1 << 20, file);
    let info = spec.write_scenario(&mut w)?;
    w.flush()?;
    Ok(info)
}

/// One reader's byte range: `[start, end)` over the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpan {
    /// First byte of the span (inclusive).
    pub start: u64,
    /// One past the last byte of the span (exclusive).
    pub end: u64,
}

impl ChunkSpan {
    /// Bytes covered by the span.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the span covers no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Splits `len` bytes into `chunks` contiguous, non-empty, near-equal
/// spans covering `[0, len)` exactly. The chunk count is clamped to
/// `[1, len]` so no span is ever empty; a zero-length file yields no
/// spans.
#[must_use]
pub fn chunk_spans(len: u64, chunks: usize) -> Vec<ChunkSpan> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = (chunks.max(1) as u64).min(len);
    let mut spans = Vec::with_capacity(usize::try_from(chunks).unwrap_or(1));
    for i in 0..chunks {
        let start = (u128::from(len) * u128::from(i) / u128::from(chunks)) as u64;
        let end = (u128::from(len) * u128::from(i + 1) / u128::from(chunks)) as u64;
        spans.push(ChunkSpan { start, end });
    }
    spans
}

/// Per-chunk parse accounting, mirrored into the gateway telemetry's
/// ingest counters by the replay driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseSummary {
    /// Records parsed successfully.
    pub records: u64,
    /// Malformed lines rejected (counted, never panicked on).
    pub parse_errors: u64,
}

impl ParseSummary {
    /// Accumulates another summary into this one.
    pub fn merge(&mut self, other: &ParseSummary) {
        self.records += other.records;
        self.parse_errors += other.parse_errors;
    }
}

/// Parses every record **owned** by `span` out of `window`, appending to
/// `out`.
///
/// `window` holds the file bytes `[base, base + window.len())`. The caller
/// must supply `base <= span.start.saturating_sub(1)` (so the boundary
/// byte before the span is visible) and a window reaching at least the
/// terminator of the last owned record — [`load_chunks`] grows windows
/// until that holds. Ownership rule: a record is owned iff its first byte
/// lies in `[span.start, span.end)`. Empty lines are skipped silently;
/// malformed lines are counted in [`ParseSummary::parse_errors`].
pub fn parse_window(
    window: &[u8],
    base: u64,
    span: ChunkSpan,
    out: &mut Vec<ReplayRecord>,
) -> ParseSummary {
    let mut summary = ParseSummary::default();
    if span.is_empty() {
        return summary;
    }
    debug_assert!(base <= span.start.saturating_sub(1) || span.start == 0);
    let mut pos = if span.start == 0 {
        0usize
    } else {
        // Skip the record the previous span owns: the first owned line
        // starts right after the first terminator at or past start - 1.
        let from = usize::try_from(span.start - 1 - base).expect("window offset fits usize");
        match window[from.min(window.len())..]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(nl) => from + nl + 1,
            None => return summary, // span starts inside the file's last record
        }
    };
    // Reserve once from the tightest line-count bound so pushes never
    // reallocate: every record line is at least MIN_LINE_BYTES long.
    let owned_bytes = usize::try_from(span.end.saturating_sub(base + pos as u64)).unwrap_or(0);
    out.reserve(owned_bytes / MIN_LINE_BYTES + 1);
    while pos < window.len() && base + (pos as u64) < span.end {
        let line_end = window[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(window.len(), |nl| pos + nl);
        let line = &window[pos..line_end];
        if !line.is_empty() {
            match parse_line(line) {
                Ok(record) => {
                    out.push(record);
                    summary.records += 1;
                }
                Err(_) => summary.parse_errors += 1,
            }
        }
        pos = line_end + 1;
    }
    summary
}

/// A byte source the chunked loader can read at arbitrary offsets from
/// multiple reader threads at once.
pub trait ChunkSource: Sync {
    /// Total length in bytes.
    fn len(&self) -> u64;

    /// True when the source holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads at `offset`, filling as much of `buf` as the source can
    /// provide (short only at end-of-source).
    fn read_full_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;
}

impl ChunkSource for [u8] {
    fn len(&self) -> u64 {
        <[u8]>::len(self) as u64
    }

    fn read_full_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let start = usize::try_from(offset).unwrap_or(<[u8]>::len(self));
        let end = (start + buf.len()).min(<[u8]>::len(self));
        let n = end.saturating_sub(start);
        buf[..n].copy_from_slice(&self[start..end]);
        Ok(n)
    }
}

/// A scenario file opened for positional multi-reader access.
///
/// On Unix, readers use `pread` (no shared cursor, no locking). Elsewhere
/// a mutex-guarded seek+read keeps the same interface, trading the
/// parallel win for portability.
#[derive(Debug)]
pub struct FileSource {
    len: u64,
    #[cfg(unix)]
    file: std::fs::File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<std::fs::File>,
}

impl FileSource {
    /// Opens `path` read-only.
    pub fn open(path: &std::path::Path) -> io::Result<FileSource> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        Ok(FileSource {
            len,
            #[cfg(unix)]
            file,
            #[cfg(not(unix))]
            file: std::sync::Mutex::new(file),
        })
    }
}

impl ChunkSource for FileSource {
    fn len(&self) -> u64 {
        self.len
    }

    #[cfg(unix)]
    fn read_full_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        use std::os::unix::fs::FileExt;
        let mut read = 0usize;
        while read < buf.len() {
            match self.file.read_at(&mut buf[read..], offset + read as u64) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(read)
    }

    #[cfg(not(unix))]
    fn read_full_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        use std::io::{Read, Seek};
        // Recover from poisoning rather than cascading a reader thread's
        // panic into every other reader: the guarded state is a bare file
        // handle whose seek position is re-set before every read anyway.
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        file.seek(io::SeekFrom::Start(offset))?;
        let mut read = 0usize;
        while read < buf.len() {
            match file.read(&mut buf[read..]) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(read)
    }
}

/// One loaded chunk: its span, its owned records in file order, and the
/// parse accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkLoad {
    /// The byte range this reader owned.
    pub span: ChunkSpan,
    /// Records owned by the span, in file order.
    pub records: Vec<ReplayRecord>,
    /// Parse accounting for the span.
    pub summary: ParseSummary,
}

fn load_one_chunk<S: ChunkSource + ?Sized>(
    source: &S,
    span: ChunkSpan,
    excess: usize,
) -> io::Result<ChunkLoad> {
    let len = source.len();
    let window_start = span.start.saturating_sub(1);
    let mut window_end = (span.end + excess as u64).min(len);
    let mut window = vec![0u8; usize::try_from(window_end - window_start).expect("window fits")];
    let mut filled = source.read_full_at(window_start, &mut window)?;
    loop {
        window.truncate(filled);
        let actual_end = window_start + filled as u64;
        if actual_end >= len {
            break; // window reaches end-of-file: every owned line is present
        }
        // Sufficient iff the window holds a terminator at or past
        // span.end - 1: the first such terminator ends the span's last
        // owned record (the line after it starts at or past span.end).
        let from = usize::try_from(span.end - 1 - window_start).expect("window offset fits");
        if window[from.min(window.len())..].contains(&b'\n') {
            break;
        }
        // Grow the window (doubling) until the last owned record closes.
        let grow = (window_end - window_start).max(MAX_LINE_BYTES as u64);
        window_end = (window_end + grow).min(len);
        let old = window.len();
        window.resize(
            usize::try_from(window_end - window_start).expect("window fits"),
            0,
        );
        filled = old + source.read_full_at(window_start + old as u64, &mut window[old..])?;
    }
    let mut records = Vec::new();
    let summary = parse_window(&window, window_start, span, &mut records);
    Ok(ChunkLoad {
        span,
        records,
        summary,
    })
}

/// Loads every record of `source` with `readers` parallel chunk readers,
/// each owning one [`chunk_spans`] byte range with `excess` bytes of
/// read-ahead. Returns one [`ChunkLoad`] per span, in file order —
/// concatenating their records reproduces the file's records exactly
/// once, for any reader count and any excess.
pub fn load_chunks<S: ChunkSource + ?Sized>(
    source: &S,
    readers: usize,
    excess: usize,
) -> io::Result<Vec<ChunkLoad>> {
    let spans = chunk_spans(source.len(), readers);
    if spans.len() <= 1 {
        return spans
            .into_iter()
            .map(|span| load_one_chunk(source, span, excess))
            .collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = spans
            .into_iter()
            .map(|span| scope.spawn(move || load_one_chunk(source, span, excess)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chunk reader panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(records: u64, mix: ScenarioMix) -> ScenarioSpec {
        ScenarioSpec {
            tenants: 3,
            devices_per_tenant: 16,
            records,
            mix,
            seed: 7,
        }
    }

    fn scenario_bytes(spec: &ScenarioSpec) -> Vec<u8> {
        let mut out = Vec::new();
        spec.write_scenario(&mut out).expect("in-memory write");
        out
    }

    #[test]
    fn encode_parse_round_trip() {
        let record = ReplayRecord {
            tenant: u32::MAX,
            device: u64::MAX,
            tick: 0,
            seed: ABUSE_FLAG | 12345,
        };
        let line = record.encode();
        let parsed = parse_line(line.trim_end().as_bytes()).expect("round trip");
        assert_eq!(parsed, record);
        assert!(parsed.is_abusive());
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicked_on() {
        for bad in [
            &b""[..],
            b"1;2;3",
            b"1;2;3;4;5",
            b"1;;3;4",
            b"1;2;x;4",
            b"99999999999999999999999;2;3;4",
            b"4294967296;2;3;4", // tenant > u32::MAX
            b"-1;2;3;4",
            b"1;2;3;4 ",
        ] {
            assert!(parse_line(bad).is_err(), "{:?} should fail", bad);
        }
    }

    #[test]
    fn generator_is_deterministic_and_ticks_are_monotonic() {
        for mix in [
            ScenarioMix::Steady,
            ScenarioMix::Diurnal { period: 64 },
            ScenarioMix::TenantSkew { hot_share: 0.8 },
            ScenarioMix::AbuseBurst {
                abusive_fraction: 0.5,
                period: 32,
                burst_len: 8,
            },
            ScenarioMix::ReconnectStorm { burst_len: 8 },
        ] {
            let s = spec(300, mix);
            let a = s.records_vec();
            let b = s.records_vec();
            assert_eq!(a, b);
            assert_eq!(a.len(), 300);
            assert!(a.windows(2).all(|w| w[0].tick <= w[1].tick), "{mix:?}");
            assert!(a.iter().all(|r| r.tenant < 3 && r.device < 16), "{mix:?}");
        }
    }

    #[test]
    fn abuse_burst_marks_records_and_storms_repeat_devices() {
        let s = spec(
            512,
            ScenarioMix::AbuseBurst {
                abusive_fraction: 1.0,
                period: 16,
                burst_len: 4,
            },
        );
        let records = s.records_vec();
        let abusive = records.iter().filter(|r| r.is_abusive()).count();
        assert_eq!(abusive, 512 / 16 * 4);

        let storm = spec(256, ScenarioMix::ReconnectStorm { burst_len: 8 });
        let records = storm.records_vec();
        // Each storm's 8 records share one tick and hit distinct devices.
        let first_storm = &records[0..8];
        assert!(first_storm.iter().all(|r| r.tick == first_storm[0].tick));
        let mut devices: Vec<u64> = first_storm.iter().map(|r| r.device).collect();
        devices.sort_unstable();
        devices.dedup();
        assert_eq!(devices.len(), 8);
    }

    #[test]
    fn skew_routes_most_traffic_to_hot_tenant() {
        let s = spec(2000, ScenarioMix::TenantSkew { hot_share: 0.9 });
        let records = s.records_vec();
        let hot = records.iter().filter(|r| r.tenant == 0).count();
        assert!(hot as f64 > 0.85 * records.len() as f64);
    }

    #[test]
    fn chunk_spans_cover_exactly() {
        for len in [0u64, 1, 7, 100, 1_000_003] {
            for chunks in [1usize, 2, 3, 4, 17, 2000] {
                let spans = chunk_spans(len, chunks);
                if len == 0 {
                    assert!(spans.is_empty());
                    continue;
                }
                assert_eq!(spans.len(), chunks.min(len as usize).max(1));
                assert_eq!(spans[0].start, 0);
                assert_eq!(spans.last().unwrap().end, len);
                assert!(spans.windows(2).all(|w| w[0].end == w[1].start));
                assert!(spans.iter().all(|s| !s.is_empty()));
            }
        }
    }

    #[test]
    fn chunked_parse_is_exactly_once_for_any_split() {
        let s = spec(200, ScenarioMix::Steady);
        let truth = s.records_vec();
        let data = scenario_bytes(&s);
        for chunks in [1usize, 2, 3, 4, 7, 13, 64] {
            for excess in [0usize, 1, 8, CHUNK_EXCESS, 1 << 16] {
                let loads = load_chunks(&data[..], chunks, excess).expect("in-memory load");
                let flat: Vec<ReplayRecord> = loads
                    .iter()
                    .flat_map(|l| l.records.iter().copied())
                    .collect();
                assert_eq!(flat, truth, "chunks={chunks} excess={excess}");
                assert!(loads.iter().all(|l| l.summary.parse_errors == 0));
            }
        }
    }

    #[test]
    fn garbage_lines_are_counted_per_chunk_not_fatal() {
        let s = spec(50, ScenarioMix::Steady);
        let mut data = scenario_bytes(&s);
        data.extend_from_slice(b"garbage line\n");
        data.extend_from_slice(b"1;2;3;4\n");
        data.extend_from_slice(b"\n"); // empty line: skipped silently
        let loads = load_chunks(&data[..], 4, CHUNK_EXCESS).expect("load");
        let total: ParseSummary = loads.iter().fold(ParseSummary::default(), |mut a, l| {
            a.merge(&l.summary);
            a
        });
        assert_eq!(total.records, 51);
        assert_eq!(total.parse_errors, 1);
    }

    #[test]
    fn file_source_matches_in_memory_loads() {
        let s = spec(400, ScenarioMix::Diurnal { period: 50 });
        let path = std::env::temp_dir().join(format!(
            "glimmer-replay-test-{}.scenario",
            std::process::id()
        ));
        let info = generate_scenario_file(&path, &s).expect("generate");
        assert_eq!(info.records, 400);
        let source = FileSource::open(&path).expect("open");
        assert_eq!(source.len(), info.bytes);
        let from_file = load_chunks(&source, 4, CHUNK_EXCESS).expect("file load");
        let data = std::fs::read(&path).expect("read back");
        let in_memory = load_chunks(&data[..], 4, CHUNK_EXCESS).expect("memory load");
        assert_eq!(from_file, in_memory);
        assert_eq!(
            from_file
                .iter()
                .map(|l| l.records.len() as u64)
                .sum::<u64>(),
            400
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn payload_samples_distinguish_honest_from_abusive() {
        let mut buf = Vec::new();
        payload_samples(42, 8, &mut buf);
        assert_eq!(buf.len(), 8);
        assert!(buf.iter().all(|s| (0.0..=1.0).contains(s)));
        let honest = buf.clone();
        payload_samples(42, 8, &mut buf);
        assert_eq!(buf, honest, "expansion is deterministic");
        payload_samples(42 | ABUSE_FLAG, 8, &mut buf);
        assert!(buf.iter().any(|s| *s > 1.0));
        payload_samples(7 | ABUSE_FLAG, 1, &mut buf);
        assert!(
            buf[0] > 1.0,
            "abusive payloads are abusive at any dimension"
        );
    }
}

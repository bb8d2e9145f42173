//! Deterministic fault injection for the disk manager.
//!
//! TIMBER ran on Shore, which assumed a disk that mostly works; this
//! reproduction wants the opposite guarantee — that a query over rotting
//! pages finishes with either a correct answer or a *typed* error, never
//! a panic and never silently wrong output. The [`FaultInjector`] wraps
//! the physical backend of a [`DiskManager`](crate::storage::DiskManager)
//! and injects, per I/O operation:
//!
//! * **transient read/write errors** — `ErrorKind::Interrupted` I/O
//!   failures that a bounded retry can absorb;
//! * **read-path bit flips** — the returned page image is corrupted but
//!   the persisted page is fine, so a re-read recovers;
//! * **write-path bit flips** — the persisted image is corrupted:
//!   permanent damage a later read must *detect* via checksum;
//! * **torn writes** — only a prefix of the sealed page is persisted,
//!   modelling a crash mid-write;
//! * **crash points** (`crash=N`) — a hard stop after N write-class
//!   operations (page writes *and* write-ahead-log flushes): the Nth
//!   write persists only a prefix, and every operation after it fails
//!   with [`StoreError::SimulatedCrash`](crate::StoreError::SimulatedCrash)
//!   until the store is reopened. This is the kill switch the
//!   crash-recovery harness drives.
//!
//! Every decision comes from a seeded in-tree
//! [`smallrand::StdRng`], so a fault schedule is identified completely by
//! its [`FaultConfig`] (printable/parsable as a `key=value,…` spec) and
//! replays identically on every platform.

use crate::page::{PageId, PAGE_SIZE};
use smallrand::{RngExt, SeedableRng, StdRng};
use std::fmt;

/// What a read operation should suffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// No fault: the read proceeds untouched.
    None,
    /// The read fails with a transient I/O error.
    Error,
    /// The read succeeds but bit `bit` of the returned image is flipped.
    FlipBit {
        /// Bit index within the page (`0..PAGE_SIZE * 8`).
        bit: usize,
    },
    /// The machine already crashed (`crash=N` fired earlier): the read
    /// fails with `StoreError::SimulatedCrash` and touches nothing.
    Crash,
}

/// What a write operation should suffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// No fault: the write proceeds untouched.
    None,
    /// The write fails with a transient I/O error (nothing persisted).
    Error,
    /// The persisted image has bit `bit` flipped — permanent corruption.
    FlipBit {
        /// Bit index within the page (`0..PAGE_SIZE * 8`).
        bit: usize,
    },
    /// Only the first `len` bytes of the sealed image are persisted; the
    /// tail keeps its previous contents (a torn write).
    Torn {
        /// Persisted prefix length (`1..PAGE_SIZE`).
        len: usize,
    },
    /// The `crash=N` kill point fired on (or before) this write: the
    /// first `len` bytes are persisted (0 for writes after the crash),
    /// and the operation fails with `StoreError::SimulatedCrash`.
    Crash {
        /// Persisted prefix length (`0..PAGE_SIZE`).
        len: usize,
    },
}

/// What a write-ahead-log flush should suffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFault {
    /// No fault: the whole pending buffer is persisted and synced.
    None,
    /// The flush fails with a transient I/O error after a short write:
    /// the first `persist` bytes of the pending buffer reach the log (a
    /// strict prefix, half of it).
    Error {
        /// Persisted prefix length (`0..pending`).
        persist: usize,
    },
    /// The `crash=N` kill point fired: only the first `persist` bytes of
    /// the pending buffer reach the log (a *strict* prefix, so a commit
    /// record pending in this flush can never become durable), and the
    /// flush fails with `StoreError::SimulatedCrash`.
    Crash {
        /// Persisted prefix length (`0..pending`).
        persist: usize,
    },
}

/// A reproducible fault schedule: probabilities per operation class plus
/// predicates restricting *which* operations are eligible.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// RNG seed; the whole schedule derives from it.
    pub seed: u64,
    /// Probability a read fails with a transient I/O error.
    pub read_error: f64,
    /// Probability a write fails with a transient I/O error.
    pub write_error: f64,
    /// Probability a read returns a bit-flipped image (transient).
    pub read_flip: f64,
    /// Probability a write persists a bit-flipped image (permanent).
    pub write_flip: f64,
    /// Probability a write is torn (prefix-only persisted; permanent).
    pub torn_write: f64,
    /// Injection starts only after this many eligible operations.
    pub after_ops: u64,
    /// Restrict injection to page ids in `lo..=hi` when set.
    pub pages: Option<(u32, u32)>,
    /// Hard-stop after this many write-class operations (page writes and
    /// log flushes): the Nth write is torn and everything after it fails
    /// with `SimulatedCrash`. The op-count and page predicates do not
    /// apply — a crash point is absolute.
    pub crash: Option<u64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            read_error: 0.0,
            write_error: 0.0,
            read_flip: 0.0,
            write_flip: 0.0,
            torn_write: 0.0,
            after_ops: 0,
            pages: None,
            crash: None,
        }
    }
}

impl FaultConfig {
    /// A schedule with the given seed and no faults enabled.
    pub fn seeded(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    }

    /// Set the transient read-error probability.
    pub fn with_read_error(mut self, p: f64) -> Self {
        self.read_error = p;
        self
    }

    /// Set the transient write-error probability.
    pub fn with_write_error(mut self, p: f64) -> Self {
        self.write_error = p;
        self
    }

    /// Set the read-path bit-flip probability.
    pub fn with_read_flip(mut self, p: f64) -> Self {
        self.read_flip = p;
        self
    }

    /// Set the write-path (persisted) bit-flip probability.
    pub fn with_write_flip(mut self, p: f64) -> Self {
        self.write_flip = p;
        self
    }

    /// Set the torn-write probability.
    pub fn with_torn_write(mut self, p: f64) -> Self {
        self.torn_write = p;
        self
    }

    /// Start injecting only after `n` eligible operations.
    pub fn with_after_ops(mut self, n: u64) -> Self {
        self.after_ops = n;
        self
    }

    /// Restrict injection to pages `lo..=hi`.
    pub fn with_pages(mut self, lo: u32, hi: u32) -> Self {
        self.pages = Some((lo, hi));
        self
    }

    /// Hard-stop (simulated crash) after `n` write-class operations.
    pub fn with_crash_after(mut self, n: u64) -> Self {
        self.crash = Some(n);
        self
    }
}

/// Error parsing a fault-schedule spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

/// Parse a `key=value,…` schedule spec, e.g.
/// `seed=3,read_err=0.01,flip=0.005,torn=0.02,after=100,pages=0-499`
/// or `seed=7,crash=25`.
///
/// Keys: `seed`, `read_err`, `write_err`, `flip` (read-path bit flips),
/// `write_flip`, `torn`, `after`, `pages=LO-HI`, `crash` (kill after N
/// write-class operations).
impl std::str::FromStr for FaultConfig {
    type Err = FaultSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut cfg = FaultConfig::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| FaultSpecError(format!("'{part}' is not key=value")))?;
            let bad = |what: &str| FaultSpecError(format!("'{value}' is not a valid {what}"));
            match key.trim() {
                "seed" => cfg.seed = value.parse().map_err(|_| bad("seed"))?,
                "read_err" => cfg.read_error = parse_prob(value)?,
                "write_err" => cfg.write_error = parse_prob(value)?,
                "flip" | "read_flip" => cfg.read_flip = parse_prob(value)?,
                "write_flip" => cfg.write_flip = parse_prob(value)?,
                "torn" => cfg.torn_write = parse_prob(value)?,
                "after" => cfg.after_ops = value.parse().map_err(|_| bad("op count"))?,
                "crash" => {
                    let n: u64 = value.parse().map_err(|_| bad("crash point"))?;
                    if n == 0 {
                        return Err(FaultSpecError(
                            "crash point must be at least 1 (crash=0 would forbid all writes)"
                                .to_owned(),
                        ));
                    }
                    cfg.crash = Some(n);
                }
                "pages" => {
                    let (lo, hi) = value
                        .split_once('-')
                        .ok_or_else(|| bad("page range (LO-HI)"))?;
                    let lo: u32 = lo.trim().parse().map_err(|_| bad("page range"))?;
                    let hi: u32 = hi.trim().parse().map_err(|_| bad("page range"))?;
                    if lo > hi {
                        return Err(FaultSpecError(format!("empty page range {lo}-{hi}")));
                    }
                    cfg.pages = Some((lo, hi));
                }
                other => return Err(FaultSpecError(format!("unknown key '{other}'"))),
            }
        }
        Ok(cfg)
    }
}

fn parse_prob(value: &str) -> Result<f64, FaultSpecError> {
    let p: f64 = value
        .parse()
        .map_err(|_| FaultSpecError(format!("'{value}' is not a probability")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(FaultSpecError(format!("probability {p} outside [0, 1]")));
    }
    Ok(p)
}

/// Canonical spec rendering; `cfg.to_string().parse()` round-trips.
impl fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for (key, p) in [
            ("read_err", self.read_error),
            ("write_err", self.write_error),
            ("flip", self.read_flip),
            ("write_flip", self.write_flip),
            ("torn", self.torn_write),
        ] {
            if p > 0.0 {
                write!(f, ",{key}={p}")?;
            }
        }
        if self.after_ops > 0 {
            write!(f, ",after={}", self.after_ops)?;
        }
        if let Some((lo, hi)) = self.pages {
            write!(f, ",pages={lo}-{hi}")?;
        }
        if let Some(n) = self.crash {
            write!(f, ",crash={n}")?;
        }
        Ok(())
    }
}

/// Counters of what the injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Eligible operations seen (reads + writes past the predicates).
    pub ops: u64,
    /// Injected transient read errors.
    pub read_errors: u64,
    /// Injected transient write errors.
    pub write_errors: u64,
    /// Injected read-path bit flips.
    pub read_flips: u64,
    /// Injected persisted bit flips.
    pub write_flips: u64,
    /// Injected torn writes.
    pub torn_writes: u64,
    /// Write-class operations seen (page writes + log flushes), counted
    /// regardless of predicates. The crash harness sizes `crash=N`
    /// schedules from this.
    pub write_ops: u64,
    /// Simulated crashes fired (0 or 1 per injector).
    pub crashes: u64,
}

impl FaultStats {
    /// Total injected faults of any kind.
    pub fn total(&self) -> u64 {
        self.read_errors
            + self.write_errors
            + self.read_flips
            + self.write_flips
            + self.torn_writes
            + self.crashes
    }
}

/// The seeded fault source a [`DiskManager`](crate::storage::DiskManager)
/// consults on every page transfer.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: StdRng,
    stats: FaultStats,
    crashed: bool,
}

impl FaultInjector {
    /// Build an injector for `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            stats: FaultStats::default(),
            crashed: false,
        }
    }

    /// The schedule this injector replays.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Has the `crash=N` kill point fired?
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Count a write-class operation against the crash schedule.
    /// Returns `true` when this very operation is the kill point.
    fn crash_due(&mut self) -> bool {
        self.stats.write_ops += 1;
        match self.cfg.crash {
            Some(n) if !self.crashed && self.stats.write_ops >= n => {
                self.crashed = true;
                self.stats.crashes += 1;
                true
            }
            _ => false,
        }
    }

    /// Is this operation past the op-count and page predicates?
    fn eligible(&mut self, pid: PageId) -> bool {
        if let Some((lo, hi)) = self.cfg.pages {
            if pid.0 < lo || pid.0 > hi {
                return false;
            }
        }
        self.stats.ops += 1;
        self.stats.ops > self.cfg.after_ops
    }

    fn hit(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.random_bool(p)
    }

    fn bit(&mut self) -> usize {
        self.rng.random_range(0..PAGE_SIZE * 8)
    }

    /// Decide the fate of a read of `pid`.
    pub fn on_read(&mut self, pid: PageId) -> ReadFault {
        if self.crashed {
            return ReadFault::Crash;
        }
        if !self.eligible(pid) {
            return ReadFault::None;
        }
        if self.hit(self.cfg.read_error) {
            self.stats.read_errors += 1;
            return ReadFault::Error;
        }
        if self.hit(self.cfg.read_flip) {
            self.stats.read_flips += 1;
            return ReadFault::FlipBit { bit: self.bit() };
        }
        ReadFault::None
    }

    /// Decide the fate of a write of `pid`.
    pub fn on_write(&mut self, pid: PageId) -> WriteFault {
        if self.crashed {
            return WriteFault::Crash { len: 0 };
        }
        if self.crash_due() {
            // The kill point itself: persist a (possibly empty) strict
            // prefix of the page, like a power cut mid-write.
            return WriteFault::Crash {
                len: self.rng.random_range(0..PAGE_SIZE),
            };
        }
        if !self.eligible(pid) {
            return WriteFault::None;
        }
        if self.hit(self.cfg.write_error) {
            self.stats.write_errors += 1;
            return WriteFault::Error;
        }
        if self.hit(self.cfg.write_flip) {
            self.stats.write_flips += 1;
            return WriteFault::FlipBit { bit: self.bit() };
        }
        if self.hit(self.cfg.torn_write) {
            self.stats.torn_writes += 1;
            // Never a zero-length tear (that is a lost write, invisible to
            // a checksum) and never the full page (not torn at all).
            return WriteFault::Torn {
                len: self.rng.random_range(1..PAGE_SIZE),
            };
        }
        WriteFault::None
    }

    /// Decide the fate of a write-ahead-log flush of `pending` bytes.
    /// The page predicate does not apply (the log is not a page), but log
    /// flushes count as write-class operations for the crash schedule,
    /// and transient write errors fire with the configured probability.
    pub fn on_log_write(&mut self, pending: usize) -> LogFault {
        if self.crashed {
            return LogFault::Crash { persist: 0 };
        }
        if self.crash_due() {
            // Strict prefix: whatever record is last in the pending
            // buffer (a commit, in every caller) can never fully land.
            let persist = if pending == 0 {
                0
            } else {
                self.rng.random_range(0..pending)
            };
            return LogFault::Crash { persist };
        }
        self.stats.ops += 1;
        if self.stats.ops <= self.cfg.after_ops {
            return LogFault::None;
        }
        if self.hit(self.cfg.write_error) {
            self.stats.write_errors += 1;
            return LogFault::Error {
                persist: pending / 2,
            };
        }
        LogFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        let cfg = FaultConfig::seeded(42)
            .with_read_error(0.01)
            .with_torn_write(0.5)
            .with_after_ops(100)
            .with_pages(3, 9);
        let parsed: FaultConfig = cfg.to_string().parse().unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!("frobnicate=1".parse::<FaultConfig>().is_err());
        assert!("read_err=2.0".parse::<FaultConfig>().is_err());
        assert!("read_err".parse::<FaultConfig>().is_err());
        assert!("pages=9-3".parse::<FaultConfig>().is_err());
        assert!("seed=notanumber".parse::<FaultConfig>().is_err());
        assert!("crash=0".parse::<FaultConfig>().is_err());
        assert!("crash=soon".parse::<FaultConfig>().is_err());
    }

    #[test]
    fn crash_spec_round_trips() {
        let cfg = FaultConfig::seeded(7).with_crash_after(25);
        assert_eq!(cfg.to_string(), "seed=7,crash=25");
        let parsed: FaultConfig = cfg.to_string().parse().unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn crash_fires_on_nth_write_and_sticks() {
        let mut inj = FaultInjector::new(FaultConfig::seeded(9).with_crash_after(3));
        // Reads never advance the crash schedule.
        for _ in 0..10 {
            assert_eq!(inj.on_read(PageId(0)), ReadFault::None);
        }
        assert_eq!(inj.on_write(PageId(0)), WriteFault::None);
        assert_eq!(inj.on_write(PageId(1)), WriteFault::None);
        match inj.on_write(PageId(2)) {
            WriteFault::Crash { len } => assert!(len < PAGE_SIZE),
            other => panic!("expected crash on write 3, got {other:?}"),
        }
        assert!(inj.crashed());
        assert_eq!(inj.stats().crashes, 1);
        // Everything after the kill point is dead, reads included.
        assert_eq!(inj.on_write(PageId(0)), WriteFault::Crash { len: 0 });
        assert_eq!(inj.on_read(PageId(0)), ReadFault::Crash);
        assert_eq!(inj.on_log_write(128), LogFault::Crash { persist: 0 });
        assert_eq!(inj.stats().crashes, 1, "the crash fires exactly once");
    }

    #[test]
    fn log_flush_counts_toward_crash_and_tears_strictly() {
        let mut inj = FaultInjector::new(FaultConfig::seeded(4).with_crash_after(2));
        assert_eq!(inj.on_log_write(64), LogFault::None);
        match inj.on_log_write(64) {
            LogFault::Crash { persist } => assert!(persist < 64, "must be a strict prefix"),
            other => panic!("expected crash on flush 2, got {other:?}"),
        }
        assert_eq!(inj.stats().write_ops, 2);
    }

    #[test]
    fn crash_ignores_page_predicate() {
        let mut inj = FaultInjector::new(
            FaultConfig::seeded(1)
                .with_pages(100, 200)
                .with_crash_after(1),
        );
        match inj.on_write(PageId(0)) {
            WriteFault::Crash { .. } => {}
            other => panic!("crash must bypass the page predicate, got {other:?}"),
        }
    }

    #[test]
    fn empty_spec_is_no_faults() {
        let cfg: FaultConfig = "".parse().unwrap();
        assert_eq!(cfg, FaultConfig::default());
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig::seeded(7)
            .with_read_error(0.3)
            .with_read_flip(0.3);
        let mut a = FaultInjector::new(cfg.clone());
        let mut b = FaultInjector::new(cfg);
        for i in 0..500 {
            assert_eq!(a.on_read(PageId(i % 13)), b.on_read(PageId(i % 13)));
            assert_eq!(a.on_write(PageId(i % 13)), b.on_write(PageId(i % 13)));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0, "schedule must actually fire");
    }

    #[test]
    fn page_predicate_restricts_injection() {
        let cfg = FaultConfig::seeded(1).with_read_error(1.0).with_pages(5, 5);
        let mut inj = FaultInjector::new(cfg);
        assert_eq!(inj.on_read(PageId(4)), ReadFault::None);
        assert_eq!(inj.on_read(PageId(5)), ReadFault::Error);
        assert_eq!(inj.on_read(PageId(6)), ReadFault::None);
    }

    #[test]
    fn after_ops_delays_injection() {
        let cfg = FaultConfig::seeded(1)
            .with_read_error(1.0)
            .with_after_ops(3);
        let mut inj = FaultInjector::new(cfg);
        for _ in 0..3 {
            assert_eq!(inj.on_read(PageId(0)), ReadFault::None);
        }
        assert_eq!(inj.on_read(PageId(0)), ReadFault::Error);
    }

    #[test]
    fn torn_lengths_stay_in_bounds() {
        let cfg = FaultConfig::seeded(5).with_torn_write(1.0);
        let mut inj = FaultInjector::new(cfg);
        for _ in 0..1000 {
            match inj.on_write(PageId(0)) {
                WriteFault::Torn { len } => assert!((1..PAGE_SIZE).contains(&len)),
                other => panic!("expected torn write, got {other:?}"),
            }
        }
    }
}

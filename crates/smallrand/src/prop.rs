//! A miniature property-testing harness.
//!
//! Replaces the external `proptest` dependency for this workspace's
//! needs: run a property over a few hundred generated cases, with fully
//! deterministic case generation (no shrinking — failing cases print
//! their case number and seed so they can be replayed exactly by
//! re-running the test).
//!
//! ```
//! use smallrand::prop::{check, Gen};
//!
//! check("reverse twice is identity", 64, |g: &mut Gen| {
//!     let v = g.vec(0, 20, |g| g.usize_in(0, 9));
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     assert_eq!(v, w);
//! });
//! ```

use crate::{RngCore, RngExt, SeedableRng, StdRng};

/// Deterministic generator handed to each property case.
pub struct Gen {
    rng: StdRng,
}

impl Gen {
    /// A generator for one case.
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The underlying RNG, for direct `random_range` calls.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Uniform `usize` in `[lo, hi]`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.random_range(lo..=hi)
    }

    /// Uniform `i64` in `[lo, hi]`.
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        self.rng.random_range(lo..=hi)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// `true` with probability `num/den`.
    pub fn ratio(&mut self, num: u32, den: u32) -> bool {
        self.rng.random_range(0..den) < num
    }

    /// A uniformly chosen element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_in(0, items.len() - 1)]
    }

    /// A vector of `min..=max` items produced by `f`.
    pub fn vec<T>(&mut self, min: usize, max: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize_in(min, max);
        (0..n).map(|_| f(self)).collect()
    }

    /// A printable-ASCII string (space through `~`) of `min..=max` chars.
    pub fn printable_string(&mut self, min: usize, max: usize) -> String {
        let n = self.usize_in(min, max);
        (0..n)
            .map(|_| char::from(self.rng.random_range(0x20u8..=0x7e)))
            .collect()
    }

    /// An XML-name-like identifier: `[A-Za-z_]` head plus up to
    /// `max_tail` chars from `[A-Za-z0-9_.-]`.
    pub fn ident(&mut self, max_tail: usize) -> String {
        const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
        const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
        let mut s = String::new();
        s.push(char::from(*self.pick(HEAD)));
        let n = self.usize_in(0, max_tail);
        for _ in 0..n {
            s.push(char::from(*self.pick(TAIL)));
        }
        s
    }
}

/// The base seed of a property's cases: 64-bit FNV-1a over its name.
fn name_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `property` over `cases` deterministic generated cases.
///
/// Case seeds derive from the property name, so distinct properties see
/// distinct streams but every run of the same test sees the same cases.
/// On failure the case number and seed are printed before the panic is
/// propagated.
pub fn check<F: FnMut(&mut Gen)>(name: &str, cases: u64, mut property: F) {
    let base = name_seed(name);
    for case in 0..cases {
        let seed = base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let property = &mut property;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut g = Gen::new(seed);
            property(&mut g);
        }));
        if let Err(payload) = outcome {
            eprintln!("property '{name}' failed at case {case}/{cases} (seed {seed:#018x})");
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_runs_all_cases() {
        let count = std::cell::Cell::new(0u64);
        check("counting", 37, |_| count.set(count.get() + 1));
        assert_eq!(count.get(), 37);
    }

    #[test]
    fn cases_are_deterministic() {
        let mut first: Vec<usize> = Vec::new();
        check("det", 10, |g| first.push(g.usize_in(0, 1_000_000)));
        let mut second: Vec<usize> = Vec::new();
        check("det", 10, |g| second.push(g.usize_in(0, 1_000_000)));
        assert_eq!(first, second);
    }

    #[test]
    fn distinct_properties_get_distinct_streams() {
        let mut a: Vec<usize> = Vec::new();
        check("stream-a", 5, |g| a.push(g.usize_in(0, usize::MAX - 1)));
        let mut b: Vec<usize> = Vec::new();
        check("stream-b", 5, |g| b.push(g.usize_in(0, usize::MAX - 1)));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "property violated")]
    fn failures_propagate() {
        check("always fails", 3, |_| panic!("property violated"));
    }

    #[test]
    fn ident_shape() {
        check("ident shape", 100, |g| {
            let s = g.ident(8);
            let mut chars = s.chars();
            let head = chars.next().unwrap();
            assert!(head.is_ascii_alphabetic() || head == '_');
            assert!(s.len() <= 9);
            for c in chars {
                assert!(c.is_ascii_alphanumeric() || "_.-".contains(c));
            }
        });
    }

    #[test]
    fn printable_string_shape() {
        check("printable", 100, |g| {
            let s = g.printable_string(1, 20);
            assert!((1..=20).contains(&s.len()));
            assert!(s.bytes().all(|b| (0x20..=0x7e).contains(&b)));
        });
    }
}

//! Everything a workload feeds the program, derived from `--seed` alone:
//! the same seed gives the same XML and the same op script.

use datagen::{DblpConfig, DblpGenerator};
use smallrand::{RngExt, SeedableRng, StdRng};

/// SplitMix64 step: an independent seed for stream `stream` of `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A synthetic bibliography of `articles` articles.
pub fn bib_xml(seed: u64, articles: usize) -> String {
    DblpGenerator::new(DblpConfig::sized(articles).with_seed(seed)).generate_xml()
}

/// `count` documents of `articles` articles each, document `k` from
/// stream `k` of the seed.
pub fn documents(seed: u64, count: usize, articles: usize) -> Vec<String> {
    (0..count)
        .map(|k| bib_xml(derive(seed, k as u64), articles))
        .collect()
}

/// One step of the ingest script. `victim` is a rank in the list of live
/// documents (oldest first) at the time the step runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Insert { doc: usize },
    Replace { victim: usize, doc: usize },
    Delete { victim: usize },
    Checkpoint,
}

impl Step {
    pub fn is_commit(&self) -> bool {
        !matches!(self, Step::Checkpoint)
    }
}

/// The ingest script: `commits` commits — 80 % insert, 10 % replace,
/// 10 % delete — over `docs` pre-generated documents, a checkpoint after
/// every `checkpoint_every` commits and none in the last tenth, so the
/// kill that follows finds a log tail to replay.
pub fn ingest_script(seed: u64, commits: usize, docs: usize, checkpoint_every: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(derive(seed, 0x1065));
    let mut live = 0usize;
    let mut steps = Vec::with_capacity(commits + commits / checkpoint_every);
    for i in 0..commits {
        let roll = rng.random_range(0..10u32);
        let doc = rng.random_range(0..docs);
        // The first commits only insert, so replace and delete have victims.
        let step = match roll {
            0 if live > 4 => Step::Delete {
                victim: rng.random_range(0..live),
            },
            1 if live > 4 => Step::Replace {
                victim: rng.random_range(0..live),
                doc,
            },
            _ => Step::Insert { doc },
        };
        match step {
            Step::Insert { .. } => live += 1,
            Step::Delete { .. } => live -= 1,
            Step::Replace { .. } | Step::Checkpoint => {}
        }
        steps.push(step);
        let done = i + 1;
        if done % checkpoint_every == 0 && done <= commits - commits / 10 {
            steps.push(Step::Checkpoint);
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(bib_xml(11, 300), bib_xml(11, 300));
        assert_ne!(bib_xml(11, 300), bib_xml(12, 300));
        let a = documents(5, 4, 50);
        assert_eq!(a, documents(5, 4, 50));
        assert_ne!(a[0], a[1], "each document has its own stream");
        assert_ne!(a, documents(6, 4, 50));
    }

    #[test]
    fn same_seed_same_script() {
        let a = ingest_script(3, 200, 16, 25);
        assert_eq!(a, ingest_script(3, 200, 16, 25));
        assert_ne!(a, ingest_script(4, 200, 16, 25));
        assert_eq!(a.iter().filter(|s| s.is_commit()).count(), 200);
        // Checkpoints every 25 commits, none after commit 180.
        assert_eq!(a.iter().filter(|s| !s.is_commit()).count(), 7);
        let last_checkpoint = a.iter().rposition(|s| !s.is_commit()).unwrap();
        let commits_after = a[last_checkpoint..]
            .iter()
            .filter(|s| s.is_commit())
            .count();
        assert_eq!(commits_after, 25);
    }

    #[test]
    fn script_victims_are_always_live() {
        for seed in 0..20 {
            let mut live = 0usize;
            let mut kinds = [0usize; 3];
            for step in ingest_script(seed, 300, 8, 50) {
                match step {
                    Step::Insert { doc } => {
                        assert!(doc < 8);
                        live += 1;
                        kinds[0] += 1;
                    }
                    Step::Replace { victim, doc } => {
                        assert!(victim < live && doc < 8);
                        kinds[1] += 1;
                    }
                    Step::Delete { victim } => {
                        assert!(victim < live);
                        live -= 1;
                        kinds[2] += 1;
                    }
                    Step::Checkpoint => {}
                }
            }
            assert!(kinds[0] > 200 && kinds[1] > 5 && kinds[2] > 5, "{kinds:?}");
        }
    }
}

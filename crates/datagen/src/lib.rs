//! Synthetic DBLP-like bibliography generator.
//!
//! The paper's experiments (Sec. 6) run over the Journals portion of the
//! DBLP data set: ~4.6 million nodes, ~100 MB, articles with a variable
//! number of authors. That dump is not redistributable here, so this
//! crate generates a deterministic synthetic equivalent that preserves
//! the properties the grouping workload exercises:
//!
//! * repeated sub-elements: 1–5 `author` children per `article`;
//! * skewed author productivity (Zipf-distributed author choice), so
//!   group sizes vary by orders of magnitude;
//! * shared authorship, so grouping is non-partitioning;
//! * optional `institution` sub-elements under authors, for the
//!   group-by-institution queries of Sec. 1;
//! * titles long enough that populating them dominates output cost, as
//!   in the paper ("the content of title nodes is often fairly long").
//!
//! Generation is seeded and scale-free: `DblpConfig { articles, .. }`
//! controls the size (≈23 stored nodes per article with institutions,
//! ≈15 without).

#![forbid(unsafe_code)]

pub mod zipf;

use smallrand::rngs::StdRng;
use smallrand::{RngExt, SeedableRng};
use std::fmt::Write as _;
use zipf::Zipf;

/// Configuration of the synthetic bibliography.
#[derive(Debug, Clone)]
pub struct DblpConfig {
    /// Number of `article` elements.
    pub articles: usize,
    /// Size of the author pool.
    pub author_pool: usize,
    /// Zipf exponent for author popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Maximum authors per article (minimum is 1).
    pub max_authors: usize,
    /// Attach an `institution` child to each author element.
    pub institutions: bool,
    /// Ragged hierarchies: each author's name sits at a varying depth
    /// below `<author>` — bare text, wrapped in `<name>`, or nested
    /// `<name><full>…</full></name>` — chosen per element. Exercises
    /// grouping bases whose key node is not uniformly shaped (the XOLAP
    /// lattice's "complex hierarchy" case). Ignored when `institutions`
    /// is set.
    pub ragged_authors: bool,
    /// Size of the institution pool.
    pub institution_pool: usize,
    /// RNG seed — equal configs generate byte-identical documents.
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        DblpConfig {
            articles: 1000,
            author_pool: 300,
            zipf_exponent: 0.9,
            max_authors: 5,
            institutions: false,
            ragged_authors: false,
            institution_pool: 40,
            seed: 20020324, // EDBT 2002
        }
    }
}

impl DblpConfig {
    /// A config sized by article count with the other knobs at defaults
    /// scaled sensibly (pool ≈ articles/3, capped).
    pub fn sized(articles: usize) -> Self {
        DblpConfig {
            articles,
            author_pool: (articles / 3).clamp(10, 200_000),
            ..DblpConfig::default()
        }
    }

    /// Enable institutions.
    pub fn with_institutions(mut self) -> Self {
        self.institutions = true;
        self
    }

    /// Enable ragged author hierarchies (varying name depth).
    pub fn with_ragged_authors(mut self) -> Self {
        self.ragged_authors = true;
        self
    }

    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

const FIRST_NAMES: &[&str] = &[
    "Alice", "Bob", "Carol", "David", "Erika", "Frank", "Grace", "Hector", "Irene", "Jack",
    "Karen", "Liang", "Maria", "Nikos", "Olga", "Pedro", "Qing", "Rosa", "Stefan", "Tomoko",
    "Umar", "Vera", "Wei", "Ximena", "Yuri", "Zoe",
];

const LAST_NAMES: &[&str] = &[
    "Adams",
    "Brown",
    "Chen",
    "Dimitriou",
    "Evans",
    "Fischer",
    "Gupta",
    "Hansen",
    "Ivanov",
    "Jagadish",
    "Kim",
    "Lakshmanan",
    "Moreno",
    "Nguyen",
    "Okafor",
    "Paparizos",
    "Quispe",
    "Rossi",
    "Srivastava",
    "Tanaka",
    "Ueda",
    "Vasquez",
    "Wu",
    "Xu",
    "Yamamoto",
    "Zhang",
];

const TITLE_WORDS: &[&str] = &[
    "Transaction",
    "Management",
    "Querying",
    "XML",
    "Semistructured",
    "Data",
    "Indexing",
    "Optimization",
    "Algebra",
    "Pattern",
    "Matching",
    "Storage",
    "Views",
    "Streams",
    "Integration",
    "Schema",
    "Evolution",
    "Recovery",
    "Concurrency",
    "Control",
    "Parallel",
    "Distributed",
    "Caching",
    "Replication",
    "Mining",
    "Warehousing",
    "Grouping",
    "Aggregation",
    "Join",
    "Processing",
];

const JOURNALS: &[&str] = &[
    "TODS",
    "VLDB Journal",
    "SIGMOD Record",
    "TKDE",
    "Information Systems",
    "Data Engineering Bulletin",
    "JACM",
    "Acta Informatica",
];

const INSTITUTIONS: &[&str] = &[
    "Michigan",
    "British Columbia",
    "ATT Labs",
    "Stanford",
    "Wisconsin",
    "Berkeley",
    "MIT",
    "CMU",
    "Toronto",
    "Maryland",
    "INRIA",
    "ETH",
    "Tsinghua",
    "IIT Bombay",
    "Oxford",
    "Edinburgh",
    "Aalborg",
    "Twente",
    "Tokyo",
    "Melbourne",
];

/// The generator.
pub struct DblpGenerator {
    cfg: DblpConfig,
    rng: StdRng,
    author_zipf: Zipf,
    author_names: Vec<String>,
    author_institutions: Vec<usize>,
    institution_names: Vec<String>,
}

impl DblpGenerator {
    /// Prepare a generator for `cfg`.
    pub fn new(cfg: DblpConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let author_zipf = Zipf::new(cfg.author_pool, cfg.zipf_exponent);
        let mut author_names = Vec::with_capacity(cfg.author_pool);
        let mut seen = std::collections::HashSet::new();
        for i in 0..cfg.author_pool {
            // Distinct names: First Last, disambiguated by index on
            // collision.
            let f = FIRST_NAMES[rng.random_range(0..FIRST_NAMES.len())];
            let l = LAST_NAMES[rng.random_range(0..LAST_NAMES.len())];
            let mut name = format!("{f} {l}");
            if !seen.insert(name.clone()) {
                name = format!("{f} {l} {i:05}");
                seen.insert(name.clone());
            }
            author_names.push(name);
        }
        let institution_names: Vec<String> = (0..cfg.institution_pool)
            .map(|i| {
                format!(
                    "{} Institute {}",
                    INSTITUTIONS[i % INSTITUTIONS.len()],
                    i / INSTITUTIONS.len()
                )
            })
            .collect();
        let author_institutions = (0..cfg.author_pool)
            .map(|_| rng.random_range(0..cfg.institution_pool.max(1)))
            .collect();
        DblpGenerator {
            cfg,
            rng,
            author_zipf,
            author_names,
            author_institutions,
            institution_names,
        }
    }

    /// Generate the bibliography as an XML string (root element `dblp`).
    pub fn generate_xml(mut self) -> String {
        // ~220 bytes per article.
        let mut out = String::with_capacity(64 + self.cfg.articles * 220);
        out.push_str("<dblp>");
        for i in 0..self.cfg.articles {
            self.write_article(&mut out, i);
        }
        out.push_str("</dblp>");
        out
    }

    fn write_article(&mut self, out: &mut String, idx: usize) {
        let n_authors = sample_author_count(&mut self.rng, self.cfg.max_authors);
        // Distinct authors within one article.
        let mut chosen: Vec<usize> = Vec::with_capacity(n_authors);
        let mut guard = 0;
        while chosen.len() < n_authors && guard < 50 {
            let a = self.author_zipf.sample(&mut self.rng);
            if !chosen.contains(&a) {
                chosen.push(a);
            }
            guard += 1;
        }

        out.push_str("<article>");
        // Title: 4–9 words plus a unique ordinal so titles are distinct.
        let words = self.rng.random_range(4..=9);
        out.push_str("<title>");
        for w in 0..words {
            if w > 0 {
                out.push(' ');
            }
            out.push_str(TITLE_WORDS[self.rng.random_range(0..TITLE_WORDS.len())]);
        }
        let _ = write!(out, " No{idx}");
        out.push_str("</title>");

        for &a in &chosen {
            out.push_str("<author>");
            if self.cfg.institutions {
                let _ = write!(
                    out,
                    "<name>{}</name><institution>{}</institution>",
                    self.author_names[a], self.institution_names[self.author_institutions[a]]
                );
            } else if self.cfg.ragged_authors {
                // Same name pool, but the name lands at depth 0, 1, or 2
                // below <author> — picked per element, so one author's
                // occurrences differ in shape across articles.
                match self.rng.random_range(0..4u32) {
                    0 => {
                        let _ = write!(out, "<name>{}</name>", self.author_names[a]);
                    }
                    1 => {
                        let _ = write!(out, "<name><full>{}</full></name>", self.author_names[a]);
                    }
                    _ => out.push_str(&self.author_names[a]),
                }
            } else {
                out.push_str(&self.author_names[a]);
            }
            out.push_str("</author>");
        }

        let year = self.rng.random_range(1970..=2002);
        let journal = JOURNALS[self.rng.random_range(0..JOURNALS.len())];
        let volume = self.rng.random_range(1..=40);
        let pages_lo = self.rng.random_range(1..=900);
        let _ = write!(
            out,
            "<journal>{journal}</journal><volume>{volume}</volume><year>{year}</year><pages>{}-{}</pages>",
            pages_lo,
            pages_lo + self.rng.random_range(5..=40)
        );
        out.push_str("</article>");
    }
}

/// 1–`max` authors with a skew towards small counts
/// (≈45% one author, ≈30% two, tapering off).
fn sample_author_count<R: RngExt>(rng: &mut R, max: usize) -> usize {
    let max = max.max(1);
    let u: f64 = rng.random_range(0.0..1.0);
    let mut p = 0.45;
    let mut acc = p;
    let mut k = 1;
    while k < max && u > acc {
        k += 1;
        p *= 0.6;
        acc += p;
    }
    k.min(max)
}

/// Convenience: generate and parse into a DOM document.
pub fn generate_document(cfg: DblpConfig) -> xmlparse::Document {
    let xml = DblpGenerator::new(cfg).generate_xml();
    xmlparse::parse_document(&xml).expect("generator output is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = DblpGenerator::new(DblpConfig::sized(50)).generate_xml();
        let b = DblpGenerator::new(DblpConfig::sized(50)).generate_xml();
        assert_eq!(a, b);
        let c = DblpGenerator::new(DblpConfig::sized(50).with_seed(1)).generate_xml();
        assert_ne!(a, c);
    }

    #[test]
    fn output_is_well_formed() {
        let doc = generate_document(DblpConfig::sized(100));
        assert_eq!(doc.root().name, "dblp");
        assert_eq!(doc.root().children_named("article").count(), 100);
    }

    #[test]
    fn every_article_has_title_authors_year() {
        let doc = generate_document(DblpConfig::sized(80));
        for article in doc.root().children_named("article") {
            assert!(article.child("title").is_some());
            assert!(article.child("year").is_some());
            assert!(article.child("journal").is_some());
            let n = article.children_named("author").count();
            assert!((1..=5).contains(&n), "author count {n}");
        }
    }

    #[test]
    fn author_counts_are_skewed_small() {
        let doc = generate_document(DblpConfig::sized(500));
        let mut hist = [0usize; 6];
        for article in doc.root().children_named("article") {
            hist[article.children_named("author").count()] += 1;
        }
        assert!(hist[1] > hist[3], "{hist:?}");
        assert_eq!(hist[0], 0);
    }

    #[test]
    fn popular_author_repeats_across_articles() {
        let cfg = DblpConfig {
            articles: 300,
            author_pool: 100,
            ..DblpConfig::default()
        };
        let doc = generate_document(cfg);
        let mut counts = std::collections::HashMap::new();
        for article in doc.root().children_named("article") {
            for a in article.children_named("author") {
                *counts.entry(a.text()).or_insert(0usize) += 1;
            }
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max >= 10, "Zipf head author must repeat (max={max})");
        assert!(counts.len() > 30, "tail must exist ({})", counts.len());
    }

    #[test]
    fn institutions_mode_adds_nested_structure() {
        let doc = generate_document(DblpConfig::sized(30).with_institutions());
        let article = doc.root().child("article").unwrap();
        let author = article.child("author").unwrap();
        assert!(author.child("name").is_some());
        assert!(author.child("institution").is_some());
    }

    #[test]
    fn ragged_authors_vary_in_depth() {
        let doc = generate_document(DblpConfig::sized(200).with_ragged_authors());
        let (mut bare, mut nested, mut deep) = (0usize, 0usize, 0usize);
        for article in doc.root().children_named("article") {
            for author in article.children_named("author") {
                match author.child("name") {
                    None => bare += 1,
                    Some(name) if name.child("full").is_some() => deep += 1,
                    Some(_) => nested += 1,
                }
            }
        }
        assert!(
            bare > 0 && nested > 0 && deep > 0,
            "all three depths must occur (bare={bare} nested={nested} deep={deep})"
        );
        // Determinism holds with the knob on.
        let a = DblpGenerator::new(DblpConfig::sized(50).with_ragged_authors()).generate_xml();
        let b = DblpGenerator::new(DblpConfig::sized(50).with_ragged_authors()).generate_xml();
        assert_eq!(a, b);
        // And the knob actually changes the document.
        let plain = DblpGenerator::new(DblpConfig::sized(50)).generate_xml();
        assert_ne!(a, plain);
    }

    #[test]
    fn titles_are_distinct() {
        let doc = generate_document(DblpConfig::sized(200));
        let titles: std::collections::HashSet<String> = doc
            .root()
            .children_named("article")
            .map(|a| a.child("title").unwrap().text())
            .collect();
        assert_eq!(titles.len(), 200);
    }

    #[test]
    fn node_count_scales_linearly() {
        let d1 = generate_document(DblpConfig::sized(100));
        let d2 = generate_document(DblpConfig::sized(200));
        let n1 = d1.root().subtree_node_count();
        let n2 = d2.root().subtree_node_count();
        let ratio = n2 as f64 / n1 as f64;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn authors_within_article_are_distinct() {
        let doc = generate_document(DblpConfig::sized(300));
        for article in doc.root().children_named("article") {
            let authors: Vec<String> = article.children_named("author").map(|a| a.text()).collect();
            let set: std::collections::HashSet<&String> = authors.iter().collect();
            assert_eq!(set.len(), authors.len());
        }
    }

    #[test]
    fn author_count_sampler_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let k = sample_author_count(&mut rng, 5);
            assert!((1..=5).contains(&k));
        }
        assert_eq!(sample_author_count(&mut rng, 1), 1);
    }
}

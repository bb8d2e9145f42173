//! A self-contained XML 1.0 subset parser, DOM, and serializer.
//!
//! This crate is one of the substrates of the reproduction of *Grouping in
//! XML* (Paparizos et al., EDBT 2002). The TIMBER system the paper
//! describes loads XML documents into a native paged store; this crate
//! provides the front end of that loading path: one recursive-descent
//! parser, [`parse_into`], that reports a document as element events to
//! an [`XmlSink`], and the way back from events to XML text
//! ([`XmlWriter`]). The store's loader is one such sink and builds its
//! pages as the events arrive; the DOM, [`dom::Document`], is another
//! ([`ElementBuilder`], which [`parse_document`] drives).
//!
//! # Supported XML subset
//!
//! * elements, attributes (single- or double-quoted)
//! * character data with the five predefined entities plus decimal and
//!   hexadecimal character references
//! * CDATA sections, comments, processing instructions (skipped), a
//!   `<?xml ...?>` declaration, and a (non-validating) `<!DOCTYPE ...>`
//!   declaration
//!
//! Namespaces are not processed: a name such as `dblp:article` is kept as
//! one opaque tag, which is all the bibliographic workloads in the paper
//! require.
//!
//! # Example
//!
//! ```
//! use xmlparse::parse_document;
//!
//! let doc = parse_document("<bib><article><title>Querying XML</title></article></bib>")
//!     .expect("well-formed");
//! assert_eq!(doc.root().name, "bib");
//! assert_eq!(doc.root().children.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dom;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod serialize;
pub mod sink;

pub use dom::{Document, Element, XmlNode};
pub use error::{ParseError, Result};
pub use parser::{parse_document, parse_into};
pub use serialize::{to_string, to_string_pretty};
pub use sink::{ElementBuilder, XmlSink, XmlWriter};

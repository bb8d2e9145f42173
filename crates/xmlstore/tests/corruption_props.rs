//! Property tests for the checksum layer, on the in-tree `smallrand`
//! harness:
//!
//! * any single corrupted byte in a stored page — header or data — is
//!   caught by checksum verification on the next read;
//! * fault-free operation is differentially identical to a plain
//!   in-memory evaluation: checksums change no observable byte.

use smallrand::prop::check;
use xmlstore::storage::DiskManager;
use xmlstore::{
    DocumentStore, PageId, StoreError, StoreOptions, PAGE_DATA_SIZE, PAGE_HEADER_SIZE, PAGE_SIZE,
};

/// Any single-byte XOR anywhere in a stored page image fails
/// verification on the next read, and undoing it restores the page.
#[test]
fn any_single_corrupted_byte_is_caught() {
    check("any_single_corrupted_byte_is_caught", 256, |g| {
        let mut dm = if g.bool() {
            DiskManager::in_memory()
        } else {
            DiskManager::temp_file().unwrap()
        };
        let npages = g.usize_in(1, 4) as u32;
        for _ in 0..npages {
            dm.allocate(1).unwrap();
        }
        let pid = PageId(g.usize_in(0, npages as usize - 1) as u32);
        let mut image = [0u8; PAGE_SIZE];
        for b in image[PAGE_HEADER_SIZE..].iter_mut() {
            *b = g.usize_in(0, 255) as u8;
        }
        dm.write_page(pid, &image).unwrap();

        // Corrupt one byte anywhere in the physical page, including the
        // header: the page LSN and the stored checksum are protected too.
        let offset = g.usize_in(0, PAGE_SIZE - 1);
        let xor = g.usize_in(1, 255) as u8;
        dm.poke_byte(pid, offset, xor).unwrap();

        let mut out = [0u8; PAGE_SIZE];
        match dm.read_page(pid, &mut out) {
            Err(StoreError::Corruption { page, .. }) => assert_eq!(page, pid.0),
            other => panic!(
                "single-byte corruption at offset {offset} (xor {xor:#04x}) \
                 escaped verification: {other:?}"
            ),
        }

        // Undo: the page verifies again and the data survived.
        dm.poke_byte(pid, offset, xor).unwrap();
        dm.read_page(pid, &mut out).unwrap();
        assert_eq!(out[PAGE_HEADER_SIZE..], image[PAGE_HEADER_SIZE..]);
    });
}

/// Reference evaluation straight off the parsed DOM: every text-only
/// element's (tag, content) in document order.
fn dom_reference(elem: &xmlparse::Element, out: &mut Vec<(String, String)>) {
    let text_only = !elem
        .children
        .iter()
        .any(|c| matches!(c, xmlparse::XmlNode::Element(_)));
    if text_only {
        let text = elem.text();
        if !text.trim().is_empty() {
            out.push((elem.name.clone(), text));
        }
    }
    for child in &elem.children {
        if let xmlparse::XmlNode::Element(e) = child {
            dom_reference(e, out);
        }
    }
}

/// Fault-free differential run: reading every stored content back
/// through the checksummed page stack yields byte-identical strings to a
/// plain DOM walk, on both backends, for arbitrary generated documents.
#[test]
fn fault_free_runs_match_unchecksummed_reference() {
    check("fault_free_runs_match_reference", 48, |g| {
        // A generated two-level document with arbitrary printable text,
        // occasionally long enough to span name pages.
        let mut xml = String::from("<bib>");
        let narticles = g.usize_in(1, 12);
        for _ in 0..narticles {
            let title = if g.ratio(1, 10) {
                g.printable_string(PAGE_DATA_SIZE, PAGE_DATA_SIZE + 300)
            } else {
                g.printable_string(1, 40)
            };
            let author = g.printable_string(1, 20);
            xml.push_str(&format!(
                "<article><title>{}</title><author>{}</author></article>",
                xml_escape(&title),
                xml_escape(&author)
            ));
        }
        xml.push_str("</bib>");

        let doc = xmlparse::parse_document(&xml).unwrap();
        let mut expected = Vec::new();
        dom_reference(doc.root(), &mut expected);

        for on_disk in [false, true] {
            let opts = StoreOptions {
                on_disk,
                // A tiny pool forces real evictions and re-reads, so the
                // comparison exercises the checksum verify of every
                // re-read, not just the first fill.
                pool_pages: 3,
                ..StoreOptions::in_memory()
            };
            let store = DocumentStore::from_xml(&xml, &opts).unwrap();
            let mut got = Vec::new();
            for tag in ["title", "author"] {
                let id = store.tag_id(tag).unwrap();
                for e in store.nodes_with_tag(id) {
                    // Whitespace-only text is stripped at load, so such
                    // elements have no stored content — the DOM
                    // reference skips them the same way.
                    if let Some(content) = store.content(e.id).unwrap() {
                        got.push((tag.to_owned(), content));
                    }
                }
            }
            got.sort();
            let mut want = expected.clone();
            want.sort();
            assert_eq!(got, want, "on_disk={on_disk}");
        }
    });
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

//! An interactive shell for the TIMBER reproduction.
//!
//! ```text
//! cargo run --release -p timber-bench --bin timber_shell [file.xml]
//! ```
//!
//! Commands (terminate queries with `;`):
//!
//! ```text
//! .load <file.xml>     load an XML document
//! .gen <articles>      load a synthetic DBLP of the given size
//! .insert <file.xml>   insert a document into the current database
//!                      (creates an empty one first if none is loaded)
//! .delete <doc>        delete a document by id (see .stats for ids)
//! .checkpoint          truncate the write-ahead log to a fresh
//!                      checkpoint (durable databases)
//! .mode direct|groupby|both
//! .cube                run the lattice query (journal → year →
//!                      author cube) under the current settings
//! .explain             show plans instead of executing (toggle)
//! .explain analyze     execute and report per-operator metrics
//! .faults <spec|off>   arm a deterministic fault schedule, e.g.
//!                      .faults seed=3,read_err=0.01,flip=0.005
//! .stats               database and I/O statistics
//! .connect <addr>      attach to a running timberd; queries and
//!                      mutations go over the wire until .disconnect
//! .snapshot            (connected) pin the session to the current
//!                      committed state; .release unpins it
//! .help                this text
//! .quit
//! FOR $a IN … ;        any query in the supported FLWR subset
//! ```

#![forbid(unsafe_code)]

use std::io::{BufRead, Write};
use timber::{PlanMode, TimberDb};
use timber_client::Client;
use xmlstore::StoreOptions;

struct Shell {
    db: Option<TimberDb>,
    /// When set, queries and mutations route to a `timberd` over the
    /// wire instead of the local database.
    conn: Option<Client>,
    mode: Mode,
    explain: Explain,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Direct,
    GroupBy,
    Both,
}

/// Accepted `.mode` arguments, echoed by the unknown-argument report.
const MODE_VALUES: &str = "direct|groupby|both";

impl Mode {
    fn parse(arg: &str) -> Option<Mode> {
        match arg {
            "direct" => Some(Mode::Direct),
            "groupby" => Some(Mode::GroupBy),
            "both" => Some(Mode::Both),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mode::Direct => "direct",
            Mode::GroupBy => "groupby",
            Mode::Both => "both",
        }
    }
}

/// The one unknown-argument report every settings command prints: which
/// command rejected what, the values it accepts, and the setting that
/// stays in force — so a typo never silently changes (or appears to
/// change) the session state.
fn bad_setting(cmd: &str, arg: &str, expected: &str, retained: &str) -> String {
    format!("{cmd}: unknown argument '{arg}' (expected {expected}); keeping {retained}")
}

#[derive(Clone, Copy, PartialEq)]
enum Explain {
    Off,
    Plan,
    Analyze,
}

fn main() {
    let mut shell = Shell {
        db: None,
        conn: None,
        mode: Mode::GroupBy,
        explain: Explain::Off,
    };
    if let Some(path) = std::env::args().nth(1) {
        shell.load(&path);
    }
    println!("TIMBER shell — .help for commands");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        print!(
            "{}",
            if buffer.is_empty() {
                "timber> "
            } else {
                "   ...> "
            }
        );
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            if !shell.command(trimmed) {
                break;
            }
            continue;
        }
        if trimmed.is_empty() && buffer.is_empty() {
            continue;
        }
        buffer.push_str(&line);
        if trimmed.ends_with(';') {
            let query = buffer.trim_end().trim_end_matches(';').to_owned();
            buffer.clear();
            shell.run_query(&query);
        }
    }
}

impl Shell {
    fn command(&mut self, cmd: &str) -> bool {
        let mut parts = cmd.splitn(2, ' ');
        let head = parts.next().unwrap_or("");
        let arg = parts.next().unwrap_or("").trim();
        match head {
            ".quit" | ".exit" => return false,
            ".help" => {
                println!(
                    ".load <file.xml> | .gen <articles> | .mode {MODE_VALUES}\n\
                     .insert <file.xml> | .delete <doc> | .checkpoint\n\
                     .cube (run the lattice query) | .explain (toggle) | .explain analyze | .explain off\n\
                     .faults <spec|off> | .stats | .quit\n\
                     .connect <addr> | .disconnect | .snapshot | .release\n\
                     end a query with ';' to run it"
                );
            }
            ".connect" => {
                if arg.is_empty() {
                    eprintln!(".connect needs a host:port address");
                } else {
                    match Client::connect(arg) {
                        Ok(c) => {
                            println!("connected to timberd at {arg}");
                            self.conn = Some(c);
                        }
                        Err(e) => eprintln!("connect failed: {e}"),
                    }
                }
            }
            ".disconnect" => match self.conn.take() {
                Some(_) => println!("disconnected"),
                None => eprintln!("not connected"),
            },
            ".snapshot" => match &mut self.conn {
                None => eprintln!(".snapshot needs a connection (.connect first)"),
                Some(c) => match c.snapshot() {
                    Ok(epoch) => println!("session pinned at epoch {epoch}"),
                    Err(e) => eprintln!("snapshot failed: {e}"),
                },
            },
            ".release" => match &mut self.conn {
                None => eprintln!(".release needs a connection (.connect first)"),
                Some(c) => match c.release() {
                    Ok(()) => println!("session snapshot released"),
                    Err(e) => eprintln!("release failed: {e}"),
                },
            },
            ".load" => self.load(arg),
            ".insert" if self.conn.is_some() => {
                let Some(c) = &mut self.conn else { return true };
                match std::fs::read_to_string(arg) {
                    Err(e) => eprintln!("cannot read {arg}: {e}"),
                    Ok(xml) => match c.insert_xml(&xml) {
                        Ok(id) => println!("inserted {arg} as document {id}"),
                        Err(e) => eprintln!("insert failed: {e}"),
                    },
                }
            }
            ".insert" => self.insert(arg),
            ".delete" if self.conn.is_some() => {
                let Some(c) = &mut self.conn else { return true };
                match arg.parse::<u64>() {
                    Err(_) => eprintln!(".delete needs a document id (see .stats)"),
                    Ok(id) => match c.delete(id) {
                        Ok(()) => println!("deleted document {id}"),
                        Err(e) => eprintln!("delete failed: {e}"),
                    },
                }
            }
            ".delete" => match (arg.parse::<u64>(), &mut self.db) {
                (_, None) => eprintln!("no database loaded (.load or .gen first)"),
                (Err(_), _) => eprintln!(".delete needs a document id (see .stats)"),
                (Ok(id), Some(db)) => match db.delete_document(id) {
                    Ok(()) => println!("deleted document {id}; {} remain", db.documents().len()),
                    Err(e) => eprintln!("delete failed: {e}"),
                },
            },
            ".checkpoint" if self.conn.is_some() => {
                let Some(c) = &mut self.conn else { return true };
                match c.checkpoint() {
                    Ok(()) => println!("checkpoint done"),
                    Err(e) => eprintln!("checkpoint failed: {e}"),
                }
            }
            ".checkpoint" => match &mut self.db {
                None => eprintln!("no database loaded (.load or .gen first)"),
                Some(db) => match db.checkpoint() {
                    Ok(()) => match db.wal_stats() {
                        Some(s) => println!(
                            "checkpoint done ({} so far, {} log records written)",
                            s.checkpoints, s.records
                        ),
                        None => println!("checkpoint done (no log: nothing to do)"),
                    },
                    Err(e) => eprintln!("checkpoint failed: {e}"),
                },
            },
            ".gen" => match arg.parse::<usize>() {
                Ok(n) => {
                    let xml =
                        datagen::DblpGenerator::new(datagen::DblpConfig::sized(n)).generate_xml();
                    match TimberDb::load_xml(&xml, &StoreOptions::default()) {
                        Ok(db) => {
                            println!(
                                "generated {n} articles: {} nodes, {:.1} MB",
                                db.store().node_count(),
                                db.store().size_bytes() as f64 / (1024.0 * 1024.0)
                            );
                            self.db = Some(db);
                        }
                        Err(e) => eprintln!("load failed: {e}"),
                    }
                }
                Err(_) => eprintln!(".gen needs an article count"),
            },
            ".mode" => match Mode::parse(arg) {
                Some(m) => {
                    self.mode = m;
                    println!("mode {}", m.name());
                }
                None => eprintln!(
                    "{}",
                    bad_setting(
                        ".mode",
                        arg,
                        MODE_VALUES,
                        &format!("mode {}", self.mode.name())
                    )
                ),
            },
            ".cube" => {
                println!("-- lattice query: CUBE BY journal, year, author --");
                self.run_query(timber_bench::QUERY_CUBE.trim());
            }
            ".explain" => {
                self.explain = match arg {
                    "analyze" => Explain::Analyze,
                    "off" => Explain::Off,
                    // Bare `.explain` keeps its toggle behaviour.
                    _ => match self.explain {
                        Explain::Off => Explain::Plan,
                        _ => Explain::Off,
                    },
                };
                println!(
                    "explain {}",
                    match self.explain {
                        Explain::Off => "off",
                        Explain::Plan => "on",
                        Explain::Analyze => "analyze",
                    }
                );
            }
            ".faults" => match &self.db {
                None => eprintln!("no database loaded (.load or .gen first)"),
                Some(db) => {
                    if arg == "off" {
                        match db.set_faults(None) {
                            Ok(()) => println!("fault injection off"),
                            Err(e) => eprintln!("disarm failed: {e}"),
                        }
                    } else if arg.is_empty() {
                        match db.fault_stats() {
                            None => println!("fault injection off"),
                            Some(s) => println!(
                                "armed; {} eligible ops, {} faults injected",
                                s.ops,
                                s.total()
                            ),
                        }
                    } else {
                        match arg.parse::<xmlstore::FaultConfig>() {
                            Err(e) => eprintln!("{e}"),
                            Ok(cfg) => match db.set_faults(Some(cfg.clone())) {
                                Ok(()) => println!("fault schedule armed: {cfg}"),
                                Err(e) => eprintln!("arming failed: {e}"),
                            },
                        }
                    }
                }
            },
            ".stats" if self.conn.is_some() => {
                let Some(c) = &mut self.conn else { return true };
                match c.stats() {
                    Ok(text) => print!("{text}"),
                    Err(e) => eprintln!("stats failed: {e}"),
                }
            }
            ".stats" => match &self.db {
                None => println!("no database loaded"),
                Some(db) => {
                    let io = db.io_stats();
                    println!(
                        "{} nodes, {} pages ({:.1} MB), pool_resident={} pool_capacity={}; \
                         session I/O: {} page requests, {} disk reads",
                        db.store().node_count(),
                        db.store().total_pages(),
                        db.store().size_bytes() as f64 / (1024.0 * 1024.0),
                        db.store().pool_resident_pages(),
                        db.store().pool_capacity(),
                        io.page_requests(),
                        io.disk.reads,
                    );
                    let docs = db.documents();
                    if !docs.is_empty() {
                        let list: Vec<String> = docs
                            .iter()
                            .map(|&(id, n)| format!("{id} ({n} nodes)"))
                            .collect();
                        println!("documents: {}", list.join(", "));
                    }
                    if let Some(w) = db.wal_stats() {
                        println!(
                            "wal: {} records, {} flushes, {} checkpoints",
                            w.records, w.flushes, w.checkpoints
                        );
                    }
                }
            },
            other => eprintln!("unknown command {other}; try .help"),
        }
        true
    }

    fn load(&mut self, path: &str) {
        if path.is_empty() {
            eprintln!(".load needs a file path");
            return;
        }
        match std::fs::read_to_string(path) {
            Err(e) => eprintln!("cannot read {path}: {e}"),
            Ok(xml) => match TimberDb::load_xml(&xml, &StoreOptions::default()) {
                Ok(db) => {
                    println!(
                        "loaded {path}: {} nodes, {} pages",
                        db.store().node_count(),
                        db.store().total_pages()
                    );
                    self.db = Some(db);
                }
                Err(e) => eprintln!("load failed: {e}"),
            },
        }
    }

    fn insert(&mut self, path: &str) {
        if path.is_empty() {
            eprintln!(".insert needs a file path");
            return;
        }
        if self.db.is_none() {
            match TimberDb::create(&StoreOptions::default()) {
                Ok(db) => {
                    self.db = Some(db);
                    println!("created an empty database");
                }
                Err(e) => {
                    eprintln!("create failed: {e}");
                    return;
                }
            }
        }
        let Some(db) = &mut self.db else { return };
        match std::fs::read_to_string(path) {
            Err(e) => eprintln!("cannot read {path}: {e}"),
            Ok(xml) => match db.insert_xml(&xml) {
                Ok(id) => println!(
                    "inserted {path} as document {id}: {} documents, {} nodes total",
                    db.documents().len(),
                    db.store().node_count()
                ),
                Err(e) => eprintln!("insert failed: {e}"),
            },
        }
    }

    /// Run a query over an attached `timberd` connection. Plan-only
    /// `.explain` has no wire opcode, so both explain settings render
    /// the server's EXPLAIN ANALYZE report.
    fn run_query_remote(&mut self, query: &str) {
        let explain = self.explain;
        let mode = self.mode;
        let Some(c) = &mut self.conn else { return };
        let modes: &[(&str, timber_client::Mode)] = match mode {
            Mode::Direct => &[("direct", timber_client::Mode::Direct)],
            Mode::GroupBy => &[("groupby", timber_client::Mode::Grouped)],
            Mode::Both => &[
                ("direct", timber_client::Mode::Direct),
                ("groupby", timber_client::Mode::Grouped),
            ],
        };
        for (name, m) in modes {
            if mode == Mode::Both {
                println!("-- {name} --");
            }
            let sent = std::time::Instant::now();
            let result = if explain == Explain::Off {
                c.query(query, *m)
            } else {
                c.explain(query, *m)
            };
            match result {
                Ok(text) => {
                    print!("{text}");
                    if explain == Explain::Off {
                        println!("[{:.3}s round trip]", sent.elapsed().as_secs_f64());
                    }
                }
                Err(e) => eprintln!("error: {e}"),
            }
        }
    }

    fn run_query(&mut self, query: &str) {
        if self.conn.is_some() {
            self.run_query_remote(query);
            return;
        }
        let Some(db) = &self.db else {
            eprintln!("no database loaded (.load or .gen first)");
            return;
        };
        if self.explain == Explain::Plan {
            match db.explain(query) {
                Ok(text) => println!("{text}"),
                Err(e) => eprintln!("error: {e}"),
            }
            return;
        }
        let modes: &[(&str, PlanMode)] = match self.mode {
            Mode::Direct => &[("direct", PlanMode::Direct)],
            Mode::GroupBy => &[("groupby", PlanMode::GroupByRewrite)],
            Mode::Both => &[
                ("direct", PlanMode::Direct),
                ("groupby", PlanMode::GroupByRewrite),
            ],
        };
        for (name, mode) in modes {
            if self.explain == Explain::Analyze {
                match db.explain_analyze(query, *mode) {
                    Ok(a) => {
                        if self.mode == Mode::Both {
                            println!("-- {name} --");
                        }
                        print!("{}", a.render());
                    }
                    Err(e) => eprintln!("error: {e}"),
                }
                continue;
            }
            db.reset_io_stats();
            let t0 = std::time::Instant::now();
            match db.query(query, *mode) {
                Err(e) => eprintln!("error: {e}"),
                Ok(result) => match result.to_xml_on(db.store()) {
                    Err(e) => eprintln!("materialize error: {e}"),
                    Ok(xml) => {
                        let dt = t0.elapsed();
                        let io = db.io_stats();
                        if self.mode == Mode::Both {
                            println!("-- {name} --");
                        }
                        print!("{xml}");
                        println!(
                            "[{} rows, {:.3}s, {} page requests, {} disk reads{}]",
                            result.len(),
                            dt.as_secs_f64(),
                            io.page_requests(),
                            io.disk.reads,
                            if result.rewritten { ", rewritten" } else { "" }
                        );
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shell() -> Shell {
        Shell {
            db: None,
            conn: None,
            mode: Mode::GroupBy,
            explain: Explain::Off,
        }
    }

    #[test]
    fn unknown_mode_argument_keeps_the_setting_and_reports_it() {
        let mut sh = shell();
        // A typo, and the two retired modes: all the same report.
        for arg in ["warp", "auto", "materialized"] {
            assert!(sh.command(&format!(".mode {arg}")), "shell keeps running");
            assert!(sh.mode == Mode::GroupBy, "'{arg}' must not change the mode");
        }
        assert_eq!(
            bad_setting(".mode", "auto", MODE_VALUES, "mode groupby"),
            ".mode: unknown argument 'auto' (expected \
             direct|groupby|both); keeping mode groupby"
        );
        // A valid argument still switches.
        assert!(sh.command(".mode both"));
        assert!(sh.mode == Mode::Both);
    }

    #[test]
    fn mode_names_round_trip_through_parse() {
        for m in [Mode::Direct, Mode::GroupBy, Mode::Both] {
            assert!(Mode::parse(m.name()) == Some(m));
        }
    }
}

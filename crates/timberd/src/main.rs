//! The `timberd` binary: bind a store, listen, serve forever.
//!
//! ```text
//! timberd --mem --listen 127.0.0.1:7345
//! timberd --store db.pages --create --listen 127.0.0.1:7345
//! timberd --store db.pages --listen 127.0.0.1:7345        # reopen + recover
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::Arc;
use timber::TimberDb;
use timberd::Server;
use xmlstore::StoreOptions;

struct Args {
    listen: String,
    store: Option<String>,
    create: bool,
    mem: bool,
    pool_pages: Option<usize>,
}

const USAGE: &str =
    "usage: timberd [--listen ADDR] (--mem | --store FILE [--create]) [--pool-pages N]";

/// Parse the command line (without the program name).
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7345".to_owned(),
        store: None,
        create: false,
        mem: false,
        pool_pages: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => args.listen = it.next().ok_or("--listen needs an address")?,
            "--store" => args.store = Some(it.next().ok_or("--store needs a path")?),
            "--create" => args.create = true,
            "--mem" => args.mem = true,
            "--pool-pages" => {
                let n = it.next().ok_or("--pool-pages needs a count")?;
                args.pool_pages = Some(n.parse().map_err(|_| "--pool-pages needs a number")?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if args.mem == args.store.is_some() {
        return Err(format!("pass exactly one of --mem or --store\n{USAGE}"));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut opts = StoreOptions::in_memory();
    if let Some(n) = args.pool_pages {
        opts = opts.with_pool_pages(n);
    }
    let db = match &args.store {
        None => TimberDb::create(&opts),
        Some(path) => {
            let opts = opts.with_path(path).with_durable();
            if args.create {
                TimberDb::create(&opts)
            } else {
                TimberDb::open(&opts)
            }
        }
    };
    let db = match db {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cannot open store: {e}");
            std::process::exit(1);
        }
    };
    if let Some(info) = db.recovery_info() {
        eprintln!(
            "recovery: {} committed transactions, {} losers rolled back",
            info.committed, info.losers
        );
    }
    let server = match Server::bind(&args.listen, Arc::new(db)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.listen);
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("timberd listening on {addr}"),
        Err(e) => eprintln!("timberd listening (local_addr: {e})"),
    }
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn threads_is_an_unknown_argument() {
        // Queries run on the calling thread; there is no thread count to
        // set. Nor is there a content value index to build.
        assert!(parse(&["--mem", "--pool-pages", "64"]).is_ok());
        for flag in ["--threads", "--value-index"] {
            let err = parse(&["--mem", flag, "4"]).err().unwrap();
            assert!(
                err.starts_with(&format!("unknown argument '{flag}'")),
                "{err}"
            );
        }
    }
}

//! The `timberd` binary: bind a store, listen, serve forever.
//!
//! ```text
//! timberd --mem --listen 127.0.0.1:7345
//! timberd --store db.pages --create --listen 127.0.0.1:7345
//! timberd --store db.pages --listen 127.0.0.1:7345        # reopen + recover
//! ```

#![forbid(unsafe_code)]

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
    threads: usize,
    value_index: bool,
}

const USAGE: &str = "usage: timberd [--listen ADDR] (--mem | --store FILE [--create]) \
     [--pool-pages N] [--threads N] [--value-index]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7345".to_owned(),
        store: None,
        create: false,
        mem: false,
        pool_pages: None,
        threads: 1,
        value_index: false,
    };
    let mut it = std::env::args().skip(1);
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
            "--threads" => {
                let n = it.next().ok_or("--threads needs a count")?;
                args.threads = n.parse().map_err(|_| "--threads needs a number")?;
            }
            "--value-index" => args.value_index = true,
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
    let args = match parse_args() {
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
    if args.value_index {
        opts = opts.with_value_index();
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
    let mut db = match db {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cannot open store: {e}");
            std::process::exit(1);
        }
    };
    db.set_threads(args.threads);
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

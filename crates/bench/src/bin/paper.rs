//! Regenerates individual paper tables/figures (or all of them) by name.
//!
//! Replaces the old one-binary-per-figure stubs: every catalog entry is
//! reachable as `paper <name>`, several names run in the order given, and
//! `paper all` (or no argument) regenerates the whole suite in paper
//! order. See EXPERIMENTS.md for paper-vs-measured records.
//!
//! ```text
//! paper table2 fig9      # just those two
//! paper generate         # the decode-engine experiment
//! paper --list           # catalog names
//! paper                  # everything, paper order
//! ```
//!
//! For retries, journaling, fault injection, and metrics export, use
//! `all_experiments` — this binary runs the experiment functions directly.

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let catalog = tender_bench::runner::catalog();

    if args.iter().any(|a| a == "--list") {
        for spec in &catalog {
            println!("{}", spec.name);
        }
        return;
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: paper [--list] [<name>...]   (no names = all, paper order)");
        std::process::exit(2);
    }

    let names: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        catalog.iter().map(|s| s.name).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };

    for name in names {
        let Some(spec) = catalog.iter().find(|s| s.name == name) else {
            eprintln!("error: no experiment named '{name}'; try --list");
            std::process::exit(2);
        };
        for table in (spec.run)() {
            table.print();
        }
    }
}

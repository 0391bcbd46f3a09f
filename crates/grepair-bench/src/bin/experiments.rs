//! Regenerate the reconstructed evaluation tables/figures.
//!
//! ```text
//! cargo run -p grepair-bench --release --bin experiments -- all
//! cargo run -p grepair-bench --release --bin experiments -- f3 --quick
//! cargo run -p grepair-bench --release --bin experiments -- f1 f7 --csv
//! ```
//!
//! Ids: `t1 t2 f1 f2 f3 f4 f5 f6 f7` or `all`. `--quick` shrinks
//! workloads to seconds-scale; `--csv` additionally prints CSV blocks.

use grepair_eval::{run, Profile};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let ids = if ids.is_empty() { vec!["all"] } else { ids };

    let profile = if quick {
        Profile::quick()
    } else {
        Profile::standard()
    };
    eprintln!(
        "profile: {} (kg sizes {:?})",
        if quick { "quick" } else { "standard" },
        profile.kg_sizes
    );

    let mut any = false;
    for id in ids {
        for table in run(id, &profile) {
            any = true;
            println!("{table}");
            if csv {
                println!("--- csv ({}) ---\n{}", table.id, table.to_csv());
            }
        }
    }
    if !any {
        eprintln!("no experiment matched; ids: t1 t2 f1 f2 f3 f4 f5 f6 f7 all");
        std::process::exit(2);
    }
}

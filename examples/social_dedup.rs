//! Social-network deduplication: clean a born-dirty follower graph with
//! redundancy-centric rules (merge duplicate accounts, purge flagged
//! bots, backfill display names).
//!
//! ```text
//! cargo run --release --example social_dedup
//! ```

use grepair_core::RepairEngine;
use grepair_gen::{generate_social, social_rules, SocialConfig};
use grepair_graph::GraphStats;

fn main() {
    let cfg = SocialConfig {
        accounts: 3_000,
        duplicate_fraction: 0.08,
        ..SocialConfig::default()
    };
    let (mut g, _) = generate_social(&cfg);
    println!("dirty social graph: {}", GraphStats::compute(&g));

    let handle_k = g.try_attr_key("handle").unwrap();
    let dup_handles_before = g
        .nodes()
        .filter(|&n| {
            g.attr(n, handle_k)
                .map(|h| g.count_nodes_with_attr(handle_k, h) > 1)
                .unwrap_or(false)
        })
        .count();
    println!("accounts sharing a handle: {dup_handles_before}");

    let rules = social_rules();
    let report = RepairEngine::default().repair(&mut g, &rules.rules);
    println!(
        "\nrepaired with {} operations in {:?} (converged: {})",
        report.repairs_applied, report.wall, report.converged
    );
    for s in &report.per_rule {
        println!(
            "  {:<25} matches {:>4}  repairs {:>4}",
            s.name, s.matches_found, s.repairs_applied
        );
    }

    let dup_handles_after = g
        .nodes()
        .filter(|&n| {
            g.attr(n, handle_k)
                .map(|h| g.count_nodes_with_attr(handle_k, h) > 1)
                .unwrap_or(false)
        })
        .count();
    println!("\nclean social graph: {}", GraphStats::compute(&g));
    println!("accounts sharing a handle: {dup_handles_after}");
    assert_eq!(dup_handles_after, 0);
    assert!(report.converged);
}

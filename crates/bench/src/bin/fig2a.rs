//! Regenerate Figure 2a: the backup-switchover sequence trace.
//!
//! ```text
//! cargo run --release -p smapp-bench --bin fig2a [seed]
//! ```
//!
//! Prints `path<tab>seconds<tab>relative_bytes` rows (path `master` or
//! `backup`) — the series plotted in the paper — plus a summary block.

use smapp_bench::scenarios::fig2a::{Fig2a, Params};
use smapp_bench::scenarios::Scenario;

use smapp_bench::count_alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    eprintln!("# fig2a: two 5 Mb/s paths, 30% loss on primary from t=1s,");
    eprintln!("#        smart-backup controller with RTO threshold 1s, seed {seed}");
    let r = Fig2a::run(&Params::default(), seed).results;

    println!("# series: master/backup (seconds, relative data sequence bytes)");
    for (t, seq, path) in &r.rows {
        let label = if *path == 0 { "master" } else { "backup" };
        println!("{label}\t{t:.4}\t{seq}");
    }
    println!("#");
    match r.switch_at {
        Some(t) => println!("# switchover_at_s\t{t:.3}"),
        None => println!("# switchover_at_s\tnever"),
    }
    println!("# delivered_bytes\t{}", r.delivered);
    match r.completed_at {
        Some(t) => println!("# completed_at_s\t{t:.3}"),
        None => println!("# completed_at_s\tnot finished"),
    }
    println!("# paper: transfer starts on the master subflow; when the backed-off");
    println!("# paper: RTO exceeds 1s the controller kills it and continues on the backup.");
}

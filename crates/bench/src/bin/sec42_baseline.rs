//! Regenerate the §4.2 baseline narrative: without SMAPP, a dead primary
//! path takes ~15 RTO doublings (~12–13 minutes with Linux defaults)
//! before Multipath TCP falls back to the backup-flagged subflow.
//!
//! ```text
//! cargo run --release -p smapp-bench --bin sec42_baseline [--quick]
//! ```

use smapp_bench::scenarios::sec42::{Params, Sec42};
use smapp_bench::scenarios::Scenario;

use smapp_bench::count_alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let params = Params {
        max_retries: if quick { 6 } else { 15 },
        ..Default::default()
    };
    eprintln!("# sec42 baseline: backup-flag semantics, primary blackholed at t=1s,");
    eprintln!(
        "#               give-up after {} doublings",
        params.max_retries
    );
    let r = Sec42::run(&params, 11).results;
    match r.switch_at {
        Some(t) => {
            println!("switch_to_backup_s\t{t:.1}");
            println!("switch_to_backup_min\t{:.2}", t / 60.0);
        }
        None => println!("switch_to_backup_s\tnever"),
    }
    println!("delivered_bytes\t{}", r.delivered);
    match r.completed_at {
        Some(t) => println!("completed_at_s\t{t:.1}"),
        None => println!("completed_at_s\tnot finished"),
    }
    eprintln!("# paper: \"after 12 minutes in our experiment with the default");
    eprintln!("# paper:  Linux configuration, TCP eventually terminates the subflow\"");
}

//! Regenerate Figure 2b: CDF of 64 KB block delivery delays.
//!
//! ```text
//! cargo run --release -p smapp-bench --bin fig2b [--quick]
//! ```
//!
//! Emits one CDF series per configuration: the smart-stream controller at
//! 30% loss (the paper notes 10–40% gives "almost the same CDF", which we
//! also emit), and the default full-mesh path manager at 10/20/30/40%
//! loss — the four curves of the figure.

use smapp_bench::scenarios::fig2b::{Fig2b, Manager, Params};
use smapp_bench::scenarios::Scenario;
use smapp_bench::Cdf;

use smapp_bench::count_alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, blocks) = if quick { (2, 20) } else { (6, 40) };
    eprintln!("# fig2b: 2 x 5 Mb/s paths, 10 ms delay, one 64 KB block per second");
    eprintln!("#        {runs} runs x {blocks} blocks per configuration");

    // Smart stream under each loss ratio (paper: curves nearly overlap),
    // then the default full-mesh baseline under each.
    for (manager, name) in [
        (Manager::SmartStream, "smart"),
        (Manager::FullMesh, "fullmesh"),
    ] {
        for loss in [0.10, 0.20, 0.30, 0.40] {
            let p = Params {
                blocks,
                loss,
                manager,
            };
            let delays = (1..=runs).flat_map(|seed| Fig2b::run(&p, seed).results);
            let cdf = Cdf::new(delays.collect());
            let label = format!("{name}-{:.0}pct", loss * 100.0);
            cdf.print_series(&label, "block completion time s", 60);
            eprintln!("# {}", cdf.summary(&label));
        }
    }
    eprintln!("# paper: the smart controller keeps the CDF nearly identical across");
    eprintln!("# paper: 10-40% loss, while the default manager grows a long tail.");
}

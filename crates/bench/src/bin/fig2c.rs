//! Regenerate Figure 2c: CDF of 100 MB completion times over the 4-path
//! ECMP fabric — `Refresh` vs in-kernel `Ndiffports`.
//!
//! ```text
//! cargo run --release -p smapp-bench --bin fig2c [--quick]
//! ```

use smapp_bench::scenarios::fig2c::{Fig2c, Manager, Params};
use smapp_bench::scenarios::Scenario;
use smapp_bench::Cdf;

use smapp_bench::count_alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, transfer) = if quick {
        (8, 20_000_000)
    } else {
        (30, 100_000_000)
    };
    eprintln!("# fig2c: 4 ECMP paths x 8 Mb/s (10/20/30/40 ms), 5 subflows,");
    eprintln!(
        "#        {} MB transfer, {runs} runs per manager",
        transfer / 1_000_000
    );

    // The third series is an ablation: ndiffports logic in userspace —
    // isolating "crossing the netlink boundary" from "the refresh policy".
    for (manager, label) in [
        (Manager::Refresh, "refresh"),
        (Manager::Ndiffports, "ndiffports"),
        (Manager::NdiffportsUser, "ndiffports-user"),
    ] {
        let p = Params {
            transfer,
            n: 5,
            manager,
        };
        let mut times = Vec::new();
        let mut paths_used = [0u64; 4];
        for seed in 100..100 + runs {
            let run = Fig2c::run(&p, seed);
            times.push(run.summary.ended_at.as_secs_f64());
            paths_used[run.results.paths_used.clamp(1, 4) - 1] += 1;
        }
        let completion = Cdf::new(times);
        completion.print_series(label, "completion time s", 60);
        eprintln!("# {}", completion.summary(label));
        eprintln!("# {label} runs by distinct paths used (1/2/3/4): {paths_used:?}");
    }
    eprintln!("# paper: ndiffports clusters at ~28s/37s/55s (4/3/2 paths);");
    eprintln!("# paper: refresh concentrates near the 4-path optimum (27.8s floor).");
}

//! Regenerate Figure 3: CDF of the delay between the `MP_CAPABLE` SYN and
//! the `MP_JOIN` SYN — kernel vs userspace path manager.
//!
//! ```text
//! cargo run --release -p smapp-bench --bin fig3 [--quick] [--stressed]
//! ```

use smapp_bench::scenarios::fig3::{Fig3, Manager, Params};
use smapp_bench::scenarios::Scenario;

use smapp_bench::count_alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let stressed = std::env::args().any(|a| a == "--stressed");
    let gets = if quick { 200 } else { 1000 };
    eprintln!("# fig3: {gets} consecutive 512 KB GETs over a 1 Gb/s lab link;");
    eprintln!("#       delay between SYN(MP_CAPABLE) and SYN(MP_JOIN), microseconds");

    let series = |manager, stressed| {
        let params = Params {
            gets,
            manager,
            stressed,
            ..Default::default()
        };
        Fig3::run(&params, 7).results.deltas
    };
    let kernel = series(Manager::Kernel, false);
    kernel.print_series("kernel", "us", 80);
    eprintln!("# {}", kernel.summary("kernel"));

    let user = series(Manager::Userspace, stressed);
    let label = if stressed {
        "userspace-stressed"
    } else {
        "userspace"
    };
    user.print_series(label, "us", 80);
    eprintln!("# {}", user.summary(label));

    let penalty = user.mean() - kernel.mean();
    println!("# mean_userspace_penalty_us\t{penalty:.1}");
    eprintln!("# paper: +23 us mean on an idle host, < 37 us under CPU stress.");
}

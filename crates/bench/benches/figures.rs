//! Criterion macro-benchmarks: one group per paper artifact, at reduced
//! scale so `cargo bench` terminates quickly. These measure the wall-clock
//! cost of regenerating each figure (simulation throughput), not the
//! simulated results themselves — those are printed by the `fig*` binaries
//! and recorded in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use smapp_bench::scenarios::fig2a::{self, Fig2a};
use smapp_bench::scenarios::fig2b::{self, Fig2b};
use smapp_bench::scenarios::fig2c::{self, Fig2c};
use smapp_bench::scenarios::fig3::{self, Fig3};
use smapp_bench::scenarios::sec42::{self, Sec42};
use smapp_bench::scenarios::Scenario;

/// Time `S` under `params` as `<S::NAME>/<name>`, a fresh seed (counting
/// up from `seed0 + 1`) per iteration.
fn bench<S: Scenario>(c: &mut Criterion, name: &str, seed0: u64, params: S::Params) {
    let mut g = c.benchmark_group(S::NAME);
    g.sample_size(10);
    g.bench_function(name, |b| {
        let mut seed = seed0;
        b.iter(|| {
            seed += 1;
            S::run(&params, seed)
        })
    });
    g.finish();
}

fn bench_fig2a(c: &mut Criterion) {
    let params = fig2a::Params {
        transfer: 1_000_000,
        ..Default::default()
    };
    bench::<Fig2a>(c, "backup_switchover_1mb", 0, params);
}

fn bench_fig2b(c: &mut Criterion) {
    for (manager, name) in [
        (fig2b::Manager::SmartStream, "smart_stream_10_blocks"),
        (fig2b::Manager::FullMesh, "fullmesh_10_blocks"),
    ] {
        let params = fig2b::Params {
            blocks: 10,
            loss: 0.30,
            manager,
        };
        bench::<Fig2b>(c, name, 0, params);
    }
}

fn bench_fig2c(c: &mut Criterion) {
    for (manager, name) in [
        (fig2c::Manager::Refresh, "refresh_5mb"),
        (fig2c::Manager::Ndiffports, "ndiffports_5mb"),
    ] {
        let params = fig2c::Params {
            transfer: 5_000_000,
            manager,
            ..Default::default()
        };
        bench::<Fig2c>(c, name, 1000, params);
    }
}

fn bench_fig3(c: &mut Criterion) {
    for (manager, name) in [
        (fig3::Manager::Kernel, "kernel_20_gets"),
        (fig3::Manager::Userspace, "userspace_20_gets"),
    ] {
        let params = fig3::Params {
            gets: 20,
            response: 128 * 1024,
            manager,
            ..Default::default()
        };
        bench::<Fig3>(c, name, 0, params);
    }
}

fn bench_sec42(c: &mut Criterion) {
    let params = sec42::Params {
        max_retries: 6,
        transfer: 1_000_000,
        ..Default::default()
    };
    bench::<Sec42>(c, "baseline_6_retries", 0, params);
}

criterion_group!(
    figures,
    bench_fig2a,
    bench_fig2b,
    bench_fig2c,
    bench_fig3,
    bench_sec42
);
criterion_main!(figures);

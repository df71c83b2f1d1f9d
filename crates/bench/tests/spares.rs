//! Every spare comes back.
//!
//! Every smoke-matrix cell runs on one thread, one after another. Once a
//! cell's world has dropped, the thread's store (`smapp_sim::spare`) must
//! have every kind of storage back on hand, emptied: a kind still out is
//! storage an owner freed or kept instead of giving back, and a spare that
//! holds an element is a reset that forgot a field. The matrix must reach
//! every kind, so the check covers every reset.

use smapp_bench::scenarios::REGISTRY;
use smapp_sim::spare;

/// Kinds (storage type and key) the smoke matrix takes from the store: the
/// simulator's core and its node, script and dynamics lists; the oracle's
/// ledger and key table; the router's table and cache; the host's
/// crossing table and sockdiag log; the stack node's subscribed events
/// and connect queue; the verifier's endpoint index; the controller
/// runtime's kept reply and query table; the refresh controller's tables
/// and log; the stack's tables; connection, subflow and retired storage
/// for each of the two roles; completion logs.
const KINDS: usize = 24;

#[test]
fn every_spare_comes_back_emptied_after_each_smoke_cell() {
    std::thread::spawn(|| {
        let mut cells = 0;
        for scenario in REGISTRY {
            for entry in (scenario.entries)(true) {
                for &seed in &entry.seeds {
                    (entry.build)(seed);
                    cells += 1;
                    for s in spare::stock() {
                        let cell = format!("{}/{} seed {seed}", entry.scenario, entry.variant);
                        assert_eq!(
                            s.out, 0,
                            "{cell}: {} (key {}) not given back",
                            s.kind, s.key
                        );
                        assert_eq!(
                            s.holding, 0,
                            "{cell}: {} (key {}) not emptied",
                            s.kind, s.key
                        );
                    }
                }
            }
        }
        assert!(cells > 0);
        let kinds = spare::stock();
        assert_eq!(
            kinds.len(),
            KINDS,
            "the kinds the matrix reached: {kinds:#?}"
        );
    })
    .join()
    .unwrap();
}

//! Canned topologies for experiments and tests.
//!
//! These mirror the Mininet setups of the paper:
//!
//! * [`two_path`] — a dual-homed client, a router, and a server: the §4.2
//!   backup and §4.3 streaming experiments.
//! * [`ecmp`] — client and server attached to two routers joined by N
//!   parallel ECMP-balanced paths: the §4.4 experiment.
//! * [`firewalled`] — client behind a stateful firewall: the §4.1
//!   long-lived-connection scenario.

use smapp_sim::{
    Addr, AddrPrefix, DenyPolicy, Firewall, IfaceId, LinkCfg, LinkId, NodeId, Router, Simulator,
};

use crate::host::Host;

/// Client address on path 1.
pub const CLIENT_ADDR1: Addr = Addr::new(10, 0, 1, 1);
/// Client address on path 2.
pub const CLIENT_ADDR2: Addr = Addr::new(10, 0, 2, 1);
/// Server address.
pub const SERVER_ADDR: Addr = Addr::new(10, 0, 9, 1);

/// Handles into a built two-path network.
pub struct TwoPathNet {
    /// The simulator, ready to run.
    pub sim: Simulator,
    /// Client node id.
    pub client: NodeId,
    /// Server node id.
    pub server: NodeId,
    /// Router node id.
    pub router: NodeId,
    /// Link client-iface1 ↔ router.
    pub link1: LinkId,
    /// Link client-iface2 ↔ router.
    pub link2: LinkId,
    /// Link router ↔ server.
    pub fat: LinkId,
    /// Client interface on path 1.
    pub client_if1: IfaceId,
    /// Client interface on path 2.
    pub client_if2: IfaceId,
}

/// Build: client(2 ifaces) —link1/link2→ router —fat→ server.
///
/// `fat` defaults to a high-capacity low-delay link so the interesting
/// dynamics stay on the two access paths.
pub fn two_path(seed: u64, client: Host, server: Host, cfg1: LinkCfg, cfg2: LinkCfg) -> TwoPathNet {
    let mut sim = Simulator::new(seed);
    let client_id = sim.add_node(Box::new(client));
    let server_id = sim.add_node(Box::new(server));
    let router_id = sim.add_node(Box::new(Router::new(1)));

    let c_if1 = sim.add_iface(client_id, CLIENT_ADDR1, "wlan0");
    let c_if2 = sim.add_iface(client_id, CLIENT_ADDR2, "lte0");
    let s_if = sim.add_iface(server_id, SERVER_ADDR, "eth0");
    let r_if1 = sim.add_iface(router_id, Addr::new(10, 0, 1, 254), "r1");
    let r_if2 = sim.add_iface(router_id, Addr::new(10, 0, 2, 254), "r2");
    let r_if9 = sim.add_iface(router_id, Addr::new(10, 0, 9, 254), "r9");

    {
        let router = sim
            .node_mut(router_id)
            .as_any_mut()
            .downcast_mut::<Router>()
            .unwrap();
        router.add_route("10.0.1.0/24".parse().unwrap(), vec![r_if1]);
        router.add_route("10.0.2.0/24".parse().unwrap(), vec![r_if2]);
        router.add_route("10.0.9.0/24".parse().unwrap(), vec![r_if9]);
    }

    let link1 = sim.connect(c_if1, r_if1, cfg1);
    let link2 = sim.connect(c_if2, r_if2, cfg2);
    let fat = sim.connect(r_if9, s_if, LinkCfg::mbps_ms(1000, 1));

    TwoPathNet {
        sim,
        client: client_id,
        server: server_id,
        router: router_id,
        link1,
        link2,
        fat,
        client_if1: c_if1,
        client_if2: c_if2,
    }
}

/// Handles into a built ECMP network.
pub struct EcmpNet {
    /// The simulator, ready to run.
    pub sim: Simulator,
    /// Client node id.
    pub client: NodeId,
    /// Server node id.
    pub server: NodeId,
    /// The N parallel path links (between the two routers).
    pub paths: Vec<LinkId>,
}

/// Build: client —access→ R1 ═N parallel links═ R2 —access→ server.
///
/// Both routers hash the 5-tuple over the N paths (different salts, like
/// independent hardware). `path_cfgs` gives each parallel link's config —
/// the §4.4 experiment uses four 8 Mb/s links with 10/20/30/40 ms delay.
pub fn ecmp(seed: u64, client: Host, server: Host, path_cfgs: &[LinkCfg]) -> EcmpNet {
    assert!(!path_cfgs.is_empty());
    let mut sim = Simulator::new(seed);
    let client_id = sim.add_node(Box::new(client));
    let server_id = sim.add_node(Box::new(server));
    let r1_id = sim.add_node(Box::new(Router::new(11)));
    let r2_id = sim.add_node(Box::new(Router::new(22)));

    let c_if = sim.add_iface(client_id, CLIENT_ADDR1, "eth0");
    let s_if = sim.add_iface(server_id, SERVER_ADDR, "eth0");
    let r1_c = sim.add_iface(r1_id, Addr::new(10, 0, 1, 254), "toC");
    let r2_s = sim.add_iface(r2_id, Addr::new(10, 0, 9, 254), "toS");

    let access = LinkCfg::mbps_ms(1000, 1);
    sim.connect(c_if, r1_c, access.clone());
    let _ = sim.connect(r2_s, s_if, access);

    let mut paths = Vec::new();
    let mut r1_ups = Vec::new();
    let mut r2_ups = Vec::new();
    for (i, cfg) in path_cfgs.iter().enumerate() {
        let a = sim.add_iface(r1_id, Addr::new(10, 1, i as u8, 1), "up");
        let b = sim.add_iface(r2_id, Addr::new(10, 1, i as u8, 2), "down");
        paths.push(sim.connect(a, b, cfg.clone()));
        r1_ups.push(a);
        r2_ups.push(b);
    }

    {
        let r1 = sim
            .node_mut(r1_id)
            .as_any_mut()
            .downcast_mut::<Router>()
            .unwrap();
        r1.add_route("10.0.9.0/24".parse::<AddrPrefix>().unwrap(), r1_ups);
        r1.add_route("10.0.1.0/24".parse().unwrap(), vec![r1_c]);
    }
    {
        let r2 = sim
            .node_mut(r2_id)
            .as_any_mut()
            .downcast_mut::<Router>()
            .unwrap();
        r2.add_route("10.0.1.0/24".parse::<AddrPrefix>().unwrap(), r2_ups);
        r2.add_route("10.0.9.0/24".parse().unwrap(), vec![r2_s]);
    }

    EcmpNet {
        sim,
        client: client_id,
        server: server_id,
        paths,
    }
}

/// Handles into a built firewalled network.
pub struct FirewalledNet {
    /// The simulator, ready to run.
    pub sim: Simulator,
    /// Client node id.
    pub client: NodeId,
    /// Server node id.
    pub server: NodeId,
    /// Firewall node id (downcast to [`Firewall`] to flush state etc.).
    pub firewall: NodeId,
}

/// Build: client —l1→ firewall —l2→ server, with the given idle timeout.
/// `nat` selects NAPT mode (source address/port translation) instead of a
/// plain stateful filter.
pub fn firewalled(
    seed: u64,
    client: Host,
    server: Host,
    idle_timeout: std::time::Duration,
    policy: DenyPolicy,
    nat: bool,
    link: LinkCfg,
) -> FirewalledNet {
    let mut sim = Simulator::new(seed);
    let client_id = sim.add_node(Box::new(client));
    let server_id = sim.add_node(Box::new(server));
    let fw = if nat {
        Firewall::nat(idle_timeout, policy)
    } else {
        Firewall::new(idle_timeout, policy)
    };
    let fw_id = sim.add_node(Box::new(fw));

    let c_if = sim.add_iface(client_id, CLIENT_ADDR1, "eth0");
    let s_if = sim.add_iface(server_id, SERVER_ADDR, "eth0");
    let f_in = sim.add_iface(fw_id, Addr::new(10, 0, 1, 254), "inside");
    let f_out = sim.add_iface(fw_id, Addr::new(10, 0, 9, 254), "outside");

    sim.connect(c_if, f_in, link.clone());
    sim.connect(f_out, s_if, link);

    sim.node_mut(fw_id)
        .as_any_mut()
        .downcast_mut::<Firewall>()
        .unwrap()
        .bind(f_in, f_out);

    FirewalledNet {
        sim,
        client: client_id,
        server: server_id,
        firewall: fw_id,
    }
}

/// Convenience: borrow a node as a [`Host`].
pub fn host(sim: &Simulator, id: NodeId) -> &Host {
    sim.node_as(id).expect("node is a Host")
}

/// Convenience: mutably borrow a node as a [`Host`].
pub fn host_mut(sim: &mut Simulator, id: NodeId) -> &mut Host {
    sim.node_mut(id)
        .as_any_mut()
        .downcast_mut::<Host>()
        .expect("node is a Host")
}

//! Extension study (the paper's §VII outlook): CA-GMRES vs GMRES when the
//! GPUs are "distributed over multiple compute nodes, where the
//! communication is more expensive".
//!
//! Devices off node 0 pay an extra network hop (25 us latency, ~4.5 GB/s)
//! per host message. Expectation: the CA speedup *grows* with node count —
//! message aggregation is worth more when messages cost more — and grows
//! further when the network latency is scaled up.

use ca_bench::{g3_circuit, table, Problem, Study};
use ca_gmres::mpk::fastest_kernel;
use ca_gmres::prelude::*;
use ca_gpusim::{KernelConfig, MultiGpu, PerfModel};

ca_bench::row!(Row {
    gpus: usize ["GPUs"],
    nodes: usize ["nodes"],
    net_latency_us: f64 ["net lat (us)" "{:.0}"],
    gmres_ms_per_res: f64 ["GMRES ms/res" "{:.3}"],
    ca_ms_per_res: f64 ["CA ms/res" "{:.3}"],
    speedup: f64 ["speedup" "{:.2}"],
});

fn main() {
    let study = Study::new("ext_multinode", &["--large"]);
    let t = g3_circuit(study.scale);
    let mut rows: Vec<Row> = Vec::new();

    // (gpus, nodes): gpus striped round-robin over nodes
    for (gpus, nodes) in [(3usize, 1usize), (6, 2), (6, 1), (9, 3), (12, 4)] {
        let p = Problem::new(&t.a, Ordering::Kway, gpus);
        for lat_scale in [1.0f64, 4.0] {
            let mut model = PerfModel::default();
            model.net_latency_s *= lat_scale;
            let topo: Vec<usize> = (0..gpus).map(|d| d % nodes).collect();
            let machine =
                || MultiGpu::with_topology(topo.clone(), model.clone(), KernelConfig::default());

            let mut mg = machine();
            let sys = p.load(&mut mg, t.m, None);
            let gmres_cfg =
                GmresConfig { m: t.m, orth: BorthKind::Cgs, rtol: 0.0, max_restarts: 3 };
            let g = gmres(&mut mg, &sys, &gmres_cfg);

            let mut mg = machine();
            let sys = p.load(&mut mg, t.m, Some(10));
            let cfg = CaGmresConfig {
                s: 10,
                m: t.m,
                kernel: fastest_kernel(&mg, &p.a, &p.layout, 10),
                rtol: 0.0,
                max_restarts: 4,
                ..Default::default()
            };
            mg.reset_time(); // as `Problem::ca_gmres` times it
            let c = ca_gmres(&mut mg, &sys, &cfg);

            let g_ms = g.stats.total_per_restart_ms();
            let c_ms = c.ca_stats.total_per_restart_ms();
            rows.push(Row {
                gpus,
                nodes,
                net_latency_us: 25.0 * lat_scale,
                gmres_ms_per_res: g_ms,
                ca_ms_per_res: c_ms,
                speedup: g_ms / c_ms,
            });
        }
    }

    println!("Extension — multi-node GPUs (G3_circuit analog, CA-GMRES(10, {}))\n", t.m);
    println!("{}", table(&rows));
    study.write_json(&rows);
}

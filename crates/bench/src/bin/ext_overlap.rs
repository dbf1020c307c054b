//! Extension study: compute–transfer overlap from the stream/event
//! executor (the paper's Fig. 14 mechanism reproduced from first
//! principles).
//!
//! The same CA-GMRES(s, m) run executes under both schedules: `Barrier`
//! (every phase boundary flattens all clocks — the fully synchronous
//! model) and `EventDriven` (`sync()` is a no-op; queue order, per-link
//! copy engines and events order the timeline). The event-driven schedule
//! is what opens the async halo prefetch — no solver option asks for it:
//! CAQR finalizes the next block's start vector first (last column of the
//! `V·Q` update, charged as one tall-skinny GEMV), the next MPK halo
//! exchange is issued that instant, and the remaining `s` columns of the
//! update execute while the halo is in flight. Arithmetic is issued
//! eagerly in program order under both policies, so iterates, residual
//! histories and communication counters are bit-identical — every saved
//! microsecond is pure scheduling. The run asserts that bit-identity.
//!
//! Expectation (asserted): event-driven is strictly faster everywhere,
//! and the overlap win *per halo exchange* grows superlinearly with s —
//! larger blocks mean more communication-free flops per exchange (the
//! update window grows as `rows·s²` while the exchange chain grows
//! linearly in s). At near-paper sizes (the appended `nlpkkt120` 44³ run;
//! or `--large` for the whole suite) the *total* hidden time per solve
//! turns around and grows with s once the quadratic window dominates the
//! per-exchange constants (s ≳ 6). The end-to-end speedup ratio instead
//! *narrows* with s: the total communication left to hide per cycle is
//! `(m/s)·chain(s)`, which communication avoidance itself makes a
//! decreasing function of s — the same collapse Fig. 8 shows for MPK
//! communication time. Overlap and avoidance are complementary, and the
//! study measures both sides of that trade.
//!
//! Flags: `--large` runs the whole suite at near-paper sizes;
//! `--matrix <name>` restricts to one suite entry; `--smoke` runs the
//! first suite entry alone (CI's run).

use ca_bench::{nlpkkt, table, Problem, Scale, Study, TestMatrix};
use ca_gmres::prelude::*;
use ca_gpusim::{MultiGpu, Schedule};

ca_bench::row!(Row {
    matrix: String ["matrix"],
    s: usize ["s"],
    t_sync_ms: f64 ["sync ms" "{:.3}"],
    t_event_ms: f64 ["event ms" "{:.3}"],
    hidden_ms: f64 ["hidden ms" "{:.3}"],
    speedup: f64 ["speedup" "{:.3}"],
    prefetches: u64 ["prefetch"],
    hidden_per_exchange_us: f64 ["us/exch" "{:.1}"],
});

struct Outcome {
    x_bits: Vec<u64>,
    relres_bits: u64,
    iters: usize,
    msgs: u64,
    bytes: u64,
    prefetches: u64,
    t_total: f64,
}

fn solve(p: &Problem, m: usize, s: usize, schedule: Schedule) -> Outcome {
    let mut mg = MultiGpu::with_defaults(3);
    mg.set_schedule(schedule);
    let cfg = CaGmresConfig {
        s,
        m,
        kernel: KernelMode::Mpk,
        orth: OrthConfig { tsqr: TsqrKind::Caqr, ..Default::default() },
        rtol: 0.0,
        max_restarts: 4,
        ..Default::default()
    };
    let sys = p.load(&mut mg, m, Some(s));
    let out = ca_gmres(&mut mg, &sys, &cfg);
    let x = sys.download_x(&mut mg).unwrap();
    Outcome {
        x_bits: x.iter().map(|v| v.to_bits()).collect(),
        relres_bits: out.stats.final_relres.to_bits(),
        iters: out.stats.total_iters,
        msgs: out.stats.comm_msgs,
        bytes: out.stats.comm_bytes,
        prefetches: out.stats.prefetches,
        t_total: out.stats.t_total,
    }
}

fn sweep(t: &TestMatrix, label: &str, rows: &mut Vec<Row>) {
    let p = Problem::new(&t.a, Ordering::Kway, 3);
    for s in [2usize, 3, 4, 5, 6, 8, 10, 12, 15] {
        let sync = solve(&p, t.m, s, Schedule::Barrier);
        let event = solve(&p, t.m, s, Schedule::EventDriven);
        // zero change in numerical results: same iterates, same residual
        // history, same communication — scheduling only moves clocks
        assert_eq!(sync.x_bits, event.x_bits, "{label} s={s}: iterate bits differ");
        assert_eq!(sync.relres_bits, event.relres_bits, "{label} s={s}: residuals differ");
        assert_eq!(sync.iters, event.iters, "{label} s={s}: iteration path differs");
        assert_eq!(
            (sync.msgs, sync.bytes),
            (event.msgs, event.bytes),
            "{label} s={s}: counters differ"
        );
        // the prefetch is a scheduling decision, not a traffic change: the
        // barrier schedule never arms it, the event schedule always does
        assert_eq!(sync.prefetches, 0, "{label} s={s}: barrier schedule prefetched");
        assert!(event.prefetches > 0, "{label} s={s}: no prefetches issued");
        assert!(
            event.t_total < sync.t_total,
            "{label} s={s}: event-driven not faster ({} vs {})",
            event.t_total,
            sync.t_total
        );
        let hidden_ms = (sync.t_total - event.t_total) * 1e3;
        rows.push(Row {
            matrix: label.to_string(),
            s,
            t_sync_ms: sync.t_total * 1e3,
            t_event_ms: event.t_total * 1e3,
            hidden_ms,
            speedup: sync.t_total / event.t_total,
            prefetches: event.prefetches,
            hidden_per_exchange_us: hidden_ms * 1e3 / event.prefetches as f64,
        });
    }
}

fn main() {
    let study = Study::new("ext_overlap", &["--large", "--smoke", "--matrix <name>"]);
    let mut rows: Vec<Row> = Vec::new();
    for t in study.suite() {
        sweep(&t, t.name, &mut rows);
    }
    // one near-paper-size point rides along with the default run: at 44³
    // the quadratic overlap window dominates the per-exchange constants,
    // so the total hidden time grows with s (minimum near s = 6)
    if study.scale == Scale::Small && study.matrix.is_none() && !study.smoke {
        sweep(&nlpkkt(Scale::Large), "nlpkkt120 (44^3)", &mut rows);
    }

    println!("Extension — stream/event overlap: CA-GMRES(s, m), 3 GPUs, Barrier vs EventDriven");
    println!("(identical arithmetic asserted bitwise; the gap is pure scheduling)\n");
    println!("{}", table(&rows));

    // the mechanism's signature: the overlap win per halo exchange grows
    // strictly with s on every matrix (the CAQR update window is
    // O(rows·s²) against an O(s) exchange chain)
    for name in rows.iter().map(|r| r.matrix.clone()).collect::<std::collections::BTreeSet<_>>() {
        let m_rows: Vec<&Row> = rows.iter().filter(|r| r.matrix == name).collect();
        for w in m_rows.windows(2) {
            assert!(
                w[1].hidden_per_exchange_us > w[0].hidden_per_exchange_us,
                "{name}: overlap per exchange did not grow: {:.1}us (s={}) -> {:.1}us (s={})",
                w[0].hidden_per_exchange_us,
                w[0].s,
                w[1].hidden_per_exchange_us,
                w[1].s
            );
        }
        let (first, last) = (m_rows.first().unwrap(), m_rows.last().unwrap());
        println!(
            "{name}: hidden/exchange {:.1}us (s={}) -> {:.1}us (s={}), speedup {:.3} -> {:.3}",
            first.hidden_per_exchange_us,
            first.s,
            last.hidden_per_exchange_us,
            last.s,
            first.speedup,
            last.speedup
        );
    }
    study.write_json(&rows);
}

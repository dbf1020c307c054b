//! Ingest recorded [`crate::StreamTrace`]s into a `ca-obs` recording.
//!
//! [`obs_ingest_traces`] turns the per-device command queues drained by
//! [`MultiGpu::take_traces`](crate::MultiGpu::take_traces) into obs spans,
//! instants and kernel histograms on the device and link tracks; the
//! Perfetto / `chrome://tracing` rendering is `ca_obs::export::chrome_trace`
//! of the finished recording. A straggling device — a queue whose slices
//! are stretched by a fail-slow fault — is then visible at a glance.

use crate::stream::Cmd;
use ca_obs as obs;

/// Ingest drained per-device command traces into the active `ca-obs`
/// recording: kernels become named spans on the device's
/// [`obs::Track::Device`] timeline (plus `kernel.<name>.s` histograms and
/// `kernel.<name>.calls` counters), copies become spans on the
/// [`obs::Track::Link`] timeline with `copy.{h2d,d2h}.s` histograms, and
/// event records/waits become instants. No-op when no obs session is
/// active. Byte/message counters are *not* emitted here — the transfer
/// paths in [`MultiGpu`](crate::MultiGpu) count those live — so ingesting
/// a trace never double-counts.
///
/// Commands carry already-resolved simulated timestamps, so ingestion after
/// the run observes the exact timeline the run computed.
pub fn obs_ingest_traces(traces: &[Vec<Cmd>]) {
    if !obs::enabled() {
        return;
    }
    for (d, cmds) in traces.iter().enumerate() {
        let dev = obs::Track::Device(d as u32);
        let link = obs::Track::Link(d as u32);
        for cmd in cmds {
            match *cmd {
                Cmd::Kernel { name, start, dur, modeled } => {
                    obs::span(name, dev, start, start + dur);
                    obs::observe(&obs::names::kernel_seconds(name), dur);
                    obs::observe(&obs::names::kernel_modeled_seconds(name), modeled);
                    obs::counter_add(&obs::names::kernel_calls(name), 1);
                }
                Cmd::CopyToHost { bytes, start, finish } => {
                    obs::span(&format!("D2H {bytes} B"), link, start, finish);
                    obs::observe("copy.d2h.s", finish - start);
                }
                Cmd::CopyToDevice { bytes, start, finish } => {
                    obs::span(&format!("H2D {bytes} B"), link, start, finish);
                    obs::observe("copy.h2d.s", finish - start);
                }
                Cmd::EventRecord { event, at } => {
                    obs::instant(&format!("record e{}", event.index()), dev, at);
                }
                Cmd::WaitEvent { event, until } => {
                    obs::instant(&format!("wait e{}", event.index()), dev, until);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, MultiGpu};

    /// One traced two-device run, ingested and rendered by `ca-obs`.
    fn traced_run(plan: Option<FaultPlan>) -> (obs::Recording, String) {
        let mut mg = MultiGpu::with_defaults(2);
        if let Some(p) = plan {
            mg.set_fault_plan(p);
        }
        mg.enable_trace();
        let v0 = mg.device_mut(0).alloc_mat(20_000, 2).unwrap();
        let v1 = mg.device_mut(1).alloc_mat(20_000, 2).unwrap();
        mg.to_devices(&[640, 640]).unwrap();
        mg.run(|i, d| {
            let v = if i == 0 { v0 } else { v1 };
            d.dot_cols(v, 0, 1);
        });
        mg.to_host(&[64, 64]).unwrap();
        obs::start();
        obs_ingest_traces(&mg.take_traces());
        let rec = obs::finish();
        let json = obs::export::chrome_trace(&rec);
        (rec, json)
    }

    #[test]
    fn rendered_trace_names_every_track_and_copy() {
        let (_, json) = traced_run(None);
        for name in ["\"host\"", "gpu0 queue", "gpu1 queue", "gpu0 copy engine", "gpu1 copy engine"]
        {
            assert!(json.contains(name), "missing track {name}");
        }
        assert!(json.contains("\"dot\""), "kernel slices carry their name");
        assert!(json.contains("H2D 640 B"));
        assert!(json.contains("D2H 64 B"));
    }

    #[test]
    fn straggler_slices_stretch() {
        // the slowed device's kernel slices must be visibly longer
        let longest_dot = |rec: &obs::Recording| {
            rec.spans
                .iter()
                .filter(|s| s.name == "dot" && s.track == obs::Track::Device(1))
                .map(|s| s.t1 - s.t0)
                .fold(0.0, f64::max)
        };
        let (clean, _) = traced_run(None);
        let (slow, _) = traced_run(Some(FaultPlan::new(5).with_slowdown(1, 8.0, 0)));
        assert!(longest_dot(&slow) > 4.0 * longest_dot(&clean));
    }
}

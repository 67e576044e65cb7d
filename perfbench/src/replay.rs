//! Layer replay: time the codec, deframer and flow-table entry points on
//! the bytes, messages and probe frames a run captured, so the `layer.*`
//! rows price the run's own inputs rather than synthetic ones.

use crate::net::Capture;
use crate::stats::median;
use sav_dataplane::flow_table::FlowTable;
use sav_dataplane::matcher::MatchContext;
use sav_net::packet::ParsedPacket;
use sav_openflow::framing::Deframer;
use sav_openflow::messages::{FlowMod, Message};
use sav_sim::SimTime;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Replay passes run until both bounds are met.
const MIN_PASSES: usize = 5;
const MIN_TIME: Duration = Duration::from_millis(40);

pub struct LayerTimes {
    /// `Message::decode` per PACKET_IN message.
    pub packet_in_decode_ns: f64,
    /// `Message::encode` per FLOW_MOD message.
    pub flow_mod_encode_ns: f64,
    /// `Deframer::push` plus `next_message`, per message deframed.
    pub deframe_ns_per_msg: f64,
    /// `FlowTable::lookup` per probe, on the run's final table 0.
    pub flow_table_lookup_ns: f64,
}

/// Median over passes of the time per operation; each pass does `ops`.
fn per_op_ns(ops: usize, mut pass: impl FnMut()) -> f64 {
    if ops == 0 {
        return f64::NAN;
    }
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < MIN_PASSES || started.elapsed() < MIN_TIME {
        let t = Instant::now();
        pass();
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&samples)
}

/// A copy of `src` built through the public `FlowTable::add`, so lookups
/// can run without touching the live switch.
pub fn copy_table(src: &FlowTable) -> FlowTable {
    let mut t = FlowTable::new(src.len().max(1) * 2);
    for e in src.entries() {
        let fm = FlowMod {
            cookie: e.cookie,
            priority: e.priority,
            instructions: e.instructions.clone(),
            ..FlowMod::add(e.match_.clone())
        };
        t.add(&fm, SimTime::ZERO);
    }
    t
}

/// Replay `cap` against the codec, the deframer and `tables` (table 0 of
/// each switch at the end of the run).
pub fn replay(cap: &Capture, tables: &mut [FlowTable]) -> LayerTimes {
    let packet_in_decode_ns = per_op_ns(cap.packet_ins.len(), || {
        for b in &cap.packet_ins {
            black_box(Message::decode(black_box(b)).ok());
        }
    });
    let flow_mod_encode_ns = per_op_ns(cap.flow_mods.len(), || {
        for (m, xid) in &cap.flow_mods {
            black_box(black_box(m).encode(*xid));
        }
    });
    // One deframer per switch connection: a read chunk may end
    // mid-message, and an empty chunk starts the next connection.
    let deframe = || {
        let mut dfs = [Deframer::new(), Deframer::new()];
        let mut n = 0usize;
        for (sw, chunk) in &cap.chunks {
            let df = &mut dfs[*sw];
            if chunk.is_empty() {
                *df = Deframer::new();
                continue;
            }
            df.push(black_box(chunk)).expect("captured stream deframes");
            while let Ok(Some(m)) = df.next_message() {
                black_box(m);
                n += 1;
            }
        }
        n
    };
    let msgs = deframe();
    let deframe_ns_per_msg = per_op_ns(msgs, || {
        black_box(deframe());
    });
    let parsed: Vec<(usize, u32, ParsedPacket, usize)> = cap
        .probes
        .iter()
        .filter_map(|(sw, port, f)| Some((*sw, *port, ParsedPacket::parse(f).ok()?, f.len())))
        .collect();
    let flow_table_lookup_ns = per_op_ns(parsed.len(), || {
        for (sw, port, p, len) in &parsed {
            let ctx = MatchContext {
                in_port: *port,
                packet: p,
            };
            black_box(tables[*sw].lookup(&ctx, SimTime::ZERO, *len));
        }
    });
    LayerTimes {
        packet_in_decode_ns,
        flow_mod_encode_ns,
        deframe_ns_per_msg,
        flow_table_lookup_ns,
    }
}

//! The "purified" receiver-driven transport (§III-C), derived from NDP
//! (Handley et al., SIGCOMM'17):
//!
//! * senders push the first window at line rate (no probing);
//! * congested router queues **trim payloads** — headers always arrive, so
//!   the receiver has complete congestion information;
//! * trimmed headers and retransmissions travel in **priority queues**;
//! * the receiver **pulls** further packets, paced at its access-link
//!   rate, and — the FatPaths addition — requests a **layer change** when
//!   trims reveal congestion on the current layer (§V-F), providing the
//!   flowlet-elasticity that implements LetFlow adaptivity.
//!
//! Sharding note: handlers touch only the flow half that lives on the
//! executing shard — data arrivals the [`RxFlow`](crate::shard::RxFlow),
//! control arrivals the [`TxFlow`](crate::shard::TxFlow). The receiver
//! acks *every* data arrival (duplicates included) so the sender can
//! prove completion from its own ack bitmap without ever reading the
//! receiver's state across the shard boundary.

use crate::config::{AdaptiveMode, LoadBalancing, Transport};
use crate::engine::{EvKind, PktKind, TimePs};
use crate::shard::{pop_front, Ctx, Shard};
use fatpaths_core::fwd::fnv1a;
use fatpaths_telemetry::SpanKind;

/// Fixed NDP sender retransmission timeout (a rare safety net: payload
/// trimming means losses are announced, not inferred).
const NDP_RTO: TimePs = 2_000_000_000; // 2 ms

impl Shard {
    pub(crate) fn ndp_start(&mut self, cx: &Ctx, flow: u32, initial_window: u32) {
        let ti = cx.tx_idx(flow);
        let n = cx.meta(flow).num_pkts.min(initial_window);
        for _ in 0..n {
            let seq = self.tx[ti].next_new;
            self.tx[ti].next_new += 1;
            self.send_data(cx, flow, seq, false);
        }
        self.ndp_arm_rto(cx, flow);
    }

    pub(crate) fn ndp_on_arrive(&mut self, cx: &Ctx, ep: u32, pid: u32) {
        let pkt = *self.packets.get(pid);
        self.packets.release(pid);
        let flow = pkt.flow();
        match pkt.kind() {
            PktKind::Data => {
                debug_assert_eq!(ep, pkt.dst_ep);
                let ri = cx.rx_idx(flow);
                self.rx[ri].rx_last_layer = pkt.layer;
                self.rx[ri].last_nonce = pkt.nonce;
                if pkt.trimmed() {
                    // Header-only arrival: the payload was cut. Record the
                    // congestion, suggest a different layer, request a
                    // retransmission (NACK) and schedule a pull credit.
                    let nl = cx.n_layers as u64;
                    let f = &mut self.rx[ri];
                    f.trims += 1;
                    if nl > 1 {
                        let pick = fnv1a(((flow as u64) << 24) ^ 0xBEEF ^ f.trims as u64) % nl;
                        f.rx_suggest = pick as u8;
                    }
                    let suggest = f.rx_suggest;
                    self.span_once(flow, SpanKind::FirstTrim, pkt.seq, 0);
                    self.send_control(cx, flow, PktKind::Nack, pkt.seq, false, suggest);
                    self.ndp_queue_pull(cx, flow);
                } else {
                    let newly = self.rx[ri].mark_received(pkt.seq);
                    let done = self.rx[ri].rcv_count == cx.meta(flow).num_pkts;
                    // Ack every arrival, duplicates included: the sender's
                    // completion proof is its own ack bitmap, so a lost ack
                    // must be replaced by the retransmission's ack.
                    let suggest = self.rx[ri].rx_suggest;
                    self.send_control(cx, flow, PktKind::Ack, pkt.seq, false, suggest);
                    if done {
                        self.complete_flow(cx, flow);
                    } else if newly {
                        self.ndp_queue_pull(cx, flow);
                    }
                }
            }
            PktKind::Ack => {
                // Sender side: per-packet ack. Adopt the receiver's layer
                // suggestion and keep the safety timer fresh.
                let ti = cx.tx_idx(flow);
                if self.tx[ti].aborted {
                    return;
                }
                self.reset_dead_rtos(cx, flow);
                self.ndp_adopt_suggestion(cx, flow, pkt.suggest_layer);
                let f = &mut self.tx[ti];
                f.mark_acked(pkt.seq);
                if pkt.seq >= f.cum_ack {
                    f.cum_ack = pkt.seq + 1;
                }
                self.ndp_arm_rto(cx, flow);
            }
            PktKind::Nack => {
                let ti = cx.tx_idx(flow);
                if self.tx[ti].aborted {
                    return;
                }
                self.reset_dead_rtos(cx, flow);
                self.ndp_adopt_suggestion(cx, flow, pkt.suggest_layer);
                let f = &mut self.tx[ti];
                f.retx_count += 1;
                f.retxq.push(pkt.seq);
                self.ndp_arm_rto(cx, flow);
            }
            PktKind::Pull => {
                if self.tx[cx.tx_idx(flow)].aborted {
                    return;
                }
                self.reset_dead_rtos(cx, flow);
                self.ndp_adopt_suggestion(cx, flow, pkt.suggest_layer);
                self.ndp_send_next(cx, flow);
                self.ndp_arm_rto(cx, flow);
            }
        }
    }

    fn ndp_adopt_suggestion(&mut self, cx: &Ctx, flow: u32, suggest: u8) {
        if suggest != 0xff {
            let ti = cx.tx_idx(flow);
            let old = self.tx[ti].layer;
            self.tx[ti].layer = suggest;
            if old != suggest {
                self.span(flow, SpanKind::LayerSwitch, old as u32, suggest as u32);
            }
        }
    }

    /// One pull credit = one packet: retransmissions first, then new data.
    fn ndp_send_next(&mut self, cx: &Ctx, flow: u32) {
        let ti = cx.tx_idx(flow);
        if let Some(seq) = pop_front(&mut self.tx[ti].retxq) {
            self.send_data(cx, flow, seq, true);
        } else if self.tx[ti].next_new < cx.meta(flow).num_pkts {
            let seq = self.tx[ti].next_new;
            self.tx[ti].next_new += 1;
            self.send_data(cx, flow, seq, false);
        }
    }

    /// Queues a pull credit toward the sender, paced at the receiver's
    /// access-link rate (one full-size packet interval per pull). The
    /// pull queue lives on the receiving endpoint's shard.
    fn ndp_queue_pull(&mut self, cx: &Ctx, flow: u32) {
        let ep = cx.meta(flow).dst_ep;
        let li = cx.ep_idx(ep);
        let was_empty = self.pull_push(li, flow);
        let at = self.now.max(self.pull_ready[li]);
        if was_empty {
            self.events.push(at, EvKind::PullTick { ep });
        }
    }

    pub(crate) fn ndp_pull_tick(&mut self, cx: &Ctx, ep: u32) {
        let li = cx.ep_idx(ep);
        if self.now < self.pull_ready[li] {
            let at = self.pull_ready[li];
            self.events.push(at, EvKind::PullTick { ep });
            return;
        }
        let Some(flow) = self.pull_pop(li) else {
            return;
        };
        let f = &self.rx[cx.rx_idx(flow)];
        if !f.is_finished() {
            let suggest = f.rx_suggest;
            self.send_control(cx, flow, PktKind::Pull, 0, false, suggest);
        }
        // Pace: one pull per full-payload serialization interval.
        let payload = match cx.cfg.transport {
            Transport::Ndp { mtu_payload, .. } => mtu_payload,
            Transport::Tcp { mss, .. } => mss,
        };
        let interval = cx.cfg.ser_time(payload + crate::config::HDR_BYTES);
        self.pull_ready[li] = self.now + interval;
        if self.pull_pending(li) {
            self.events
                .push(self.pull_ready[li], EvKind::PullTick { ep });
        }
    }

    /// Arms (or extends) the lazy retransmission timer: the deadline
    /// moves to `now + RTO`, and a timer event is queued only if none is
    /// outstanding — `Shard::on_rto` re-arms a too-early firing at the
    /// extended deadline, so at most one `RtoTimer` event per flow is
    /// ever live (the eager push-per-ack scheme kept every superseded
    /// timer in the heap for a full RTO).
    fn ndp_arm_rto(&mut self, cx: &Ctx, flow: u32) {
        let ti = cx.tx_idx(flow);
        if self.tx[ti].aborted || self.tx[ti].acked_count >= cx.meta(flow).num_pkts {
            return;
        }
        let at = self.now + NDP_RTO;
        self.tx[ti].rto_deadline = at;
        if !self.tx[ti].rto_armed {
            self.tx[ti].rto_armed = true;
            let gen = self.tx[ti].rto_gen;
            self.events.push(at, EvKind::RtoTimer { flow, gen });
        }
    }

    /// Safety net: if the flow has stalled (all credits or announcements
    /// lost — rare under trimming, routine under link failures), re-pick
    /// the routing layer (§V-G fault tolerance: redirect to one of the
    /// preprovisioned alternate layers) and re-push every sent-but-
    /// unacked sequence at line rate.
    ///
    /// The full re-push matters under link and router failures: a packet
    /// dropped on a *down port* is silent — unlike a trim, nothing
    /// announces it to the receiver, so the lost sequences sit in no
    /// retransmission queue and the timeout is their only recovery path.
    /// Resending one packet per 2 ms RTO would stretch a lost w-packet
    /// window to w timeouts; resending the window mirrors the line-rate
    /// first window of §III-C (receiver-side dedup makes spurious copies
    /// harmless).
    pub(crate) fn ndp_on_rto(&mut self, cx: &Ctx, flow: u32, _gen: u32) {
        let ti = cx.tx_idx(flow);
        {
            let f = &self.tx[ti];
            // Staleness is handled by the deadline check in
            // `Shard::on_rto`: a firing only reaches here at the true
            // (fully extended) timeout instant.
            if f.aborted || !f.started || self.tx_done(cx, flow) {
                return;
            }
        }
        self.span(flow, SpanKind::Rto, 0, 0);
        let nl = cx.n_layers as u64;
        let adaptive = cx.cfg.adaptive == AdaptiveMode::QueueDepth;
        // A timeout is a flowlet boundary. Obliviously only a layer
        // re-pick applies (single-layer schemes have nothing to redraw);
        // adaptive LetFlow/ECMP also re-steers the minimal-path nonce.
        if nl > 1
            || (adaptive && matches!(cx.cfg.lb, LoadBalancing::LetFlow | LoadBalancing::EcmpFlow))
        {
            self.tx[ti].flowlet_ctr += 1;
            if !(adaptive && self.adaptive_repick(cx, flow)) && nl > 1 {
                let f = &mut self.tx[ti];
                f.layer = (fnv1a(((flow as u64) << 26) ^ 0xFA11 ^ f.flowlet_ctr as u64) % nl) as u8;
            }
        }
        let window = match cx.cfg.transport {
            Transport::Ndp { initial_window, .. } => initial_window,
            _ => 8,
        };
        // Collect into the shard's scratch buffer: RTOs fire per flow,
        // and a fresh Vec per firing is an allocation storm at scale.
        let mut missing = std::mem::take(&mut self.scratch);
        missing.clear();
        {
            let f = &self.tx[ti];
            missing.extend(
                (0..cx.meta(flow).num_pkts)
                    .filter(|&s| !f.is_acked(s))
                    .take(window as usize),
            );
        }
        self.tx[ti].retx_count += missing.len() as u32;
        for &seq in &missing {
            self.send_data(cx, flow, seq, true);
        }
        self.scratch = missing;
        self.ndp_arm_rto(cx, flow);
    }
}

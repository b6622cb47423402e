//! The slow TE control loop: subtree-local repair of negotiated trees.
//!
//! When fault or churn events invalidate links, a `(layer, dst)` tree
//! needs rerouting only if one of its rows *crosses* an invalidated link
//! (a tree uses edge `(a, b)` iff `a`'s row points at `b` or vice
//! versa). Under router death that is every tree — the dead router's own
//! row crosses one of its links — yet within a tree only the routers
//! whose healthy tree path crosses a down link can change distance: the
//! set `S` the failure cuts off, dead routers included. Every other
//! router keeps its path, so its float distance cannot change. Repair
//! therefore works on the cut-off part of each affected tree instead of
//! rebuilding it:
//!
//! 1. recover healthy distances from the negotiated table:
//!    `dist[v] = dist[next(v)] + cost(v, next(v))` — bit-exact, because a
//!    tree build only picks a neighbor whose distance plus edge price
//!    equals the router's distance exactly. Distances are recovered on
//!    demand (memoized path walks), only for the routers steps 3–4 read;
//! 2. mark `S`: the routers whose own row crosses a down link, plus
//!    everything routing through them (a router's children are among
//!    its neighbors);
//! 3. run Dijkstra over `S` only, seeded from its live edges into the
//!    rest of the tree, under the **negotiated price vector** (reroutes
//!    respect the congestion picture the negotiation settled on, not
//!    plain hop counts);
//! 4. re-apply the tree build's hash-tie-broken pick (`pick_port`),
//!    but only at `S` and at the routers that lose a candidate — a
//!    neighbor in `S` or behind a down link that ties for their
//!    distance — and keep the rows that differ from the healthy table.
//!
//! A destination whose layer links are all down (a dead router's own
//! trees) is cut off from everyone, so its tree loses every row without
//! further work. The result is exactly the tree a full rebuild on the
//! degraded layer would produce (the crate's oracle test compares the
//! two). Per affected tree the cost is a flag reset plus work
//! proportional to `S`'s neighborhood and Dijkstra over `S` — typically
//! a handful of routers — instead of a Dijkstra over all `nr`.
//! The changed rows are emitted as a [`RouteRepair`] overlay with the
//! same semantics as the static tables' repair: the effective forwarding
//! is the rebuilt tree, never a mix of trees, so the overlay stays
//! loop-free.
//!
//! The controller caches each layer's changed rows keyed on the layer's
//! down-link signature, so a caller that holds one controller across a
//! rolling-churn sequence pays nothing for layers whose failures did not
//! change. [`TeScheme`]'s `repair_routes` builds a fresh controller per
//! call (the simulator's `RepairTick` path is stateless), so there the
//! cache never hits and every tick pays the subtree-local cost above.

use crate::negotiate::{pick_port, Frontier, OrdF64, TeScheme};
use fatpaths_core::fwd::NO_PORT;
use fatpaths_core::repair::{DownLinks, RouteRepair};
use fatpaths_core::scheme::PortSet;
use fatpaths_net::graph::Graph;
use rayon::prelude::*;
use std::cmp::Reverse;

/// The changed rows of one repaired tree: `(dst, [(src, port)])` with
/// sources ascending; `NO_PORT` marks a pair the degraded layer cannot
/// route.
type TreeRows = (u32, Vec<(u32, u16)>);

/// Incremental repair driver for a [`TeScheme`]. See the module docs.
pub struct TeController<'a> {
    scheme: &'a TeScheme,
    /// Per-layer down-link signature of the last repair (sorted).
    sigs: Vec<Vec<(u32, u32)>>,
    /// Per-layer changed rows of the last repair, one entry per affected
    /// tree in ascending `dst` order.
    rows: Vec<Vec<TreeRows>>,
    ticks: u64,
    rebuilt_trees: u64,
    settled_nodes: u64,
}

impl<'a> TeController<'a> {
    /// A controller with an empty rebuild cache.
    pub fn new(scheme: &'a TeScheme) -> Self {
        let nl = scheme.tables.len();
        TeController {
            scheme,
            sigs: vec![Vec::new(); nl],
            rows: vec![Vec::new(); nl],
            ticks: 0,
            rebuilt_trees: 0,
            settled_nodes: 0,
        }
    }

    /// Repair ticks served so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Total `(layer, dst)` trees repaired (cache hits excluded).
    pub fn rebuilt_trees(&self) -> u64 {
        self.rebuilt_trees
    }

    /// Total routers re-settled by the subtree-local Dijkstra (cache hits
    /// excluded) — the repair's work count. Machine-independent: a full
    /// rebuild settles up to `layers × routers²` per tick.
    pub fn settled_nodes(&self) -> u64 {
        self.settled_nodes
    }

    /// Number of matrix entries whose negotiated routes cross any of the
    /// given down links — the demand-side blast radius of an event set.
    pub fn affected_demands(&self, base: &Graph, down: &DownLinks) -> usize {
        let nl = self.scheme.tables.len();
        self.scheme
            .demands
            .iter()
            .filter(|d| {
                (0..nl).any(|l| {
                    self.scheme
                        .path(base, l, d.src, d.dst)
                        .is_some_and(|p| p.windows(2).any(|w| down.contains(w[0], w[1])))
                })
            })
            .count()
    }

    /// Computes the repair overlay for the *current* down set (the full
    /// set, as the simulator hands to `repair_routes` — not a delta).
    /// Layers whose down signature is unchanged since the last call
    /// reuse their cached rows.
    pub fn repair(&mut self, base: &Graph, down: &DownLinks) -> RouteRepair {
        self.ticks += 1;
        let scheme = self.scheme;
        let nr = scheme.nr;
        if down.is_empty() {
            self.sigs.iter_mut().for_each(Vec::clear);
            self.rows.iter_mut().for_each(Vec::clear);
            return RouteRepair::none();
        }
        let down_edge = down_edge_mask(scheme, base, down);
        // Layers whose down signature changed.
        let mut stale: Vec<LayerCut> = Vec::new();
        for l in 0..scheme.tables.len() {
            let lg = scheme.layers.layer(l);
            let layer_down: Vec<(u32, u32)> =
                down.iter().filter(|&(u, v)| lg.has_edge(u, v)).collect();
            if self.sigs[l] == layer_down {
                continue;
            }
            stale.push(LayerCut::new(scheme, base, &down_edge, l, &layer_down));
            self.sigs[l] = layer_down;
        }
        // One flat parallel pass over the stale layers' trees.
        let trees: Vec<(usize, u32)> = (0..stale.len())
            .flat_map(|i| (0..nr as u32).map(move |dst| (i, dst)))
            .collect();
        let repaired: Vec<Option<(TreeRows, u64)>> = trees
            .into_par_iter()
            .map_init(
                || TreeScratch::new(nr),
                |sc, (i, dst)| repair_tree(scheme, base, &down_edge, &stale[i], dst, sc),
            )
            .collect();
        for cut in &stale {
            self.rows[cut.layer].clear();
        }
        for (k, tree) in repaired.into_iter().enumerate() {
            if let Some((tree, settled)) = tree {
                self.rebuilt_trees += 1;
                self.settled_nodes += settled;
                self.rows[stale[k / nr].layer].push(tree);
            }
        }
        assemble(scheme, &self.rows)
    }
}

/// A layer's down links as the tree repairs read them.
struct LayerCut {
    layer: usize,
    /// Routers whose every layer link is down, ascending: a tail of
    /// every tree in which they have a row, and cut off from everyone in
    /// their own.
    isolated: Vec<u32>,
    /// The other down links (both ends keep a live layer link), in both
    /// orientations.
    links: Vec<CutLink>,
}

impl LayerCut {
    fn new(
        scheme: &TeScheme,
        base: &Graph,
        down: &[bool],
        layer: usize,
        layer_down: &[(u32, u32)],
    ) -> LayerCut {
        let mut isolated: Vec<u32> = layer_down.iter().flat_map(|&(a, b)| [a, b]).collect();
        isolated.sort_unstable();
        isolated.dedup();
        let eids = &scheme.layer_eids[layer];
        isolated.retain(|&r| eids[r as usize].iter().all(|&e| down[e as usize]));
        let links = layer_down
            .iter()
            .filter(|(a, b)| {
                isolated.binary_search(a).is_err() && isolated.binary_search(b).is_err()
            })
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .map(|(a, b)| {
                let port = base.port_of(a, b).expect("down link is a base edge") as u16;
                let eid = scheme.hops.hop(a, port).eid;
                CutLink { a, b, port, eid }
            })
            .collect();
        LayerCut {
            layer,
            isolated,
            links,
        }
    }
}

/// One orientation `a → b` of a down link in a layer.
struct CutLink {
    a: u32,
    b: u32,
    /// Base port of `b` at `a`.
    port: u16,
    /// Base edge id.
    eid: u32,
}

/// Base-edge-id mask of the down links — one O(1) check per edge on the
/// repair hot path instead of hashing router pairs.
fn down_edge_mask(scheme: &TeScheme, base: &Graph, down: &DownLinks) -> Vec<bool> {
    let mut mask = vec![false; base.m()];
    for (u, v) in down.iter() {
        let p = base.port_of(u, v).expect("down link is a base edge");
        mask[scheme.hops.hop(u, p as u16).eid as usize] = true;
    }
    mask
}

/// Router flag: in `S` — the healthy tree path crosses a down link.
const CUT: u8 = 1;
/// Router flag: `dist` holds the router's distance (healthy outside `S`,
/// degraded inside once Dijkstra ran).
const KNOWN: u8 = 2;
/// Router flag: listed in `touched`.
const TOUCHED: u8 = 4;

/// One `(layer, dst)` tree as the repair reads it.
struct Tree<'s> {
    scheme: &'s TeScheme,
    lg: &'s Graph,
    eids: &'s [Vec<u32>],
    /// The healthy negotiated row: `row[src]` = base port toward `dst`.
    row: &'s [u16],
    layer: u32,
    dst: u32,
}

impl<'s> Tree<'s> {
    fn new(scheme: &'s TeScheme, l: usize, dst: u32) -> Self {
        let nr = scheme.nr;
        Tree {
            scheme,
            lg: scheme.layers.layer(l),
            eids: &scheme.layer_eids[l],
            row: &scheme.tables[l][dst as usize * nr..][..nr],
            layer: l as u32,
            dst,
        }
    }
}

/// Per-worker buffers reused across trees. Nothing here is `O(nr)` per
/// tree except the flag reset.
struct TreeScratch {
    dist: Vec<f64>,
    flags: Vec<u8>,
    /// The members of `S`, and each one's cheapest live edge into the
    /// rest of the tree (step 3's seeds).
    cut_set: Vec<u32>,
    seeds: Vec<f64>,
    /// Routers whose pick must be re-evaluated.
    touched: Vec<u32>,
    /// Routers walked by [`TreeScratch::healthy`] awaiting their
    /// distance, with the edge to their next hop.
    stack: Vec<(u32, u32)>,
    heap: Frontier,
}

impl TreeScratch {
    fn new(nr: usize) -> Self {
        TreeScratch {
            dist: vec![f64::INFINITY; nr],
            flags: vec![0; nr],
            cut_set: Vec::new(),
            seeds: Vec::new(),
            touched: Vec::new(),
            stack: Vec::new(),
            heap: Frontier::new(),
        }
    }

    fn reset(&mut self, dst: u32) {
        self.flags.fill(0);
        self.cut_set.clear();
        self.seeds.clear();
        self.touched.clear();
        self.flags[dst as usize] = KNOWN;
        self.dist[dst as usize] = 0.0;
    }

    /// Step 1, on demand: the healthy distance of `v`, recovered from the
    /// table as `dist[v] = dist[next(v)] + cost(v, next(v))` by walking
    /// `v`'s path up to a router whose distance is known (`INFINITY` for
    /// a router without a row). Memoized for the rest of the tree.
    /// Called for routers outside `S` only once Dijkstra ran — their
    /// paths never enter `S`, so they only meet healthy distances.
    fn healthy(&mut self, t: &Tree, v: u32) -> f64 {
        if self.flags[v as usize] & KNOWN != 0 {
            return self.dist[v as usize];
        }
        let mut u = v;
        while self.flags[u as usize] & KNOWN == 0 {
            let p = t.row[u as usize];
            if p == NO_PORT {
                self.dist[u as usize] = f64::INFINITY;
                self.flags[u as usize] |= KNOWN;
                break;
            }
            let hop = t.scheme.hops.hop(u, p);
            self.stack.push((u, hop.eid));
            u = hop.to;
        }
        let mut next = u as usize;
        while let Some((w, e)) = self.stack.pop() {
            let w = w as usize;
            self.dist[w] = self.dist[next] + t.scheme.costs[e as usize];
            self.flags[w] |= KNOWN;
            next = w;
        }
        self.dist[v as usize]
    }

    /// Step 2: marks `S` — the tails (routers whose own row crosses a
    /// down link) and, transitively, every router routing through one.
    /// A router's children are among its neighbors, so this costs
    /// `O(|S| · degree)`. Returns whether the tree is affected at all.
    fn mark_cut(&mut self, t: &Tree, cut: &LayerCut) -> bool {
        // An isolated router with a row is a tail; a router whose row
        // leads into it is its child, found below.
        let isolated = cut.isolated.iter().copied();
        let isolated = isolated.filter(|&r| t.row[r as usize] != NO_PORT);
        let crossing = cut.links.iter().filter(|c| t.row[c.a as usize] == c.port);
        let tails = isolated.chain(crossing.map(|c| c.a));
        for a in tails {
            if self.flags[a as usize] & CUT == 0 {
                self.flags[a as usize] |= CUT;
                self.cut_set.push(a);
            }
        }
        let mut i = 0;
        while i < self.cut_set.len() {
            let u = self.cut_set[i];
            i += 1;
            for hop in t.scheme.hops.ports(u) {
                let x = hop.to as usize;
                if self.flags[x] & CUT == 0 && t.row[x] == hop.back {
                    self.flags[x] |= CUT;
                    self.cut_set.push(hop.to);
                }
            }
        }
        !self.cut_set.is_empty()
    }

    fn touch(&mut self, v: u32) {
        if self.flags[v as usize] & TOUCHED == 0 {
            self.flags[v as usize] |= TOUCHED;
            self.touched.push(v);
        }
    }

    fn is_cut(&self, v: u32) -> bool {
        self.flags[v as usize] & CUT != 0
    }
}

/// Repairs one `(layer, dst)` tree (the four steps in the module docs)
/// under its layer's down links. Returns the rows that differ from the
/// healthy table and the number of routers Dijkstra settled, or `None`
/// when no row of the tree crosses a down link.
fn repair_tree(
    scheme: &TeScheme,
    base: &Graph,
    down: &[bool],
    cut: &LayerCut,
    dst: u32,
    sc: &mut TreeScratch,
) -> Option<(TreeRows, u64)> {
    let t = Tree::new(scheme, cut.layer, dst);
    let costs = &scheme.costs;
    // An isolated destination is cut off from every router: S is the
    // whole tree and every row is lost.
    if cut.isolated.binary_search(&dst).is_ok() {
        let lost: Vec<(u32, u16)> = (0..scheme.nr as u32)
            .filter(|&v| t.row[v as usize] != NO_PORT)
            .map(|v| (v, NO_PORT))
            .collect();
        return (!lost.is_empty()).then_some(((dst, lost), 0));
    }
    sc.reset(dst);
    if !sc.mark_cut(&t, cut) {
        return None;
    }

    // One pass over S's edges on the healthy distances (step 1 on
    // demand) serves two ends.
    // * Which picks can change: a router outside S keeps its distance,
    //   and its neighbors' distances only grow, so its candidate set can
    //   only lose members — a neighbor in S or one behind a down link
    //   that was a candidate (a tight edge).
    // * Step 3's seeds: S's cheapest live edge into the rest.
    for i in 0..sc.cut_set.len() {
        let s = sc.cut_set[i];
        sc.touch(s);
        let ds = sc.healthy(&t, s);
        let mut seed = f64::INFINITY;
        for (&v, &e) in t.lg.neighbors(s).iter().zip(&t.eids[s as usize]) {
            if sc.is_cut(v) {
                continue;
            }
            let (dv, c) = (sc.healthy(&t, v), costs[e as usize]);
            if ds + c == dv {
                sc.touch(v);
            }
            if !down[e as usize] {
                seed = seed.min(dv + c);
            }
        }
        // Not into `dist` yet: later members' walks read healthy values.
        sc.seeds.push(seed);
    }
    for c in &cut.links {
        if sc.is_cut(c.a) || sc.is_cut(c.b) {
            continue;
        }
        let (da, db) = (sc.healthy(&t, c.a), sc.healthy(&t, c.b));
        if da.is_finite() && db + costs[c.eid as usize] == da {
            sc.touch(c.a);
        }
    }

    // Step 3: Dijkstra over S from the seeds.
    for (&s, &seed) in sc.cut_set.iter().zip(&sc.seeds) {
        sc.dist[s as usize] = seed;
        if seed.is_finite() {
            sc.heap.push(Reverse((OrdF64(seed), s)));
        }
    }
    let mut settled = 0u64;
    while let Some(Reverse((OrdF64(d), u))) = sc.heap.pop() {
        if d > sc.dist[u as usize] {
            continue;
        }
        settled += 1;
        for (&v, &e) in t.lg.neighbors(u).iter().zip(&t.eids[u as usize]) {
            if !sc.is_cut(v) || down[e as usize] {
                continue;
            }
            let nd = d + costs[e as usize];
            if nd < sc.dist[v as usize] {
                sc.dist[v as usize] = nd;
                sc.heap.push(Reverse((OrdF64(nd), v)));
            }
        }
    }

    // Step 4: re-pick at the touched routers, in source order.
    let mut touched = std::mem::take(&mut sc.touched);
    touched.sort_unstable();
    let mut changed = Vec::new();
    for &src in &touched {
        if src == dst {
            continue;
        }
        // S members' neighbors outside S are resolved already.
        let d = if sc.is_cut(src) {
            sc.dist[src as usize]
        } else {
            for &v in t.lg.neighbors(src) {
                if !sc.is_cut(v) {
                    sc.healthy(&t, v);
                }
            }
            sc.healthy(&t, src)
        };
        let np = if d.is_finite() {
            let (eids, down) = (t.eids, Some(down));
            pick_port(base, t.lg, eids, costs, down, t.layer, t.dst, src, &sc.dist)
        } else {
            NO_PORT
        };
        if np != t.row[src as usize] {
            changed.push((src, np));
        }
    }
    sc.touched = touched;
    Some(((dst, changed), settled))
}

/// Turns per-layer changed rows into the overlay: every changed row is
/// emitted with the scheme's final decision, and build-time gaps of the
/// sparse layers shadow rewritten layer-0 rows.
fn assemble(scheme: &TeScheme, rows: &[Vec<TreeRows>]) -> RouteRepair {
    let nr = scheme.nr;
    let mut rep = RouteRepair::none();
    let entry = |port: u16| {
        if port == NO_PORT {
            PortSet::new()
        } else {
            PortSet::single(port)
        }
    };
    // The final layer-0 port of `(src, dst)`: the rewritten row if there
    // is one, else the healthy negotiated entry.
    let layer0 = |src: u32, dst: u32| {
        rows[0]
            .binary_search_by_key(&dst, |t| t.0)
            .ok()
            .and_then(|i| {
                let changed = &rows[0][i].1;
                changed
                    .binary_search_by_key(&src, |c| c.0)
                    .ok()
                    .map(|j| changed[j].1)
            })
            .unwrap_or(scheme.tables[0][dst as usize * nr + src as usize])
    };
    for (l, trees) in rows.iter().enumerate() {
        for (dst, changed) in trees {
            for &(src, port) in changed {
                // Layer 0 is the complete layer: unreachable there means
                // disconnected in the degraded base. A sparse layer that
                // lost the pair stores its layer-0 fallback, the final
                // decision.
                let port = if port == NO_PORT && l > 0 {
                    layer0(src, *dst)
                } else {
                    port
                };
                rep.insert(l as u8, src, *dst, entry(port));
            }
        }
    }
    // Pairs a sparse layer never reached at build time forward through
    // candidate_ports' internal layer-0 fallback, which reads the
    // original table — shadow those keys wherever layer 0 was rewritten
    // so the fallback cannot resurrect a dead port. (Such a pair stays
    // unreachable in its layer, so the layer has no row of its own.)
    for (dst, changed) in &rows[0] {
        for &(src, port) in changed {
            for l in 1..rows.len() {
                if scheme.tables[l][*dst as usize * nr + src as usize] == NO_PORT {
                    rep.insert(l as u8, src, *dst, entry(port));
                }
            }
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::negotiate::{tree_distances, weighted_tree};
    use crate::{endpoint_demands, TeConfig};
    use fatpaths_core::fwd::{fnv1a, RoutingTables};
    use fatpaths_core::layers::{build_random_layers, LayerConfig, LayerSet};
    use fatpaths_core::scheme::RoutingScheme;
    use fatpaths_fib::{CompileMode, CompiledScheme};
    use fatpaths_net::graph::RouterId;
    use fatpaths_net::topo::Topology;
    use fatpaths_workloads::matrices::{matrix_flows, MatrixSpec};
    use proptest::prelude::*;

    /// The full-rebuild repair pass the subtree-local one replaced, kept
    /// whole as the oracle: every affected tree is rebuilt from scratch
    /// by a weighted Dijkstra on the degraded layer, and every row that
    /// differs from the healthy table is emitted through overlay lookups
    /// (sparse-layer fallback, then layer-0 shadowing).
    fn full_rebuild_repair(scheme: &TeScheme, base: &Graph, down: &DownLinks) -> RouteRepair {
        let mut rep = RouteRepair::none();
        let nr = scheme.nr;
        let mask = down_edge_mask(scheme, base, down);
        let mut layer0_touched: Vec<(u32, u32)> = Vec::new();
        for l in 0..scheme.tables.len() {
            let lg = scheme.layers.layer(l);
            let table = &scheme.tables[l];
            let uses = |dst: u32, a: u32, b: u32| {
                table[dst as usize * nr + a as usize] == base.port_of(a, b).unwrap() as u16
            };
            for dst in 0..nr as u32 {
                if !down
                    .iter()
                    .any(|(a, b)| lg.has_edge(a, b) && (uses(dst, a, b) || uses(dst, b, a)))
                {
                    continue;
                }
                let mut row = vec![NO_PORT; nr];
                let (eids, costs) = (&scheme.layer_eids[l], &scheme.costs);
                weighted_tree(base, lg, eids, costs, Some(&mask), l as u32, dst, &mut row);
                for src in 0..nr as u32 {
                    let (op, np) = (table[dst as usize * nr + src as usize], row[src as usize]);
                    if src == dst || np == op {
                        continue;
                    }
                    let entry = if np != NO_PORT {
                        PortSet::single(np)
                    } else if l == 0 {
                        PortSet::new()
                    } else if let Some(e) = rep.lookup(0, src, dst) {
                        e.clone()
                    } else {
                        match scheme.next_port(0, src, dst) {
                            Some(p) => PortSet::single(p),
                            None => PortSet::new(),
                        }
                    };
                    if l == 0 {
                        layer0_touched.push((src, dst));
                    }
                    rep.insert(l as u8, src, dst, entry);
                }
            }
        }
        for &(src, dst) in &layer0_touched {
            let repaired = rep.lookup(0, src, dst).unwrap().clone();
            for l in 1..scheme.tables.len() {
                if scheme.tables[l][dst as usize * nr + src as usize] == NO_PORT
                    && rep.lookup(l as u8, src, dst).is_none()
                {
                    rep.insert(l as u8, src, dst, repaired.clone());
                }
            }
        }
        rep
    }

    /// A [`TeScheme`] that repairs through the oracle, so it can be
    /// compiled and priced in FIB rows like the real one.
    struct FullRebuild(TeScheme);

    impl RoutingScheme for FullRebuild {
        fn name(&self) -> &'static str {
            "te-full-rebuild"
        }
        fn num_layers(&self) -> usize {
            RoutingScheme::num_layers(&self.0)
        }
        fn candidate_ports(&self, layer: u8, at: RouterId, dst: RouterId) -> PortSet {
            self.0.candidate_ports(layer, at, dst)
        }
        fn repair_routes(&self, base: &Graph, down: &DownLinks) -> RouteRepair {
            full_rebuild_repair(&self.0, base, down)
        }
    }

    fn topology(i: usize) -> Topology {
        match i {
            0 => fatpaths_net::topo::slimfly::slim_fly(5, 2).unwrap(),
            1 => fatpaths_net::topo::dragonfly::dragonfly(2),
            _ => fatpaths_net::topo::fattree::fat_tree(4, 1),
        }
    }

    /// Sparse layers keeping ~40% of the edges *without* the connectivity
    /// patching of `build_random_layers`, so some pairs are unreachable
    /// within a layer and forward through the layer-0 fallback.
    fn disconnected_layers(base: &Graph, n_layers: usize, seed: u64) -> LayerSet {
        let mut graphs = vec![base.clone()];
        for l in 1..n_layers as u64 {
            let keep: Vec<(u32, u32)> = base
                .edges()
                .filter(|&(u, v)| fnv1a(seed ^ l << 48 ^ (u as u64) << 24 ^ v as u64) % 10 < 4)
                .collect();
            graphs.push(Graph::from_edges(base.n(), &keep));
        }
        LayerSet { graphs }
    }

    /// Scheme kinds under test: 0 negotiated, 1 negotiation kept
    /// iteration 0 (unit costs, static tables), 2 negotiated over
    /// disconnected sparse layers.
    fn scheme(topo: &Topology, kind: usize, seed: u64) -> TeScheme {
        let g = &topo.graph;
        let ls = match kind {
            2 => disconnected_layers(g, 4, seed),
            _ => build_random_layers(g, &LayerConfig::new(4, 0.6, seed)),
        };
        let rt = RoutingTables::build(g, &ls);
        let flows = matrix_flows(topo, &MatrixSpec::WorstCase { intensity: 0.6 }, seed);
        let demands = endpoint_demands(topo, &flows);
        let cfg = match kind {
            1 => TeConfig {
                max_iterations: 0,
                ..TeConfig::default()
            },
            _ => TeConfig::default(),
        };
        let te = TeScheme::negotiate(g, &rt, &demands, &cfg);
        if kind == 1 {
            assert!(
                te.costs.iter().all(|&c| c == 1.0),
                "iteration 0 keeps unit costs"
            );
        }
        if kind == 2 {
            let nr = te.nr;
            let gaps = (1..te.tables.len())
                .any(|l| (0..nr * nr).any(|i| i / nr != i % nr && te.tables[l][i] == NO_PORT));
            assert!(gaps, "disconnected layers must leave unreachable pairs");
        }
        te
    }

    /// A seeded down set: up to three failed links plus up to two dead
    /// routers (at least one failure overall).
    fn down_set(g: &Graph, seed: u64) -> DownLinks {
        let edges = g.edge_vec();
        let draw = |i: u64| fnv1a(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i);
        let n_links = draw(0) % 4;
        let n_dead = draw(1) % 3;
        let links: Vec<(u32, u32)> = (0..n_links.max(u64::from(n_dead == 0)))
            .map(|i| edges[(draw(2 + i) % edges.len() as u64) as usize])
            .collect();
        let dead: Vec<u32> = (0..n_dead)
            .map(|i| (draw(8 + i) % g.n() as u64) as u32)
            .collect();
        DownLinks::from_failures(g, &links, &dead)
    }

    fn sorted_rows(rep: &RouteRepair) -> Vec<((u8, u32, u32), Vec<u16>)> {
        let mut rows: Vec<_> = rep
            .rows()
            .map(|(k, p)| (k, p.as_slice().to_vec()))
            .collect();
        rows.sort_unstable();
        rows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn subtree_repair_matches_full_rebuild(
            topo_i in 0usize..3,
            kind in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let topo = topology(topo_i);
            let g = &topo.graph;
            let te = scheme(&topo, kind, seed);
            for mode in [CompileMode::Aggregated, CompileMode::HostRoutes] {
                let fast = CompiledScheme::compile(&topo, te.clone(), mode);
                let oracle = CompiledScheme::compile(&topo, FullRebuild(te.clone()), mode);
                for tick in 0..4 {
                    let down = down_set(g, seed ^ tick << 32);
                    let a = RoutingScheme::repair_routes(&fast, g, &down);
                    let b = RoutingScheme::repair_routes(&oracle, g, &down);
                    prop_assert_eq!(sorted_rows(&a), sorted_rows(&b));
                    prop_assert_eq!(a.fib_rows_rewritten, b.fib_rows_rewritten);
                }
            }
        }
    }

    /// The premise of subtree-local repair: each negotiated tree is the
    /// weighted tree of the negotiated prices, and the distances walked
    /// back from its rows equal Dijkstra's bit for bit.
    #[test]
    fn tables_are_weighted_trees_with_recoverable_distances() {
        for topo_i in 0..3 {
            let topo = topology(topo_i);
            let g = &topo.graph;
            for kind in 0..3 {
                let te = scheme(&topo, kind, 3);
                let nr = te.nr;
                let mut sc = TreeScratch::new(nr);
                for l in 0..te.tables.len() {
                    let lg = te.layers.layer(l);
                    let eids = &te.layer_eids[l];
                    for dst in 0..nr as u32 {
                        let mut row = vec![NO_PORT; nr];
                        weighted_tree(g, lg, eids, &te.costs, None, l as u32, dst, &mut row);
                        let table = &te.tables[l][dst as usize * nr..][..nr];
                        assert_eq!(row, table, "{} kind {kind} layer {l} dst {dst}", topo.name);
                        let dist = tree_distances(lg, eids, &te.costs, None, dst);
                        let t = Tree::new(&te, l, dst);
                        sc.reset(dst);
                        for (v, d) in dist.iter().enumerate() {
                            assert_eq!(
                                sc.healthy(&t, v as u32).to_bits(),
                                d.to_bits(),
                                "{} kind {kind} layer {l} dst {dst} router {v}",
                                topo.name
                            );
                        }
                    }
                }
            }
        }
    }
}

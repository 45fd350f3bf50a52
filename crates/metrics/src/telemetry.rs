//! Cluster-wide windowed telemetry: fixed-width sim-time windows of
//! per-VM and per-vhost-worker gauges and rates, an SLO engine with
//! multi-window burn-rate alerts, and a causal annotation stream that
//! names the fault or migration preceding each breach.
//!
//! Determinism contract (same as [`crate::span`]): the recorder consumes
//! only sim-time nanoseconds — never the wall clock, never an RNG — and
//! is strictly observational, so telemetry-enabled runs are byte-identical
//! to disabled runs and the report is a pure function of the run spec.
//! Windows are assigned *at record time* (`window = now_ns / WINDOW_NS`);
//! no window-boundary events are ever scheduled, so the event stream of
//! the simulation is untouched.
//!
//! Rows are sparse: a window holds a row only for a VM (or vhost worker)
//! that recorded something in it, and every reader takes a missing row
//! as all zero. A host carries its cell's whole slot table but runs only
//! the few VMs resident on it, so a window costs what those VMs record.
//!
//! Host merging: [`TelemetryReport::overlay`] sums the reports of a
//! multi-host cell's hosts over their shared global VM slot table, over
//! the *union* of window indices and of rows, and re-sorts the
//! annotation stream by `(time, vm, kind, arg)`, so the merged report is
//! a pure function of the run spec.

use std::cmp::Ordering;

use crate::json::Json;
use crate::span::{chrome_trace, chrome_us, SpanReport};

/// Width of every telemetry window, in sim-time nanoseconds (1 ms). A
/// constant, so placing a record in its window is a division by a
/// constant.
pub const WINDOW_NS: u64 = 1_000_000;

/// Exit-reason kinds a row counts: `es2_hypervisor::ExitReason::COUNT`,
/// which asserts the two agree (that crate depends on this one).
pub const EXIT_KINDS: usize = 7;

/// Number of fixed log-2 rx-latency buckets per window (upper edges
/// 2, 4, 8, 16, 32, 64, 128, 256 µs, then +inf).
pub const RX_BUCKETS: usize = 9;

/// Upper edges of the rx-latency buckets, in microseconds (the last
/// bucket is unbounded; its "edge" here is only a label).
pub const RX_BUCKET_EDGES_US: [u64; RX_BUCKETS] = [2, 4, 8, 16, 32, 64, 128, 256, u64::MAX];

/// The bucket index a latency (in nanoseconds) falls into.
#[inline]
pub(crate) fn rx_bucket(lat_ns: u64) -> usize {
    for (i, &edge_us) in RX_BUCKET_EDGES_US[..RX_BUCKETS - 1].iter().enumerate() {
        if lat_ns <= edge_us * 1_000 {
            return i;
        }
    }
    RX_BUCKETS - 1
}

/// Nearest-rank `q`-quantile (in µs) from a window's bucket counts.
/// Falls back to `max_ns` when the rank lands in the unbounded bucket;
/// returns 0.0 for an empty window.
pub(crate) fn quantile_from_buckets(
    buckets: &[u64; RX_BUCKETS],
    count: u64,
    max_ns: u64,
    q: f64,
) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            if i == RX_BUCKETS - 1 {
                return max_ns as f64 / 1e3;
            }
            return RX_BUCKET_EDGES_US[i] as f64;
        }
    }
    max_ns as f64 / 1e3
}

/// The slot table one recorder covers. Host merges
/// ([`TelemetryReport::overlay`]) require it to match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryGeometry {
    /// VMs covered by this recorder (the host's whole slot table).
    pub num_vms: usize,
    /// Vhost workers per VM.
    pub workers_per_vm: usize,
}

/// A per-window row keyed by the slot it belongs to. A window keeps its
/// rows sorted by key; two rows of one key merge with `add`.
trait Row: Copy {
    fn key(&self) -> u32;
    fn blank(key: u32) -> Self;
    fn add(&mut self, other: &Self);
    /// The window's list of rows of this kind.
    fn list(w: &mut Window) -> &mut Vec<Self>;
}

/// The row of `key`, inserted blank in key order if it is missing.
fn row_mut<R: Row>(rows: &mut Vec<R>, key: u32) -> &mut R {
    let i = match rows.binary_search_by_key(&key, R::key) {
        Ok(i) => i,
        Err(i) => {
            rows.insert(i, R::blank(key));
            i
        }
    };
    &mut rows[i]
}

/// The union of two lists sorted by `key`; items of equal key combine
/// through `both`.
fn union_by<T, K: Ord>(
    a: Vec<T>,
    b: Vec<T>,
    key: impl Fn(&T) -> K,
    mut both: impl FnMut(T, T) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        let ord = match (a.peek(), b.peek()) {
            (None, None) => break,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(x), Some(y)) => key(x).cmp(&key(y)),
        };
        match ord {
            Ordering::Less => out.extend(a.next()),
            Ordering::Greater => out.extend(b.next()),
            Ordering::Equal => out.extend(a.next().zip(b.next()).map(|(x, y)| both(x, y))),
        }
    }
    out
}

/// Two key-sorted row lists summed row by row.
fn merge_rows<R: Row>(a: Vec<R>, b: Vec<R>) -> Vec<R> {
    union_by(a, b, R::key, |mut x, y| {
        x.add(&y);
        x
    })
}

/// One VM's gauges for one window. Everything is a plain count or a
/// nanosecond sum; rates and percentages are derived at render time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmWin {
    /// The VM slot this row belongs to.
    pub vm: u32,
    /// Sim-time nanoseconds this VM's vCPUs spent in guest mode inside
    /// the window (TIG % = `guest_ns / (vcpus * width)`).
    pub guest_ns: u64,
    /// VM exits by exit-reason kind.
    pub exits: [u64; EXIT_KINDS],
    /// MSIs injected exit-lessly (posted interrupts).
    pub msi_posted: u64,
    /// MSIs injected via the emulated (exit-taking) path.
    pub msi_emulated: u64,
    /// MSIs whose target was chosen by ES2 redirection.
    pub msi_redirected: u64,
    /// Bytes completed into the guest rx ring.
    pub rx_bytes: u64,
    /// Packets completed into the guest rx ring.
    pub rx_pkts: u64,
    /// Bytes put on the wire by vhost tx service.
    pub tx_bytes: u64,
    /// Packets put on the wire by vhost tx service.
    pub tx_pkts: u64,
    /// Rx latency samples seen in the window.
    pub rx_lat_count: u64,
    /// Sum of rx latencies (ns) for the mean.
    pub rx_lat_sum_ns: u64,
    /// Largest rx latency (ns) in the window.
    pub rx_lat_max_ns: u64,
    /// Log-2 rx-latency bucket counts (see [`RX_BUCKET_EDGES_US`]) for
    /// windowed quantiles.
    pub rx_lat_buckets: [u64; RX_BUCKETS],
    /// Kicks deferred by GCRA backpressure.
    pub throttled_kicks: u64,
    /// Queues quarantined in this window.
    pub quarantines: u64,
    /// Guest queue resets completed in this window.
    pub resets: u64,
}

impl VmWin {
    /// Total exits across all kinds.
    pub fn exits_total(&self) -> u64 {
        self.exits.iter().sum()
    }

    /// One VM exit of kind `kind`.
    #[inline]
    pub fn exit(&mut self, kind: usize) {
        self.exits[kind] += 1;
    }

    /// One MSI injection: `posted` = exit-less posted path, otherwise
    /// the emulated (exit-taking) path.
    #[inline]
    pub fn msi(&mut self, posted: bool) {
        if posted {
            self.msi_posted += 1;
        } else {
            self.msi_emulated += 1;
        }
    }

    /// One rx completion of `bytes` into the guest ring.
    #[inline]
    pub fn rx(&mut self, bytes: u64) {
        self.rx_bytes += bytes;
        self.rx_pkts += 1;
    }

    /// One tx completion of `bytes` onto the wire.
    #[inline]
    pub fn tx(&mut self, bytes: u64) {
        self.tx_bytes += bytes;
        self.tx_pkts += 1;
    }

    /// One end-to-end rx latency sample of `ns` nanoseconds.
    #[inline]
    pub fn rx_latency(&mut self, ns: u64) {
        self.rx_lat_count += 1;
        self.rx_lat_sum_ns += ns;
        self.rx_lat_max_ns = self.rx_lat_max_ns.max(ns);
        self.rx_lat_buckets[rx_bucket(ns)] += 1;
    }
}

impl Row for VmWin {
    fn key(&self) -> u32 {
        self.vm
    }

    fn blank(vm: u32) -> Self {
        VmWin {
            vm,
            ..VmWin::default()
        }
    }

    fn list(w: &mut Window) -> &mut Vec<Self> {
        &mut w.vms
    }

    fn add(&mut self, o: &Self) {
        self.guest_ns += o.guest_ns;
        for (x, y) in self.exits.iter_mut().zip(o.exits) {
            *x += y;
        }
        self.msi_posted += o.msi_posted;
        self.msi_emulated += o.msi_emulated;
        self.msi_redirected += o.msi_redirected;
        self.rx_bytes += o.rx_bytes;
        self.rx_pkts += o.rx_pkts;
        self.tx_bytes += o.tx_bytes;
        self.tx_pkts += o.tx_pkts;
        self.rx_lat_count += o.rx_lat_count;
        self.rx_lat_sum_ns += o.rx_lat_sum_ns;
        self.rx_lat_max_ns = self.rx_lat_max_ns.max(o.rx_lat_max_ns);
        for (x, y) in self.rx_lat_buckets.iter_mut().zip(o.rx_lat_buckets) {
            *x += y;
        }
        self.throttled_kicks += o.throttled_kicks;
        self.quarantines += o.quarantines;
        self.resets += o.resets;
    }
}

/// One vhost worker's gauges for one window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerWin {
    /// The worker slot this row belongs to: `vm * workers_per_vm + w`.
    pub slot: u32,
    /// Sim-time nanoseconds the worker spent on-core inside the window.
    pub on_core_ns: u64,
    /// Deepest pending-work backlog observed in the window.
    pub pending_hwm: u64,
    /// Handler turns begun in the window.
    pub turns: u64,
}

impl Row for WorkerWin {
    fn key(&self) -> u32 {
        self.slot
    }

    fn blank(slot: u32) -> Self {
        WorkerWin {
            slot,
            ..WorkerWin::default()
        }
    }

    fn list(w: &mut Window) -> &mut Vec<Self> {
        &mut w.workers
    }

    fn add(&mut self, o: &Self) {
        self.on_core_ns += o.on_core_ns;
        self.pending_hwm = self.pending_hwm.max(o.pending_hwm);
        self.turns += o.turns;
    }
}

/// One telemetry window: the rows of the VMs and workers that recorded
/// something in it. A missing row reads as all zero.
#[derive(Clone, Debug)]
pub struct Window {
    /// Window index (`start = idx * WINDOW_NS`).
    pub idx: u64,
    /// Per-VM rows, by ascending `vm`.
    pub vms: Vec<VmWin>,
    /// Per-worker rows, by ascending `slot`.
    pub workers: Vec<WorkerWin>,
}

impl Window {
    fn new(idx: u64) -> Window {
        Window {
            idx,
            vms: Vec::new(),
            workers: Vec::new(),
        }
    }

    /// `vm`'s row, or `None` when it recorded nothing in this window.
    pub fn vm(&self, vm: u32) -> Option<&VmWin> {
        self.vms
            .binary_search_by_key(&vm, |r| r.vm)
            .ok()
            .map(|i| &self.vms[i])
    }
}

/// One discrete event joined onto the window stream (fault injected,
/// migration phase, quarantine, watchdog action, …) — the causal side of
/// the pipeline. `kind` is a static label; `arg` is one free payload
/// value whose meaning depends on the kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Annotation {
    /// Sim-time nanoseconds of the event.
    pub at_ns: u64,
    /// VM the event names (or the VM it most affects).
    pub vm: u32,
    /// Static label ("pi-degrade", "quarantine", "migrate-start", …).
    pub kind: &'static str,
    /// Free payload (vector, queue index, blackout ns, …).
    pub arg: u64,
}

impl Annotation {
    fn sort_key(&self) -> (u64, u32, &'static str, u64) {
        (self.at_ns, self.vm, self.kind, self.arg)
    }
}

/// The window of index `k` in `windows`, created (keeping the list
/// sorted) if needed. Appends are O(1); an out-of-order touch is a
/// binary-search insert.
fn window_mut(windows: &mut Vec<Window>, k: u64) -> &mut Window {
    let pos = match windows.last() {
        Some(last) if last.idx == k => windows.len() - 1,
        Some(last) if last.idx > k => match windows.binary_search_by_key(&k, |w| w.idx) {
            Ok(i) => i,
            Err(i) => {
                windows.insert(i, Window::new(k));
                i
            }
        },
        _ => {
            windows.push(Window::new(k));
            windows.len() - 1
        }
    };
    &mut windows[pos]
}

/// Sum `row`, recorded in window `k`, into `windows`.
fn fold<R: Row>(windows: &mut Vec<Window>, k: u64, row: &R) {
    row_mut(R::list(window_mut(windows, k)), row.key()).add(row);
}

/// The row of `key` for window `k`. `open` is that slot's row for the
/// latest window it recorded in, kept out of `windows`: a record there
/// is a plain field update. A later `k` folds the open row into
/// `windows` and opens a blank one; an earlier `k` (interval backfill)
/// goes straight to `windows`.
fn row_at<'a, R: Row>(
    windows: &'a mut Vec<Window>,
    open: &'a mut Option<(u64, R)>,
    key: u32,
    k: u64,
) -> &'a mut R {
    match *open {
        Some((j, _)) if j > k => return row_mut(R::list(window_mut(windows, k)), key),
        Some((j, ref row)) if j < k => {
            fold(windows, j, row);
            *open = None;
        }
        _ => {}
    }
    &mut open.get_or_insert_with(|| (k, R::blank(key))).1
}

/// The windowed telemetry recorder. One per machine. A VM fact lands in
/// the row [`vm_row`](Self::vm_row) returns for its instant, through
/// that row's [`VmWin`] update; intervals (guest residency, worker
/// on-core time) are sliced across every window they overlap.
///
/// Each VM and each worker keeps its row for the latest window it
/// recorded in beside the window list, and folds it in when it records
/// in a later window or at [`finish`](Self::finish): most records find
/// their row by slot index instead of a window lookup and a row search.
#[derive(Clone, Debug)]
pub struct TelemetryRecorder {
    geom: TelemetryGeometry,
    windows: Vec<Window>,
    /// Per VM: its row for the latest window it recorded in.
    open_vms: Vec<Option<(u64, VmWin)>>,
    /// Per worker slot: its row for the latest window it recorded in.
    open_workers: Vec<Option<(u64, WorkerWin)>>,
    /// Per worker slot: start of the on-core interval in progress.
    on_core_since: Vec<Option<u64>>,
    annotations: Vec<Annotation>,
    ann_capacity: usize,
    ann_dropped: u64,
}

impl TelemetryRecorder {
    /// A recorder for the given geometry with room for `ann_capacity`
    /// annotations (drops past capacity are counted, not silent).
    pub fn new(geom: TelemetryGeometry, ann_capacity: usize) -> Self {
        let workers = geom.num_vms * geom.workers_per_vm;
        TelemetryRecorder {
            geom,
            windows: Vec::new(),
            open_vms: vec![None; geom.num_vms],
            open_workers: vec![None; workers],
            on_core_since: vec![None; workers],
            annotations: Vec::new(),
            ann_capacity,
            ann_dropped: 0,
        }
    }

    /// `vm`'s row for the window holding `at_ns` (sim-time ns): a fact
    /// recorded there is one of the row's [`VmWin`] updates.
    pub fn vm_row(&mut self, vm: u32, at_ns: u64) -> &mut VmWin {
        let open = &mut self.open_vms[vm as usize];
        row_at(&mut self.windows, open, vm, at_ns / WINDOW_NS)
    }

    fn worker_slot_win(&mut self, slot: u32, at_ns: u64) -> &mut WorkerWin {
        let open = &mut self.open_workers[slot as usize];
        row_at(&mut self.windows, open, slot, at_ns / WINDOW_NS)
    }

    fn worker_win(&mut self, vm: u32, worker: usize, at_ns: u64) -> &mut WorkerWin {
        let slot = self.worker_slot(vm, worker);
        self.worker_slot_win(slot, at_ns)
    }

    fn worker_slot(&self, vm: u32, worker: usize) -> u32 {
        let wpv = self.geom.workers_per_vm;
        (vm as usize * wpv + worker.min(wpv.saturating_sub(1))) as u32
    }

    /// Distribute the interval `[from_ns, to_ns)` across every window it
    /// overlaps, calling `add(self, overlap_start_ns, overlap_ns)` per
    /// window.
    fn slice_interval<F: FnMut(&mut Self, u64, u64)>(
        &mut self,
        from_ns: u64,
        to_ns: u64,
        mut add: F,
    ) {
        if to_ns <= from_ns {
            return;
        }
        let mut k = from_ns / WINDOW_NS;
        let last_k = (to_ns - 1) / WINDOW_NS;
        while k <= last_k {
            let lo = from_ns.max(k * WINDOW_NS);
            let hi = to_ns.min((k + 1) * WINDOW_NS);
            add(self, lo, hi - lo);
            k += 1;
        }
    }

    // ------------------------------------------------------------------
    // Interval and worker hooks (all sim-time ns, all strictly
    // observational)
    // ------------------------------------------------------------------

    /// Guest-mode residency `[from_ns, to_ns)` for one of `vm`'s vCPUs,
    /// sliced across window boundaries.
    pub fn record_guest_slice(&mut self, vm: u32, from_ns: u64, to_ns: u64) {
        self.slice_interval(from_ns, to_ns, |r, at_ns, ns| {
            r.vm_row(vm, at_ns).guest_ns += ns;
        });
    }

    /// Worker `worker` of `vm` went on-core at `at_ns`; a worker already
    /// on-core keeps its earlier start.
    pub fn worker_on_core(&mut self, vm: u32, worker: usize, at_ns: u64) {
        let slot = self.worker_slot(vm, worker) as usize;
        self.on_core_since[slot].get_or_insert(at_ns);
    }

    /// Worker `worker` of `vm` went off-core at `at_ns`: its on-core
    /// interval, if one is in progress, is sliced into windows.
    pub fn worker_off_core(&mut self, vm: u32, worker: usize, at_ns: u64) {
        let slot = self.worker_slot(vm, worker);
        if let Some(since) = self.on_core_since[slot as usize].take() {
            self.worker_slice(slot, since, at_ns);
        }
    }

    /// On-core residency `[from_ns, to_ns)` of worker `slot`, sliced
    /// across window boundaries.
    fn worker_slice(&mut self, slot: u32, from_ns: u64, to_ns: u64) {
        self.slice_interval(from_ns, to_ns, |r, at_ns, ns| {
            r.worker_slot_win(slot, at_ns).on_core_ns += ns;
        });
    }

    /// Sample the worker's pending-work depth (kept as a per-window
    /// high-water mark).
    pub fn record_worker_pending(&mut self, vm: u32, worker: usize, at_ns: u64, depth: u64) {
        let row = self.worker_win(vm, worker, at_ns);
        row.pending_hwm = row.pending_hwm.max(depth);
    }

    /// One vhost handler turn begun.
    pub fn record_worker_turn(&mut self, vm: u32, worker: usize, at_ns: u64) {
        self.worker_win(vm, worker, at_ns).turns += 1;
    }

    /// Join a discrete event onto the stream (bounded; drops counted).
    pub fn annotate(&mut self, at_ns: u64, vm: u32, kind: &'static str, arg: u64) {
        if self.annotations.len() < self.ann_capacity {
            self.annotations.push(Annotation {
                at_ns,
                vm,
                kind,
                arg,
            });
        } else {
            self.ann_dropped += 1;
        }
    }

    /// Close every worker interval still on-core at `end_ns` and produce
    /// the immutable report. Annotations are sorted by `(time, vm, kind,
    /// arg)` so standalone and host-merged runs render identically.
    pub fn finish(mut self, end_ns: u64) -> TelemetryReport {
        for slot in 0..self.on_core_since.len() {
            if let Some(since) = self.on_core_since[slot].take() {
                self.worker_slice(slot as u32, since, end_ns);
            }
        }
        let mut windows = self.windows;
        for (k, row) in self.open_vms.iter().flatten() {
            fold(&mut windows, *k, row);
        }
        for (k, row) in self.open_workers.iter().flatten() {
            fold(&mut windows, *k, row);
        }
        let mut annotations = self.annotations;
        annotations.sort_by_key(|a| a.sort_key());
        TelemetryReport {
            geom: self.geom,
            windows,
            annotations,
            ann_dropped: self.ann_dropped,
        }
    }
}

/// Everything one run's telemetry recorder measured.
#[derive(Clone, Debug)]
pub struct TelemetryReport {
    /// Recorder geometry.
    pub geom: TelemetryGeometry,
    /// Occupied windows in ascending index order (untouched windows are
    /// absent; treat them as all-zero).
    pub windows: Vec<Window>,
    /// The causal annotation stream, sorted by `(time, vm, kind, arg)`.
    pub annotations: Vec<Annotation>,
    /// Annotations dropped past capacity.
    pub ann_dropped: u64,
}

impl TelemetryReport {
    /// Merge another host's report over the **same** global VM slot
    /// table (the cluster topology: every host carries every slot, a VM
    /// is active on exactly one host at a time). Rows sum (maxima take
    /// the max) over the union of window indices and of rows;
    /// annotations merge without any VM offset.
    pub fn overlay(&mut self, other: TelemetryReport) {
        assert_eq!(self.geom, other.geom, "overlay requires equal geometry");
        let windows = std::mem::take(&mut self.windows);
        self.windows = union_by(
            windows,
            other.windows,
            |w| w.idx,
            |mut a, b| {
                a.vms = merge_rows(a.vms, b.vms);
                a.workers = merge_rows(a.workers, b.workers);
                a
            },
        );
        self.annotations.extend(other.annotations);
        self.annotations.sort_by_key(|an| an.sort_key());
        self.ann_dropped += other.ann_dropped;
    }

    /// The window with index `idx`, if it was ever touched.
    pub fn window_at(&self, idx: u64) -> Option<&Window> {
        self.windows
            .binary_search_by_key(&idx, |w| w.idx)
            .ok()
            .map(|i| &self.windows[i])
    }

    /// First and last occupied window indices (None if no windows).
    pub fn index_span(&self) -> Option<(u64, u64)> {
        match (self.windows.first(), self.windows.last()) {
            (Some(f), Some(l)) => Some((f.idx, l.idx)),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Fleet aggregates (per window)
    // ------------------------------------------------------------------

    /// Fleet TIG % for one window: total guest time over total
    /// `num_vms * width` (vCPU count folds out when every VM has the
    /// same vCPU count; for mixed fleets this is a per-VM-slot average).
    pub(crate) fn fleet_tig_pct(&self, w: &Window) -> f64 {
        let guest: u64 = w.vms.iter().map(|v| v.guest_ns).sum();
        100.0 * guest as f64 / (self.geom.num_vms as f64 * WINDOW_NS as f64)
    }

    /// Fleet exits/sec for one window.
    pub(crate) fn fleet_exits_per_sec(&self, w: &Window) -> f64 {
        let exits: u64 = w.vms.iter().map(|v| v.exits_total()).sum();
        exits as f64 / (WINDOW_NS as f64 / 1e9)
    }

    /// Fleet rx p-quantile (µs) for one window, from summed buckets.
    pub(crate) fn fleet_rx_quantile_us(&self, w: &Window, q: f64) -> f64 {
        let mut buckets = [0u64; RX_BUCKETS];
        let mut count = 0u64;
        let mut max_ns = 0u64;
        for v in &w.vms {
            for (b, c) in buckets.iter_mut().zip(v.rx_lat_buckets.iter()) {
                *b += c;
            }
            count += v.rx_lat_count;
            max_ns = max_ns.max(v.rx_lat_max_ns);
        }
        quantile_from_buckets(&buckets, count, max_ns, q)
    }

    /// Deepest vhost backlog across all workers in one window.
    pub(crate) fn fleet_pending_hwm(&self, w: &Window) -> u64 {
        w.workers.iter().map(|r| r.pending_hwm).max().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // SLO engine
    // ------------------------------------------------------------------

    /// Rolling values of `spec` over every position in the report's
    /// index span (missing windows count as zero). Returns the absolute
    /// index of the first rolling span and one value per position, or
    /// `None` when the report has no windows.
    pub(crate) fn slo_values(&self, spec: &SloSpec) -> Option<(u64, Vec<f64>)> {
        let (lo, hi) = self.index_span()?;
        let n = spec.windows.max(1) as u64;
        let total = hi - lo + 1;
        if total < n {
            return Some((lo, Vec::new()));
        }
        let width_s = WINDOW_NS as f64 / 1e9;
        let span_positions = (total - n + 1) as usize;
        let mut out = Vec::with_capacity(span_positions);
        for p in 0..span_positions {
            let start = lo + p as u64;
            let v = match spec.metric {
                SloMetric::RxP99Us => {
                    let mut buckets = [0u64; RX_BUCKETS];
                    let mut count = 0u64;
                    let mut max_ns = 0u64;
                    for k in start..start + n {
                        if let Some(w) = self.window_at(k) {
                            for vm in scope_rows(w, spec) {
                                for (b, c) in buckets.iter_mut().zip(vm.rx_lat_buckets.iter()) {
                                    *b += c;
                                }
                                count += vm.rx_lat_count;
                                max_ns = max_ns.max(vm.rx_lat_max_ns);
                            }
                        }
                    }
                    quantile_from_buckets(&buckets, count, max_ns, 0.99)
                }
                SloMetric::TigPct => {
                    let mut guest = 0u64;
                    for k in start..start + n {
                        if let Some(w) = self.window_at(k) {
                            guest += scope_rows(w, spec).map(|vm| vm.guest_ns).sum::<u64>();
                        }
                    }
                    let slots = match spec.vm {
                        Some(_) => 1.0,
                        None => self.geom.num_vms as f64,
                    };
                    100.0 * guest as f64 / (slots * n as f64 * WINDOW_NS as f64)
                }
                SloMetric::ExitsPerSec => {
                    let mut exits = 0u64;
                    for k in start..start + n {
                        if let Some(w) = self.window_at(k) {
                            exits += scope_rows(w, spec).map(|vm| vm.exits_total()).sum::<u64>();
                        }
                    }
                    exits as f64 / (n as f64 * width_s)
                }
                SloMetric::WorkerPendingHwm => {
                    let wpv = self.geom.workers_per_vm as u32;
                    let mut hwm = 0u64;
                    for k in start..start + n {
                        if let Some(w) = self.window_at(k) {
                            for r in &w.workers {
                                if spec.vm.is_none_or(|vm| r.slot / wpv == vm) {
                                    hwm = hwm.max(r.pending_hwm);
                                }
                            }
                        }
                    }
                    hwm as f64
                }
            };
            out.push(v);
        }
        Some((lo, out))
    }

    /// Evaluate `specs`, returning every breach (a maximal run of
    /// violating rolling spans) with its worst value and — when an
    /// annotation precedes the breach within `horizon_ns` — the latest
    /// such annotation as the attributed cause.
    pub fn evaluate_slos(&self, specs: &[SloSpec], horizon_ns: u64) -> Vec<SloBreach> {
        let mut out = Vec::new();
        for spec in specs {
            let Some((lo, values)) = self.slo_values(spec) else {
                continue;
            };
            let n = spec.windows.max(1) as u64;
            let mut run: Option<(usize, usize, f64)> = None;
            for (p, &v) in values.iter().enumerate() {
                let bad = if spec.above_is_bad {
                    v > spec.threshold
                } else {
                    v < spec.threshold
                };
                if bad {
                    run = Some(match run {
                        None => (p, p, v),
                        Some((s, _, worst)) => {
                            let w = if spec.above_is_bad {
                                worst.max(v)
                            } else {
                                worst.min(v)
                            };
                            (s, p, w)
                        }
                    });
                } else if let Some((s, e, worst)) = run.take() {
                    out.push(self.make_breach(spec, lo, n, s, e, worst, horizon_ns));
                }
            }
            if let Some((s, e, worst)) = run {
                out.push(self.make_breach(spec, lo, n, s, e, worst, horizon_ns));
            }
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn make_breach(
        &self,
        spec: &SloSpec,
        lo: u64,
        n: u64,
        s: usize,
        e: usize,
        worst: f64,
        horizon_ns: u64,
    ) -> SloBreach {
        let start_ns = (lo + s as u64) * WINDOW_NS;
        let end_ns = (lo + e as u64 + n) * WINDOW_NS;
        SloBreach {
            slo: spec.name,
            start_ns,
            end_ns,
            worst,
            cause: self.attribute(start_ns, horizon_ns).copied(),
        }
    }

    /// The latest annotation at or before `at_ns` and within
    /// `horizon_ns` of it — the causal join used for breach attribution.
    pub(crate) fn attribute(&self, at_ns: u64, horizon_ns: u64) -> Option<&Annotation> {
        self.annotations
            .iter()
            .rev()
            .find(|a| a.at_ns <= at_ns && at_ns - a.at_ns <= horizon_ns)
    }

    /// Multi-window burn-rate alerts for `spec`: positions where the
    /// violating fraction of the trailing `short` *and* trailing `long`
    /// rolling spans both reach `factor * budget` (the SRE
    /// short-window/long-window pairing: the long window confirms real
    /// budget burn, the short window makes the alert reset quickly).
    /// One alert is emitted per onset (false→true transition).
    pub fn burn_alerts(
        &self,
        spec: &SloSpec,
        short: usize,
        long: usize,
        budget: f64,
        factor: f64,
    ) -> Vec<BurnAlert> {
        let Some((lo, values)) = self.slo_values(spec) else {
            return Vec::new();
        };
        let bad: Vec<bool> = values
            .iter()
            .map(|&v| {
                if spec.above_is_bad {
                    v > spec.threshold
                } else {
                    v < spec.threshold
                }
            })
            .collect();
        let frac = |upto: usize, len: usize| -> f64 {
            let len = len.max(1);
            let from = (upto + 1).saturating_sub(len);
            let n = upto + 1 - from;
            bad[from..=upto].iter().filter(|&&b| b).count() as f64 / n as f64
        };
        let mut out = Vec::new();
        let mut firing = false;
        for p in 0..bad.len() {
            let sf = frac(p, short);
            let lf = frac(p, long);
            let fire = sf >= factor * budget && lf >= factor * budget;
            if fire && !firing {
                out.push(BurnAlert {
                    slo: spec.name,
                    at_ns: (lo + p as u64) * WINDOW_NS,
                    short_frac: sf,
                    long_frac: lf,
                });
            }
            firing = fire;
        }
        out
    }

    // ------------------------------------------------------------------
    // Chrome-trace counter export
    // ------------------------------------------------------------------

    /// Render the window stream as Chrome-trace counter (`"ph": "C"`)
    /// events, merged with `spans`' slice/instant events when given, in
    /// the same JSON format as [`SpanReport::chrome_trace_json`] — one
    /// file, counter track alongside the span tracks. Fleet counters go
    /// on pid 0 / tid 9000; per-VM counters are emitted only for fleets
    /// of at most 8 VMs to bound the file, one per slot and window (0
    /// where the window has no row for the VM).
    pub fn merged_chrome_trace(&self, spans: Option<&SpanReport>) -> Json {
        let mut events: Vec<Json> = spans
            .map(|rep| rep.events.iter().map(|ev| ev.chrome()).collect())
            .unwrap_or_default();
        let mut counter = |name: &str, ts_ns: u64, pid: u32, v: f64| {
            events.push(
                Json::object()
                    .with("name", name)
                    .with("ph", "C")
                    .with("ts", chrome_us(ts_ns))
                    .with("pid", pid)
                    .with("tid", 9000u32)
                    .with("args", Json::object().with("value", Json::fixed(v, 3))),
            );
        };
        let per_vm = self.geom.num_vms <= 8;
        for w in &self.windows {
            let ts = w.idx * WINDOW_NS;
            counter("fleet-tig-pct", ts, 0, self.fleet_tig_pct(w));
            counter("fleet-exits-per-sec", ts, 0, self.fleet_exits_per_sec(w));
            counter("fleet-rx-p99-us", ts, 0, self.fleet_rx_quantile_us(w, 0.99));
            counter("fleet-pending-hwm", ts, 0, self.fleet_pending_hwm(w) as f64);
            if per_vm {
                for vm in 0..self.geom.num_vms as u32 {
                    let guest_ns = w.vm(vm).map_or(0, |r| r.guest_ns);
                    counter(
                        "vm-tig-pct",
                        ts,
                        vm,
                        100.0 * guest_ns as f64 / WINDOW_NS as f64,
                    );
                }
            }
        }
        // Annotations ride along as instant events on the counter track.
        for a in &self.annotations {
            events.push(
                Json::object()
                    .with("name", a.kind)
                    .with("ph", "i")
                    .with("ts", chrome_us(a.at_ns))
                    .with("s", "t")
                    .with("pid", a.vm)
                    .with("tid", 9001u32)
                    .with("args", Json::object().with("arg", a.arg)),
            );
        }
        chrome_trace(events)
    }
}

/// The rows of `w` in `spec`'s scope: every VM's, or the one VM's.
fn scope_rows<'a>(w: &'a Window, spec: &SloSpec) -> impl Iterator<Item = &'a VmWin> {
    let scope = spec.vm;
    w.vms
        .iter()
        .filter(move |r| scope.is_none_or(|vm| r.vm == vm))
}

/// The windowed metric an SLO constrains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloMetric {
    /// Nearest-rank p99 of rx latency (µs) over the rolling span.
    RxP99Us,
    /// Time-in-guest percentage over the rolling span.
    TigPct,
    /// VM exits per second over the rolling span.
    ExitsPerSec,
    /// Deepest vhost pending backlog over the rolling span.
    WorkerPendingHwm,
}

/// One declarative objective: "`metric` stays on the good side of
/// `threshold` over any `windows`-window rolling span", fleet-wide or
/// scoped to one VM.
#[derive(Clone, Copy, Debug)]
pub struct SloSpec {
    /// Stable name used in reports and JSON.
    pub name: &'static str,
    /// The constrained metric.
    pub metric: SloMetric,
    /// `None` = fleet scope, `Some(vm)` = that VM only.
    pub vm: Option<u32>,
    /// The objective bound.
    pub threshold: f64,
    /// `true` when exceeding the threshold is the violation (latency,
    /// exits, backlog); `false` when falling below it is (TIG %).
    pub above_is_bad: bool,
    /// Rolling span length in windows ("over any N windows").
    pub windows: u32,
}

/// One maximal run of violating rolling spans, with its attributed
/// cause when an annotation precedes it within the horizon.
#[derive(Clone, Copy, Debug)]
pub struct SloBreach {
    /// Name of the violated SLO.
    pub slo: &'static str,
    /// Sim-time start (ns) of the first violating span.
    pub start_ns: u64,
    /// Sim-time end (ns) of the last violating span (exclusive).
    pub end_ns: u64,
    /// Worst metric value observed during the breach.
    pub worst: f64,
    /// Latest preceding annotation within the horizon, if any.
    pub cause: Option<Annotation>,
}

/// One multi-window burn-rate alert onset.
#[derive(Clone, Copy, Debug)]
pub struct BurnAlert {
    /// Name of the burning SLO.
    pub slo: &'static str,
    /// Sim-time (ns) of the alert onset.
    pub at_ns: u64,
    /// Violating fraction of the trailing short window.
    pub short_frac: f64,
    /// Violating fraction of the trailing long window.
    pub long_frac: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(vms: usize) -> TelemetryGeometry {
        TelemetryGeometry {
            num_vms: vms,
            workers_per_vm: 2,
        }
    }

    /// The row of worker `slot` in `w`, all zero when it has none.
    fn worker(w: &Window, slot: u32) -> WorkerWin {
        let row = w.workers.iter().find(|r| r.slot == slot);
        row.copied().unwrap_or(WorkerWin::blank(slot))
    }

    #[test]
    fn window_assignment_is_half_open() {
        let mut r = TelemetryRecorder::new(geom(1), 16);
        r.vm_row(0, 999_999).exit(0);
        r.vm_row(0, 1_000_000).exit(0);
        let rep = r.finish(0);
        assert_eq!(rep.windows.len(), 2);
        assert_eq!(rep.windows[0].idx, 0);
        assert_eq!(rep.windows[1].idx, 1);
        assert_eq!(rep.windows[0].vms[0].exits[0], 1);
        assert_eq!(rep.windows[1].vms[0].exits[0], 1);
    }

    #[test]
    fn interval_slicing_spans_windows() {
        let mut r = TelemetryRecorder::new(geom(1), 16);
        // [0.5ms, 2.25ms): 0.5ms in w0, 1ms in w1, 0.25ms in w2.
        r.record_guest_slice(0, 500_000, 2_250_000);
        let rep = r.finish(0);
        assert_eq!(rep.windows.len(), 3);
        assert_eq!(rep.windows[0].vms[0].guest_ns, 500_000);
        assert_eq!(rep.windows[1].vms[0].guest_ns, 1_000_000);
        assert_eq!(rep.windows[2].vms[0].guest_ns, 250_000);
        // Backfill after a later touch must land in the right window.
        let mut r = TelemetryRecorder::new(geom(1), 16);
        r.vm_row(0, 5_100_000).exit(1);
        r.record_guest_slice(0, 4_900_000, 5_100_000);
        let rep = r.finish(0);
        assert_eq!(rep.windows[0].idx, 4);
        assert_eq!(rep.windows[0].vms[0].guest_ns, 100_000);
        assert_eq!(rep.windows[1].vms[0].guest_ns, 100_000);
    }

    #[test]
    fn rx_buckets_and_quantiles() {
        assert_eq!(rx_bucket(0), 0);
        assert_eq!(rx_bucket(2_000), 0);
        assert_eq!(rx_bucket(2_001), 1);
        assert_eq!(rx_bucket(256_000), 7);
        assert_eq!(rx_bucket(1_000_000), RX_BUCKETS - 1);
        let mut r = TelemetryRecorder::new(geom(1), 16);
        for _ in 0..99 {
            r.vm_row(0, 10).rx_latency(10_000); // bucket ≤16µs
        }
        r.vm_row(0, 10).rx_latency(700_000); // overflow bucket
        let rep = r.finish(0);
        let w = &rep.windows[0];
        assert_eq!(w.vms[0].rx_lat_count, 100);
        assert_eq!(rep.fleet_rx_quantile_us(w, 0.5), 16.0);
        assert_eq!(rep.fleet_rx_quantile_us(w, 0.99), 16.0);
        assert_eq!(rep.fleet_rx_quantile_us(w, 1.0), 700.0);
    }

    #[test]
    fn overlay_sums_cells_over_same_slots() {
        // Two "hosts" carrying the same 2-VM slot table: VM 0 active on
        // host A until 1 ms, then on host B (the migration picture).
        let mut a = TelemetryRecorder::new(geom(2), 16);
        a.record_guest_slice(0, 0, 800_000);
        a.vm_row(0, 100).exit(0);
        a.record_worker_pending(0, 1, 100, 5);
        a.annotate(900_000, 0, "migrate-start", 0);
        let mut b = TelemetryRecorder::new(geom(2), 16);
        b.record_guest_slice(0, 1_200_000, 1_700_000);
        b.vm_row(0, 1_300_000).exit(0);
        b.record_worker_pending(0, 1, 1_300_000, 3);
        b.annotate(1_200_000, 0, "migrate-arrive", 0);
        let mut rep = a.finish(0);
        rep.overlay(b.finish(0));
        assert_eq!(rep.geom.num_vms, 2);
        assert_eq!(rep.windows.len(), 2);
        assert_eq!(rep.windows[0].vms[0].guest_ns, 800_000);
        assert_eq!(rep.windows[1].vms[0].guest_ns, 500_000);
        assert_eq!(rep.windows[0].vms[0].exits[0], 1);
        assert_eq!(rep.windows[1].vms[0].exits[0], 1);
        assert_eq!(worker(&rep.windows[0], 1).pending_hwm, 5);
        assert_eq!(worker(&rep.windows[1], 1).pending_hwm, 3);
        // VM 1 recorded nothing: no row, and it reads as zero.
        assert!(rep.windows[0].vm(1).is_none());
        assert_eq!(rep.windows[0].vms.len(), 1);
        assert_eq!(rep.annotations[0].kind, "migrate-start");
        assert_eq!(rep.annotations[1].kind, "migrate-arrive");
    }

    #[test]
    fn slo_breach_detection_and_attribution() {
        let mut r = TelemetryRecorder::new(geom(1), 16);
        // 10 windows of good latency, then 3 of bad, then good again.
        for k in 0..20u64 {
            let at = k * 1_000_000 + 10;
            let lat = if (10..13).contains(&k) {
                150_000
            } else {
                10_000
            };
            for _ in 0..50 {
                r.vm_row(0, at).rx_latency(lat);
            }
        }
        r.annotate(9_500_000, 0, "host-degraded", 7);
        let rep = r.finish(0);
        let spec = SloSpec {
            name: "rx-p99",
            metric: SloMetric::RxP99Us,
            vm: None,
            threshold: 60.0,
            above_is_bad: true,
            windows: 1,
        };
        let breaches = rep.evaluate_slos(&[spec], 2_000_000);
        assert_eq!(breaches.len(), 1);
        let b = &breaches[0];
        assert_eq!(b.start_ns, 10_000_000);
        assert_eq!(b.end_ns, 13_000_000);
        assert_eq!(b.worst, 256.0);
        let cause = b.cause.expect("attributed");
        assert_eq!(cause.kind, "host-degraded");
        assert_eq!(cause.arg, 7);
        // Outside the horizon, no attribution.
        let far = rep.evaluate_slos(&[spec], 100_000);
        assert!(far[0].cause.is_none());
    }

    #[test]
    fn rolling_spans_combine_windows() {
        let mut r = TelemetryRecorder::new(geom(1), 16);
        // One bad window among 5 good ones; p99 over a 3-window span
        // only trips where the bad window dominates the rank.
        for k in 0..6u64 {
            let at = k * 1_000_000 + 1;
            let (lat, n) = if k == 3 { (200_000, 100) } else { (4_000, 1) };
            for _ in 0..n {
                r.vm_row(0, at).rx_latency(lat);
            }
        }
        let rep = r.finish(0);
        let spec = SloSpec {
            name: "rx-p99-3w",
            metric: SloMetric::RxP99Us,
            vm: None,
            threshold: 60.0,
            above_is_bad: true,
            windows: 3,
        };
        let (lo, vals) = rep.slo_values(&spec).expect("windows exist");
        assert_eq!(lo, 0);
        assert_eq!(vals.len(), 4);
        assert!(vals[0] < 60.0, "span 0-2 is clean: {vals:?}");
        assert!(vals[1] > 60.0 && vals[2] > 60.0 && vals[3] > 60.0);
    }

    #[test]
    fn tig_slo_below_is_bad() {
        let mut r = TelemetryRecorder::new(geom(1), 16);
        r.record_guest_slice(0, 0, 900_000); // w0: 90 %
        r.record_guest_slice(0, 1_000_000, 1_100_000); // w1: 10 %
        r.record_guest_slice(0, 2_000_000, 2_950_000); // w2: 95 %
        let rep = r.finish(0);
        let spec = SloSpec {
            name: "tig",
            metric: SloMetric::TigPct,
            vm: Some(0),
            threshold: 50.0,
            above_is_bad: false,
            windows: 1,
        };
        let breaches = rep.evaluate_slos(&[spec], 0);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].start_ns, 1_000_000);
        assert!((breaches[0].worst - 10.0).abs() < 1e-9);
    }

    #[test]
    fn burn_alert_fires_once_per_onset() {
        let mut r = TelemetryRecorder::new(geom(1), 16);
        for k in 0..30u64 {
            let at = k * 1_000_000 + 1;
            let lat = if (5..15).contains(&k) { 150_000 } else { 4_000 };
            r.vm_row(0, at).rx_latency(lat);
        }
        let rep = r.finish(0);
        let spec = SloSpec {
            name: "rx-p99",
            metric: SloMetric::RxP99Us,
            vm: None,
            threshold: 60.0,
            above_is_bad: true,
            windows: 1,
        };
        let alerts = rep.burn_alerts(&spec, 3, 10, 0.01, 10.0);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert!(alerts[0].short_frac >= 0.1 && alerts[0].long_frac >= 0.1);
        // A clean run never alerts.
        let mut clean = TelemetryRecorder::new(geom(1), 16);
        for k in 0..30u64 {
            clean.vm_row(0, k * 1_000_000 + 1).rx_latency(4_000);
        }
        assert!(clean
            .finish(0)
            .burn_alerts(&spec, 3, 10, 0.01, 10.0)
            .is_empty());
    }

    #[test]
    fn annotation_capacity_counts_drops() {
        let mut r = TelemetryRecorder::new(geom(1), 2);
        for i in 0..5 {
            r.annotate(i, 0, "quarantine", i);
        }
        let rep = r.finish(0);
        assert_eq!(rep.annotations.len(), 2);
        assert_eq!(rep.ann_dropped, 3);
    }

    #[test]
    fn chrome_counter_export_shape() {
        let mut r = TelemetryRecorder::new(geom(1), 16);
        r.record_guest_slice(0, 0, 500_000);
        r.vm_row(0, 100).rx_latency(10_000);
        r.annotate(200_000, 0, "migrate-start", 3);
        let rep = r.finish(0);
        let json = rep.merged_chrome_trace(None).to_string();
        assert!(json.contains("\"ph\": \"C\""), "{json}");
        assert!(json.contains("fleet-tig-pct"), "{json}");
        assert!(json.contains("vm-tig-pct"), "{json}");
        assert!(json.contains("\"name\": \"migrate-start\""), "{json}");
        assert!(json.ends_with("]\n}"), "{json}");
    }

    #[test]
    fn worker_rows_track_occupancy_and_backlog() {
        let mut r = TelemetryRecorder::new(geom(2), 16);
        r.worker_on_core(1, 1, 900_000);
        r.worker_on_core(1, 1, 950_000); // already on-core: keeps the start
        r.worker_off_core(1, 1, 1_200_000);
        r.record_worker_pending(1, 1, 950_000, 3);
        r.record_worker_pending(1, 1, 960_000, 1);
        r.record_worker_turn(1, 1, 950_000);
        let rep = r.finish(0);
        let slot = 2 + 1; // vm 1 * workers_per_vm 2 + worker 1
        assert_eq!(worker(&rep.windows[0], slot).on_core_ns, 100_000);
        assert_eq!(worker(&rep.windows[1], slot).on_core_ns, 200_000);
        assert_eq!(worker(&rep.windows[0], slot).pending_hwm, 3);
        assert_eq!(worker(&rep.windows[0], slot).turns, 1);
        assert_eq!(
            rep.windows[0].workers.len(),
            1,
            "only the worker that recorded has a row"
        );
        assert_eq!(rep.fleet_pending_hwm(&rep.windows[0]), 3);
    }

    #[test]
    fn finish_closes_open_intervals() {
        let mut r = TelemetryRecorder::new(geom(2), 16);
        r.worker_on_core(0, 1, 800_000);
        let rep = r.finish(1_200_000);
        assert_eq!(rep.windows.len(), 2);
        // Worker (0,1) on-core 0.2ms + 0.2ms; no other worker has a row.
        for w in &rep.windows {
            assert_eq!(w.workers.len(), 1);
            assert_eq!((w.workers[0].slot, w.workers[0].on_core_ns), (1, 200_000));
        }
    }

    /// One record call for the property test: `(hook, vm, at_ns, arg)`,
    /// where `arg` is an interval length, a latency, a byte count, a
    /// depth or a worker index, by hook.
    type Op = (u8, u32, u64, u64);

    fn record(r: &mut TelemetryRecorder, (hook, vm, at, arg): Op) {
        let w = (arg % 3) as usize; // the recorder clamps it to the last worker
        match hook {
            0 => r.vm_row(vm, at).exit((arg % EXIT_KINDS as u64) as usize),
            1 => r.record_guest_slice(vm, at, at + arg),
            2 => r.vm_row(vm, at).msi(arg % 2 == 0),
            3 => r.vm_row(vm, at).msi_redirected += 1,
            4 => r.vm_row(vm, at).rx(arg % 1500),
            5 => r.vm_row(vm, at).tx(arg % 1500),
            6 => r.vm_row(vm, at).rx_latency(arg),
            7 => r.vm_row(vm, at).throttled_kicks += 1,
            8 => r.vm_row(vm, at).quarantines += 1,
            9 => r.vm_row(vm, at).resets += 1,
            10 => {
                r.worker_on_core(vm, w, at);
                r.worker_off_core(vm, w, at + arg);
            }
            11 => r.record_worker_pending(vm, w, at, arg % 40),
            _ => r.record_worker_turn(vm, w, at),
        }
    }

    /// The naive reference: every window a call touches holds a row for
    /// every VM and every worker slot.
    struct Dense {
        geom: TelemetryGeometry,
        windows: std::collections::BTreeMap<u64, Window>,
    }

    impl Dense {
        fn window(&mut self, k: u64) -> &mut Window {
            let g = self.geom;
            self.windows.entry(k).or_insert_with(|| Window {
                idx: k,
                vms: (0..g.num_vms as u32).map(VmWin::blank).collect(),
                workers: (0..(g.num_vms * g.workers_per_vm) as u32)
                    .map(WorkerWin::blank)
                    .collect(),
            })
        }

        fn vm(&mut self, vm: u32, at: u64) -> &mut VmWin {
            &mut self.window(at / WINDOW_NS).vms[vm as usize]
        }

        fn worker(&mut self, slot: usize, at: u64) -> &mut WorkerWin {
            &mut self.window(at / WINDOW_NS).workers[slot]
        }

        /// `add(window, overlap)` for each window `[from, to)` overlaps.
        fn slice(&mut self, from: u64, to: u64, mut add: impl FnMut(&mut Window, u64)) {
            if from < to {
                for k in from / WINDOW_NS..=(to - 1) / WINDOW_NS {
                    let overlap = to.min((k + 1) * WINDOW_NS) - from.max(k * WINDOW_NS);
                    add(self.window(k), overlap);
                }
            }
        }

        fn record(&mut self, (hook, vm, at, arg): Op) {
            let wpv = self.geom.workers_per_vm;
            let slot = vm as usize * wpv + (arg % 3).min(wpv as u64 - 1) as usize;
            let v = vm as usize;
            match hook {
                0 => self.vm(vm, at).exits[(arg % EXIT_KINDS as u64) as usize] += 1,
                1 => self.slice(at, at + arg, |w, ns| w.vms[v].guest_ns += ns),
                2 if arg % 2 == 0 => self.vm(vm, at).msi_posted += 1,
                2 => self.vm(vm, at).msi_emulated += 1,
                3 => self.vm(vm, at).msi_redirected += 1,
                4 => {
                    self.vm(vm, at).rx_bytes += arg % 1500;
                    self.vm(vm, at).rx_pkts += 1;
                }
                5 => {
                    self.vm(vm, at).tx_bytes += arg % 1500;
                    self.vm(vm, at).tx_pkts += 1;
                }
                6 => {
                    let row = self.vm(vm, at);
                    row.rx_lat_count += 1;
                    row.rx_lat_sum_ns += arg;
                    row.rx_lat_max_ns = row.rx_lat_max_ns.max(arg);
                    let b = RX_BUCKET_EDGES_US
                        .iter()
                        .position(|&e| arg <= e.saturating_mul(1_000));
                    row.rx_lat_buckets[b.unwrap_or(RX_BUCKETS - 1)] += 1;
                }
                7 => self.vm(vm, at).throttled_kicks += 1,
                8 => self.vm(vm, at).quarantines += 1,
                9 => self.vm(vm, at).resets += 1,
                10 => self.slice(at, at + arg, |w, ns| w.workers[slot].on_core_ns += ns),
                11 => {
                    let row = self.worker(slot, at);
                    row.pending_hwm = row.pending_hwm.max(arg % 40);
                }
                _ => self.worker(slot, at).turns += 1,
            }
        }

        /// `spec`'s rolling values, summed by slot position over every
        /// window index in the span (an untouched index adds nothing).
        fn slo_values(&self, spec: &SloSpec) -> Option<(u64, Vec<f64>)> {
            let (&lo, &hi) = (self.windows.keys().next()?, self.windows.keys().last()?);
            let n = spec.windows.max(1) as u64;
            let wpv = self.geom.workers_per_vm;
            let in_scope = |vm: usize| spec.vm.is_none_or(|s| s as usize == vm);
            let mut out = Vec::new();
            for start in lo..(hi + 2).saturating_sub(n) {
                let (mut guest, mut exits, mut hwm) = (0u64, 0u64, 0u64);
                let (mut buckets, mut count, mut max_ns) = ([0u64; RX_BUCKETS], 0u64, 0u64);
                for w in (start..start + n).filter_map(|k| self.windows.get(&k)) {
                    for (_, row) in w.vms.iter().enumerate().filter(|&(vm, _)| in_scope(vm)) {
                        guest += row.guest_ns;
                        exits += row.exits.iter().sum::<u64>();
                        for (b, c) in buckets.iter_mut().zip(row.rx_lat_buckets) {
                            *b += c;
                        }
                        count += row.rx_lat_count;
                        max_ns = max_ns.max(row.rx_lat_max_ns);
                    }
                    for (slot, row) in w.workers.iter().enumerate() {
                        if in_scope(slot / wpv) {
                            hwm = hwm.max(row.pending_hwm);
                        }
                    }
                }
                let slots = if spec.vm.is_some() {
                    1.0
                } else {
                    self.geom.num_vms as f64
                };
                out.push(match spec.metric {
                    SloMetric::RxP99Us => quantile_from_buckets(&buckets, count, max_ns, 0.99),
                    SloMetric::TigPct => {
                        100.0 * guest as f64 / (slots * n as f64 * WINDOW_NS as f64)
                    }
                    SloMetric::ExitsPerSec => exits as f64 / (n as f64 * (WINDOW_NS as f64 / 1e9)),
                    SloMetric::WorkerPendingHwm => hwm as f64,
                });
            }
            Some((lo, out))
        }
    }

    /// `sparse` holds the rows of `dense` that are not blank, and its
    /// readers give what the reference computes over all rows.
    fn assert_same(sparse: &TelemetryReport, dense: &Dense) {
        let idx: Vec<u64> = sparse.windows.iter().map(|w| w.idx).collect();
        assert!(idx.iter().eq(dense.windows.keys()), "window indices");
        let g = dense.geom;
        for (s, d) in sparse.windows.iter().zip(dense.windows.values()) {
            assert!(
                s.vms.windows(2).all(|p| p[0].vm < p[1].vm),
                "VM rows out of order"
            );
            assert!(
                s.workers.windows(2).all(|p| p[0].slot < p[1].slot),
                "worker rows out of order"
            );
            for row in &d.vms {
                let got = s.vm(row.vm).copied().unwrap_or(VmWin::blank(row.vm));
                assert_eq!(got, *row, "window {} VM {}", d.idx, row.vm);
            }
            for row in &d.workers {
                assert_eq!(
                    worker(s, row.slot),
                    *row,
                    "window {} worker {}",
                    d.idx,
                    row.slot
                );
            }
            let guest: u64 = d.vms.iter().map(|r| r.guest_ns).sum();
            let tig = 100.0 * guest as f64 / (g.num_vms as f64 * WINDOW_NS as f64);
            assert_eq!(sparse.fleet_tig_pct(s), tig);
            let exits: u64 = d.vms.iter().flat_map(|r| r.exits).sum();
            assert_eq!(
                sparse.fleet_exits_per_sec(s),
                exits as f64 / (WINDOW_NS as f64 / 1e9)
            );
            let mut buckets = [0u64; RX_BUCKETS];
            for r in &d.vms {
                for (b, c) in buckets.iter_mut().zip(r.rx_lat_buckets) {
                    *b += c;
                }
            }
            let count = d.vms.iter().map(|r| r.rx_lat_count).sum();
            let max_ns = d.vms.iter().map(|r| r.rx_lat_max_ns).max().unwrap_or(0);
            for q in [0.0, 0.5, 0.99, 1.0] {
                let want = quantile_from_buckets(&buckets, count, max_ns, q);
                assert_eq!(sparse.fleet_rx_quantile_us(s, q), want);
            }
            let hwm = d.workers.iter().map(|r| r.pending_hwm).max().unwrap_or(0);
            assert_eq!(sparse.fleet_pending_hwm(s), hwm);
        }
        let metrics = [
            SloMetric::RxP99Us,
            SloMetric::TigPct,
            SloMetric::ExitsPerSec,
            SloMetric::WorkerPendingHwm,
        ];
        for metric in metrics {
            for vm in [None, Some(0), Some(3)] {
                for windows in [1, 3] {
                    let spec = SloSpec {
                        name: "prop",
                        metric,
                        vm,
                        threshold: 0.0,
                        above_is_bad: true,
                        windows,
                    };
                    assert_eq!(
                        sparse.slo_values(&spec),
                        dense.slo_values(&spec),
                        "{spec:?}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// Random record calls over four VMs and eight windows, in random
        /// time order (so intervals backfill earlier windows), give the
        /// sparse recorder and the dense reference the same readings;
        /// split across two hosts and overlaid, they still do.
        #[test]
        fn prop_sparse_rows_read_like_dense_rows(
            ops in proptest::collection::vec(
                (0u8..13, 0u32..4, 0u64..8_000_000, 0u64..3_000_000),
                0..80,
            ),
        ) {
            let g = geom(4);
            let mut dense = Dense { geom: g, windows: Default::default() };
            let mut one = TelemetryRecorder::new(g, 0);
            let mut hosts = [TelemetryRecorder::new(g, 0), TelemetryRecorder::new(g, 0)];
            for (i, &op) in ops.iter().enumerate() {
                dense.record(op);
                record(&mut one, op);
                record(&mut hosts[i % 2], op);
            }
            assert_same(&one.finish(0), &dense);
            let [a, b] = hosts;
            let mut merged = a.finish(0);
            merged.overlay(b.finish(0));
            assert_same(&merged, &dense);
        }
    }
}

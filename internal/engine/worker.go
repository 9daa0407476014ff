package engine

import (
	"time"

	"repro/internal/coord"
	"repro/internal/queueing"
	"repro/internal/storage"
)

// worker is one parallel evaluation thread (Algorithm 2). It owns one
// replica per (stratum predicate, access path), drains its SPSC inbox
// rings, evaluates delta variants, and distributes derivations.
type worker struct {
	id  int
	run *stratumRun

	// inbox is this worker's wakeup bitmap (run.inboxes[id]).
	inbox *coord.Inbox

	// freeFrames is the producer-local frame free list. Frames this
	// worker sent come back to it through the per-edge recycle rings
	// and are reused here, so a frame's backing arrays stay with the
	// worker whose batch sizes shaped them.
	freeFrames []*frame

	// replicas[pred][path] is this worker's partition of the relation.
	replicas [][]*replica

	// outBufs[dest][pred][path] batches outgoing tuples with partial
	// aggregation (the Distribute operator).
	outBufs [][][]*outBatch

	arrivals []*queueing.ArrivalTracker
	service  queueing.ServiceTracker

	// baseKernels[i] executes run.st.BaseRules[i]; recKernels[pred][path]
	// holds one kernel per delta variant in run.variants[pred][path].
	// Kernels own their slot scratch and per-frame cursors, so the
	// per-tuple path touches no maps and allocates nothing.
	baseKernels []*kernel
	recKernels  [][][]*kernel

	// wireBufs[pred] is the reusable wire-tuple scratch emit writes
	// derivations into before they are hashed and routed.
	wireBufs []storage.Tuple

	// Self-bound derivations are buffered flat until the end of the
	// local iteration (Algorithm 2 line 16: R ← R ∪ δ happens after
	// evaluation, and the replica trees must not mutate under an active
	// probe). selfWords holds the tuple words back to back; selfRefs
	// records routing plus each tuple's precomputed wire hash. Both
	// buffers are reset, not reallocated, every iteration.
	selfWords []storage.Value
	selfRefs  []selfRef

	// flushPending queues out-batches that crossed flushCap rows while a
	// kernel was executing; they are flushed at the next cursor-safe
	// point (between kernel executions). Capping batch size keeps each
	// batch's dedup table cache-resident and ships derivations to their
	// consumers before the local iteration ends.
	flushPending []flushKey
	flushCap     int

	// pc is this worker's probe-counter bag: every kernel frame holds a
	// pointer to it, and runStratum folds it into StratumStats.Probe.
	// Plain int64s — single writer, read only after the worker exits.
	pc storage.ProbeCounters
	// stages is the staged probe pipeline's fixed per-worker scratch.
	stages [probeGroup]probeStage

	localIters    int64
	waitTime      time.Duration
	busyTime      time.Duration
	merged        int64
	droppedDeltas bool
}

// selfRef is one buffered self-bound derivation: an offset into the
// worker's selfWords arena plus the tuple's wire hash.
type selfRef struct {
	pred, path int32
	off        int32
	hash       uint64
}

// flushKey names one (destination, predicate, path) out-batch.
type flushKey struct {
	dest, pred, path int32
}

// flushPendingBatches sends every batch that crossed the row cap. Only
// legal between kernel executions: flushBatch may gather (and therefore
// merge into the replica trees) when a ring is full.
func (w *worker) flushPendingBatches() {
	for _, k := range w.flushPending {
		b := w.outBufs[k.dest][k.pred][k.path]
		if b.count > 0 {
			w.flushBatch(int(k.dest), int(k.pred), int(k.path), b)
		}
	}
	w.flushPending = w.flushPending[:0]
}

// drainSelf merges the buffered self-bound derivations and resets the
// flat buffers for reuse (mergeWire copies everything it retains).
func (w *worker) drainSelf() {
	w.run.derived.Add(int64(len(w.selfRefs)))
	refs := w.selfRefs
	for i, m := range refs {
		// Request the dedup-table slot line of a tuple a fixed distance
		// ahead (see mergeAhead): the self-pending refs carry their wire
		// hashes, so the probe's first random load overlaps the current
		// tuple's merge.
		if j := i + mergeAhead; j < len(refs) {
			n := &refs[j]
			if set := w.replicas[n.pred][n.path].set; set != nil {
				set.PrefetchSlot(n.hash)
			}
		}
		width := w.run.widths[m.pred]
		wire := storage.Tuple(w.selfWords[m.off : int(m.off)+width])
		if w.replicas[m.pred][m.path].mergeWire(m.hash, wire) {
			w.merged++
		}
	}
	w.selfRefs = w.selfRefs[:0]
	w.selfWords = w.selfWords[:0]
}

func newWorker(run *stratumRun, id int) *worker {
	// Four frames' worth of rows per out-batch keeps the batch's dedup
	// slot table small enough to stay cache-resident while preserving
	// most of the within-iteration dedup scope.
	w := &worker{id: id, run: run, flushCap: 4 * run.opts.BatchSize, inbox: run.inboxes[id]}
	w.wireBufs = make([]storage.Tuple, len(run.st.Preds))
	for pi := range run.st.Preds {
		w.wireBufs[pi] = make(storage.Tuple, run.widths[pi])
	}
	w.replicas = make([][]*replica, len(run.st.Preds))
	for pi, p := range run.st.Preds {
		w.replicas[pi] = make([]*replica, len(p.Plan.Paths))
		for path := range p.Plan.Paths {
			rep := newReplica(p, path, &run.opts)
			rep.consume = run.consume[pi][path]
			w.replicas[pi][path] = rep
		}
	}
	w.outBufs = make([][][]*outBatch, run.n)
	for d := range w.outBufs {
		if d == id {
			continue
		}
		w.outBufs[d] = make([][]*outBatch, len(run.st.Preds))
		for pi, p := range run.st.Preds {
			w.outBufs[d][pi] = make([]*outBatch, len(p.Plan.Paths))
			for path := range p.Plan.Paths {
				w.outBufs[d][pi][path] = newOutBatch(p, !run.opts.NoPartialAgg)
			}
		}
	}
	w.arrivals = make([]*queueing.ArrivalTracker, run.n)
	for j := range w.arrivals {
		w.arrivals[j] = &queueing.ArrivalTracker{}
	}
	// Compile every rule variant into this worker's cursor kernels
	// (replicas must exist first: join frames resolve replica indexes
	// and trees at construction).
	w.baseKernels = make([]*kernel, len(run.st.BaseRules))
	for i, r := range run.st.BaseRules {
		w.baseKernels[i] = w.newKernel(r)
	}
	w.recKernels = make([][][]*kernel, len(run.variants))
	for pi, paths := range run.variants {
		w.recKernels[pi] = make([][]*kernel, len(paths))
		for path, rules := range paths {
			ks := make([]*kernel, len(rules))
			for vi, r := range rules {
				ks[vi] = w.newKernel(r)
			}
			w.recKernels[pi][path] = ks
		}
	}
	return w
}

// canceled reports whether the run's context was canceled. One shared
// atomic load of a read-mostly word — cheap enough for per-tuple seed
// loops and per-block delta rechecks.
func (w *worker) canceled() bool { return w.run.rc.canceled() }

// pendingDelta counts tuples waiting in consumed delta queues.
func (w *worker) pendingDelta() int {
	total := 0
	for _, paths := range w.replicas {
		for _, rep := range paths {
			total += len(rep.delta)
		}
	}
	return total
}

// gather drains the flagged inbox rings and merges the tuples (the
// Gather operator); it returns the number of tuples consumed. The inbox
// bitmap is claimed before the rings are scanned — the producer-side
// mirror (push, then flag) makes that order lossless — so an empty
// gather costs one word load instead of touching every ring's index
// lines. Drained frames are recycled to the worker that sized them.
func (w *worker) gather() int {
	total := 0
	w.inbox.Drain(func(j int) {
		q := w.run.queues[w.id][j]
		q.Drain(func(f *frame) {
			n := int(f.count)
			w.arrivals[j].Record(n, f.sentAt)
			rep := w.replicas[f.pred][f.path]
			w.merged += int64(rep.mergeFrame(f))
			w.run.det.Consume(w.id, n)
			total += n
			w.recycleFrame(j, f)
		})
	})
	return total
}

// recycleFrame hands a drained frame back to the producer that owns it
// through the per-edge recycle ring. The caller must not touch the
// frame (or views into it) afterwards. A full ring — the owner is far
// behind on reclaiming — drops the frame for the GC; circulation per
// edge is bounded by the ring capacities, so this cannot leak.
func (w *worker) recycleFrame(owner int, f *frame) {
	f.count = 0
	w.run.recycle[owner][w.id].TryPush(f)
}

// getFrame returns a frame sized for n rows of the given width, reusing
// the producer-local free list and refilling it from this worker's
// recycle rings before falling back to allocation.
func (w *worker) getFrame(width, n int) *frame {
	if len(w.freeFrames) == 0 {
		for _, q := range w.run.recycle[w.id] {
			if q == nil {
				continue
			}
			q.Drain(func(f *frame) { w.freeFrames = append(w.freeFrames, f) })
		}
	}
	var f *frame
	if k := len(w.freeFrames) - 1; k >= 0 {
		f = w.freeFrames[k]
		w.freeFrames[k] = nil
		w.freeFrames = w.freeFrames[:k]
	} else {
		f = &frame{}
	}
	if cap(f.hashes) < n {
		f.hashes = make([]uint64, n)
	}
	if cap(f.words) < n*width {
		f.words = make([]storage.Value, n*width)
	}
	f.hashes = f.hashes[:n]
	f.words = f.words[:n*width]
	f.width = int32(width)
	f.count = int32(n)
	return f
}

// inboxNonEmpty cheaply checks for queued messages: one bitmap load.
func (w *worker) inboxNonEmpty() bool {
	return w.inbox.Any()
}

// runBaseRules seeds the stratum: every worker evaluates a stripe of
// each base rule's outer relation.
func (w *worker) runBaseRules() {
	busyStart := w.run.clk.Refresh()
	for _, k := range w.baseKernels {
		if k.outer == nil {
			// Fact-style rule (conditions/lets only): one execution.
			if w.id == 0 {
				w.exec(k)
			}
			continue
		}
		tuples := w.run.store.scan(k.outer.Pred)
		for i := w.id; i < len(tuples); i += w.run.n {
			if w.canceled() {
				// Abandon the seed mid-stripe: the run returns an
				// error and nothing here is materialized.
				return
			}
			if k.bindOuter(tuples[i]) {
				w.exec(k)
			}
			w.drainChecks()
		}
	}
	w.busyTime += time.Duration(w.run.clk.Refresh() - busyStart)
	w.drainSelf()
	w.flushAll()
}

// runAsync is the worker loop shared by SSP and DWS (and by every
// non-recursive stratum): Algorithm 2 with the asynchronous
// global-fixpoint detector of §6.1.
func (w *worker) runAsync() {
	w.runBaseRules()
	for {
		if w.canceled() {
			return
		}
		w.gather()
		total := w.pendingDelta()
		if total == 0 {
			if w.park() {
				return
			}
			continue
		}
		if w.run.st.Recursive {
			switch w.run.opts.Strategy {
			case coord.DWS:
				w.dwsGate(total)
			case coord.SSP:
				w.sspGate()
			}
		}
		w.iterate()
	}
}

// runGlobal is the BSP loop of Algorithm 1: evaluate, barrier, gather,
// agree on emptiness.
func (w *worker) runGlobal() {
	w.runBaseRules()
	w.run.bar.Wait(false) // all seed messages enqueued
	for {
		if w.canceled() {
			// The barrier is canceled too (runCancel.trigger), so no
			// peer blocks waiting for our arrival.
			return
		}
		w.gather()
		has := w.pendingDelta() > 0
		waitStart := w.run.clk.Refresh()
		anyDelta := w.run.bar.Wait(has)
		w.waitTime += time.Duration(w.run.clk.Refresh() - waitStart)
		if w.id == 0 {
			w.run.stats.GlobalBarriers++
		}
		if !anyDelta {
			return
		}
		if has {
			w.iterate()
		}
		waitStart = w.run.clk.Refresh()
		w.run.bar.Wait(false) // all sends of this round enqueued
		w.waitTime += time.Duration(w.run.clk.Refresh() - waitStart)
	}
}

// park marks the worker inactive and waits for new input or the global
// fixpoint; it returns true when evaluation is over. The wait loop spins
// on this worker's one inbox word — the only line a producer touches to
// wake us — and throttles the O(workers) TryFinish scan: it runs on
// power-of-two rounds while yielding and on every sleep tick once the
// backoff has escalated, so a parked fleet probes the shards at sleep
// frequency instead of spin frequency.
func (w *worker) park() bool {
	w.run.det.SetInactive(w.id)
	w.run.clock.Park(w.id)
	clk := w.run.clk
	start := clk.Refresh()
	defer func() { w.waitTime += time.Duration(clk.Refresh() - start) }()
	b := coord.Backoff{Clk: clk}
	slept := true // probe TryFinish on the first round
	for round := uint(0); ; round++ {
		if w.canceled() {
			// A canceled run never reaches the detector's fixpoint
			// (exiting peers may strand produced-but-unconsumed
			// frames), so the parked fleet exits on the cancel flag:
			// each spin round polls it, so the wakeup lands within one
			// backoff tick (≤ BackoffSleepMax of sleep).
			return true
		}
		if w.inboxNonEmpty() {
			w.run.det.SetActive(w.id)
			w.run.clock.Unpark(w.id)
			return false
		}
		if slept || round&(round-1) == 0 {
			if w.run.det.TryFinish() {
				return true
			}
		}
		slept = b.Pause()
	}
}

// dwsGate implements lines 5–8 of Algorithm 2: derive (ω, τ) from the
// queueing statistics and wait for the delta to fatten, bounded by the
// timeout.
func (w *worker) dwsGate(total int) {
	lambda, sigmaA2 := queueing.Combine(w.arrivals)
	d := queueing.Decide(lambda, sigmaA2, w.service.Mu(), w.service.SigmaS2(), w.run.opts.MaxWait.Seconds())
	if d.Omega <= 0 || total >= d.Omega {
		return
	}
	clk := w.run.clk
	start := clk.Refresh()
	deadline := start + int64(d.Tau*float64(time.Second))
	b := coord.Backoff{Clk: clk}
	for clk.Now() < deadline {
		if w.canceled() {
			break
		}
		b.Pause()
		// pendingDelta scans every replica; skip it when the tick
		// gathered nothing — the delta cannot have fattened.
		if w.gather() > 0 {
			total = w.pendingDelta()
			if total == 0 || total >= d.Omega {
				break
			}
		}
	}
	w.waitTime += time.Duration(clk.Refresh() - start)
}

// sspGate blocks while the worker is more than Slack local iterations
// ahead of the slowest active worker, gathering while it waits.
func (w *worker) sspGate() {
	if w.run.clock.MayProceed(w.id) {
		return
	}
	clk := w.run.clk
	start := clk.Refresh()
	b := coord.Backoff{Clk: clk}
	for {
		w.gather()
		if w.run.clock.MayProceed(w.id) {
			break
		}
		if w.canceled() {
			// Peers that exited on cancel never Advance their clocks;
			// without this check a fast worker could spin here forever.
			break
		}
		b.Pause()
	}
	w.waitTime += time.Duration(clk.Refresh() - start)
}

// deltaBlock is the number of outer delta tuples one rule variant binds
// before the next variant runs. Processing block-at-a-time keeps one
// kernel's frames, cursors and index nodes hot in cache across the
// whole block instead of touching every variant's working set per
// tuple; the block itself stays small enough to sit in L1/L2.
const deltaBlock = 256

// selfDrainWords bounds the self-pending arena. Left unchecked, one
// local iteration of a dense aggregate workload buffers every self-bound
// derivation until the iteration ends — tens of MB of doubling churn —
// and merges improved aggregates only after the whole delta is
// evaluated. Draining once the buffer passes this threshold keeps it
// cache-sized and makes better aggregate values visible to later probes
// of the same iteration, which coalesces away derivations that are
// already stale. Draining is only legal between kernel executions: no
// cursor is live then, so the replica trees may mutate. Merging early
// is monotone — a tuple merged now instead of at the iteration's end
// can only suppress derivations that dedup would discard anyway.
const selfDrainWords = 1 << 15

// iterate runs one local iteration: evaluate every pending delta tuple
// through its variants, then distribute the derivations. The delta is
// processed in blocks — for each block, every variant kernel drives all
// its join levels over the whole block before the next variant starts.
func (w *worker) iterate() {
	// Refreshing the coarse clock at the iteration boundary also keeps
	// the sentAt stamps flushBatch reads from it honest: a frame's stamp
	// is at most one local iteration stale.
	start := w.run.clk.Refresh()
	processed := 0
	// A canceled worker still drains its deltas (takeDelta) so exits
	// stay cheap, but evaluates none of them — same shape as a blown
	// budget, except the run returns the context's error, not Capped.
	capped := w.canceled() ||
		(w.run.opts.MaxLocalIters > 0 && w.localIters >= int64(w.run.opts.MaxLocalIters)) ||
		(w.run.opts.MaxTuples > 0 && w.run.derived.Load() > w.run.opts.MaxTuples)
	for pi, paths := range w.replicas {
		for path, rep := range paths {
			if len(rep.delta) == 0 {
				continue
			}
			delta := rep.takeDelta()
			processed += len(delta)
			if capped {
				w.droppedDeltas = true
				continue
			}
			kernels := w.recKernels[pi][path]
			busyStart := w.run.clk.Refresh()
			for lo := 0; lo < len(delta); lo += deltaBlock {
				// Re-check the tuple budget (and the cancel flag) per
				// block: diverging programs can explode inside a
				// single iteration.
				if w.canceled() {
					w.droppedDeltas = true
					break
				}
				if w.run.opts.MaxTuples > 0 &&
					w.run.derived.Load() > w.run.opts.MaxTuples {
					w.droppedDeltas = true
					break
				}
				hi := lo + deltaBlock
				if hi > len(delta) {
					hi = len(delta)
				}
				block := delta[lo:hi]
				for _, k := range kernels {
					w.execBlock(k, block)
				}
			}
			w.busyTime += time.Duration(w.run.clk.Refresh() - busyStart)
		}
	}
	w.drainSelf()
	w.flushAll()
	w.service.Record(processed, float64(w.run.clk.Refresh()-start)/1e9)
	w.localIters++
	w.run.clock.Advance(w.id)
}

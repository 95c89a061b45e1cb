package server

import (
	"fmt"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/simclock"
)

// Lanes (DESIGN.md §12). Serving a run of requests has two kinds of
// stage. Stage 1 runs once per request, whatever the lane count: the
// run's routing (FrameTable), the engine call or the cost row, the LLC
// hit bit and the GC pause. It writes every lane's pre-noise service
// time into a Frame. The lane stage runs once per lane: it multiplies
// the lane's times by its noise stream, adds the pauses, rounds each to
// a latency and advances the lane's clock — and the client folds the
// latencies into the lane's histograms.
//
// A lane is one priced view of the engine walk: a noise stream, a clock
// and a tier. Lane 0 is the deployment's own, seeded Config.Seed and
// priced on the tier its placement gives each record. AddLane adds
// lanes that price every record on one tier. They exist only beside a
// uniform placement: with every record on one instance, the engine
// traces do not depend on which instance that is, so the walk lane 0
// drives is every lane's walk. The FastMem and SlowMem baselines of the
// Sensitivity Engine are two lanes of one deployment: one Load, one
// engine walk and one re-price serve both.

// lane is one lane's state.
type lane struct {
	// seedOffset is the lane's seed minus lane 0's: ResetRun re-seeds
	// lane k at seed + seedOffset, so the offset survives the
	// repetition and shard seed strides, which are additive.
	seedOffset int64
	noise      *Noise
	clock      simclock.Clock
	// tier is the tier every record is priced on, and machine accounts
	// its capacity; lane 0 uses the placement's tiers and d.machine.
	tier    memsim.Tier
	machine *memsim.Machine
}

// AddLane adds a lane that prices every record on tier, with a noise
// stream seeded Config.Seed + seedOffset, and returns its index. Lanes
// are added before Load, which then requires a uniform placement and
// accounts every lane's capacity. A deployment with more than one lane
// serves whole frames through a client replay only: ApplyMoves, DoIndex
// and ReplayTable.Serve panic on it.
func (d *Deployment) AddLane(tier memsim.Tier, seedOffset int64) int {
	d.lanes = append(d.lanes, &lane{
		seedOffset: seedOffset,
		noise:      NewNoise(d.cfg.NoiseSigma, d.cfg.Seed+seedOffset),
		tier:       tier,
		machine:    memsim.NewMachine(d.cfg.Machine),
	})
	d.bufs = [FrameBuffers]*Frame{}
	d.telem.countDeployment(d.cfg.Engine)
	return len(d.lanes) - 1
}

// Lanes reports the deployment's lane count.
func (d *Deployment) Lanes() int { return len(d.lanes) }

// LaneClock returns lane k's simulated time.
func (d *Deployment) LaneClock(k int) simclock.Duration { return d.lanes[k].clock.Now() }

// laneTier is the tier lane k prices record i on.
func (d *Deployment) laneTier(k, i int) memsim.Tier {
	if k == 0 {
		return d.tiers[i]
	}
	return d.lanes[k].tier
}

// LaneError is a Load failure of one lane: the lane's capacity cannot
// hold the dataset. Its text is the failure's own.
type LaneError struct {
	Lane int
	Err  error
}

func (e *LaneError) Error() string { return e.Err.Error() }
func (e *LaneError) Unwrap() error { return e.Err }

// allocLane accounts every record on lane k's tier of its machine.
func (d *Deployment) allocLane(k int) error {
	m := d.machine
	if k > 0 {
		m = d.lanes[k].machine
	}
	for i := range d.records {
		rec := &d.records[i]
		if err := m.Node(d.laneTier(k, i)).Alloc(int64(rec.Size)); err != nil {
			return &LaneError{Lane: k, Err: fmt.Errorf("server: loading %q: %w", rec.Key, err)}
		}
	}
	return nil
}

// pauseAt is a GC pause stage 1 found: request i of the frame stalls
// for ns after its noise is applied.
type pauseAt struct {
	i  int
	ns float64
}

// Frame is one trace frame's stage-1 output, the arrays the lane stage
// prices from — each lane's pre-noise service time per request, the LLC
// hit bits and the pauses — and each lane's latencies, which the lane
// stage writes for the caller to fold (Lat). A deployment has
// FrameBuffers of them, so a client can let the lanes after the first
// price earlier frames, and every lane's latencies be folded, while
// stage 1 fills the next.
type Frame struct {
	ns     [][]float64           // ns[k][i]: lane k's service time of request i
	lat    [][]simclock.Duration // lat[k][i]: lane k's latency of request i
	hit    []uint8               // request i's LLC outcome, 1 = hit
	pauses []pauseAt             // in request order
}

// Lat returns lane k's latency buffer, ReplayBlockOps long.
func (f *Frame) Lat(k int) []simclock.Duration { return f.lat[k] }

// Frame returns the deployment's frame buffer b, built on first use.
// Load builds the ones a run of its lanes uses, so a replay allocates
// none. Only what is read frames behind stage 1 is per buffer: the
// service times of the lanes after the first, the pauses, and lane 0's
// latencies, which stage 1's goroutine writes and a lane helper folds.
// Every buffer shares buffer 0's hit bits, lane 0's service times and
// the other lanes' latencies, which stage 1 and each lane use one frame
// at a time.
func (d *Deployment) Frame(b int) *Frame {
	if d.bufs[b] != nil {
		return d.bufs[b]
	}
	f := &Frame{ns: make([][]float64, len(d.lanes)), lat: make([][]simclock.Duration, len(d.lanes))}
	f.lat[0] = make([]simclock.Duration, ReplayBlockOps)
	if b == 0 {
		f.hit = make([]uint8, ReplayBlockOps)
		for k := 1; k < len(f.lat); k++ {
			f.lat[k] = make([]simclock.Duration, ReplayBlockOps)
		}
		f.ns[0] = make([]float64, ReplayBlockOps)
	} else {
		f0 := d.Frame(0)
		f.hit, f.ns[0] = f0.hit, f0.ns[0]
		copy(f.lat[1:], f0.lat[1:])
	}
	for k := 1; k < len(f.ns); k++ {
		f.ns[k] = make([]float64, ReplayBlockOps)
	}
	d.bufs[b] = f
	return f
}

// FrameBuffers is the number of frame buffers a deployment has: the
// lanes after the first may fall this many frames, less one, behind
// stage 1 before it waits for them.
const FrameBuffers = 8

// buildFrames builds the frame buffers a run uses: the others only for
// the lanes after the first, which price behind stage 1.
func (d *Deployment) buildFrames() {
	d.Frame(0)
	if len(d.lanes) > 1 {
		for b := 1; b < FrameBuffers; b++ {
			d.Frame(b)
		}
	}
}

// ServeRun serves requests [from, end) of a frame — keys[i] a dataset
// record index, kinds[i] its op kind — down the path FrameTable named
// for them: through t's cost rows, or per-op through the engines when t
// is nil. Stage 1 writes every lane's service times into f; lane 0's
// stage then prices them, writing the latencies into lat[:end-from].
// The other lanes are priced by PriceLane once the frame is served.
func (d *Deployment) ServeRun(f *Frame, t *ReplayTable, keys []uint32, kinds []uint8, from, end int, lat []simclock.Duration) {
	if from == 0 {
		f.pauses = f.pauses[:0]
	}
	path := pathKernel
	if t != nil {
		t.stage1(f, keys, kinds, from, end)
	} else {
		d.stage1PerOp(f, keys, kinds, from, end)
		path = pathPerOp
	}
	d.finishRun(f, from, end, path, lat)
}

// finishRun runs lane 0's stage over requests [from, end) of f and
// tallies them.
func (d *Deployment) finishRun(f *Frame, from, end, path int, lat []simclock.Duration) {
	d.lanes[0].price(f, 0, from, end, lat)
	n := end - from
	d.ops += n
	d.reqs[path] += int64(n)
	if d.llcs != nil || d.llc != nil {
		hits := 0
		for _, h := range f.hit[from:end] {
			hits += int(h)
		}
		d.tallyLLC(hits, n)
	}
}

// PriceLane runs lane k's stage over the first n requests of f, which
// ServeRun filled, writing the latencies into lat[:n]. Lanes after the
// first share no state with stage 1 or with each other, so PriceLane of
// one frame may run on another goroutine while ServeRun fills another
// of the FrameBuffers frames.
func (d *Deployment) PriceLane(f *Frame, k, n int, lat []simclock.Duration) {
	d.lanes[k].price(f, k, 0, n, lat)
}

// oneLane panics when d has more than one lane: op serves or moves lane
// 0 alone, which would leave the other lanes behind.
func (d *Deployment) oneLane(op string) {
	if len(d.lanes) > 1 {
		panic("server: " + op + " on a deployment of more than one lane")
	}
}

// price is the lane stage over requests [from, to) of f: the noise
// stream scales the lane's service times, the pauses are added, and
// each time is rounded to a latency, written to lat[i-from], and added
// to the clock.
//
// The noise multiply is rounded to a float64 before the pause is added
// and the sum before it is rounded to a latency, so every path prices a
// request with the same float operations.
func (l *lane) price(f *Frame, k, from, to int, lat []simclock.Duration) {
	ns := f.ns[k][from:to]
	l.noise.Scale(ns)
	for _, p := range f.pauses {
		if p.i >= from && p.i < to {
			ns[p.i-from] += p.ns
		}
	}
	lat = lat[:len(ns)]
	var sum simclock.Duration
	for i, x := range ns {
		v := simclock.FromNanos(x)
		sum += v
		lat[i] = v
	}
	l.clock.Advance(sum)
}

// stage1PerOp is stage 1 of a per-op run: each request drives the engine
// instance that holds its record, and its trace is priced on every
// lane's medium — the LLC on a hit, else the lane's tier. It returns
// whether the run's last request found its record.
func (d *Deployment) stage1PerOp(f *Frame, keys []uint32, kinds []uint8, from, end int) bool {
	d.takeHits(keys[from:end], kinds[from:end], f.hit[from:end])
	found := false
	for i := from; i < end; i++ {
		idx := int(keys[i])
		kind := kvstore.OpKind(kinds[i])
		rec := &d.records[idx]
		if kind != kvstore.Read {
			d.noteStructural(idx, kind)
		}
		st := d.instances[d.tiers[idx]]
		var tr kvstore.OpTrace
		switch kind {
		case kvstore.Read:
			_, tr = st.GetID(rec.Key, rec.ID)
		case kvstore.Write:
			tr = st.PutID(rec.Key, rec.ID, kvstore.Value{Size: rec.Size})
		case kvstore.Delete:
			tr = st.DelID(rec.Key, rec.ID)
		default:
			panic(fmt.Sprintf("server: unknown op kind %v", kind))
		}
		vb := d.valueBytes(tr, rec.Size)
		if f.hit[i] == 1 {
			c := d.staticCost(kind, tr.Chases, tr.Touched, vb, &memsim.LLCParams)
			for k := range d.lanes {
				f.ns[k][i] = c
			}
		} else {
			for k := range d.lanes {
				f.ns[k][i] = d.staticCost(kind, tr.Chases, tr.Touched, vb, &d.machine.Node(d.laneTier(k, idx)).Params)
			}
		}
		if p := st.TakePauseNs(); p != 0 {
			f.pauses = append(f.pauses, pauseAt{i: i, ns: p})
		}
		found = tr.Found
	}
	return found
}

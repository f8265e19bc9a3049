package pgas

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"

	"cafteams/internal/cluster"
	"cafteams/internal/machine"
	"cafteams/internal/sim"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// This file is the discrete-event simulation transport: images execute as
// simulated processes (internal/sim), every remote operation is charged
// through the machine model (internal/machine), and traffic serializes
// through the per-node resources owned by a cluster.Cluster:
//
//   - nic[n]: the node's network interface; all inter-node messages occupy
//     it on both the sending and receiving side (LogGP gap).
//   - progress[n]: the conduit's software progress engine; intra-node
//     messages sent through the portable conduit path serialize through it —
//     the paper's "on a shared memory system, in the worst case, all those
//     notifications would have to be serialized".
//   - membus[n]: the shared-memory path used by hierarchy-aware algorithms
//     for peers they know to be on the same node; far cheaper.

// simTransport is the sim backend: the Transport and the world's state on the
// discrete-event kernel.
type simTransport struct {
	w        *World
	hw       *cluster.Cluster
	env      *sim.Env
	nic      []*sim.Resource // per node (aliases hw's resources)
	progress []*sim.Resource // per node, conduit software path
	membus   []*sim.Resource // per node, shared-memory path

	// rowCond[r] is woken by every flag mutation landing on rank r's rows
	// (any flags array): it serves both WaitFlagGE waiters and the rank's
	// split-phase progress engine.
	rowCond []sim.Cond

	img []simImage // per rank, one slab like World.images

	// freeDel is the delivery-record free list (LIFO). Records cycle
	// strictly within scheduler context (see sim.Env), so a plain slice is
	// both safe and deterministic.
	freeDel []*delivery

	// Injected state of the NICs and wires above (FaultPlan's NIC and link
	// events), mutated in scheduler context and read by route and dropped
	// only. All nil until Launch arms a plan: a world without one pays a nil
	// test per inter-node message for the fault model, and nothing else.
	nicFactor []float64          // per node occupancy multiplier, 1 = healthy
	linkDelay map[[2]int]Time    // extra latency src node -> dst node
	linkDrop  map[[2]int]float64 // drop probability src node -> dst node
	drops     *rand.Rand         // the plan's seeded drop-probability stream
	// linkArrive is the latest wire arrival per node pair (src*len(nic)+dst),
	// made only for a plan with a link delay: so no message overtakes one sent
	// during a delay, and delivery stays ordered per image pair.
	linkArrive []Time
}

// Wait kinds for simImage's reusable wait record.
const (
	wNone    uint8 = iota
	wFlag          // wd's flag cell >= wd.min
	wQuiet         // outstanding == 0
	wGeneric       // wPred()
)

// simImage is the sim backend's per-image state.
type simImage struct {
	im   *Image
	proc *sim.Proc
	// hb is the image's heartbeat stamper process, when heartbeats are
	// enabled; killed together with the image so its stamps go stale.
	hb *sim.Proc

	// outstanding counts issued-but-undelivered one-sided operations;
	// Quiet waits for it to reach zero.
	outstanding int
	quietCond   sim.Cond

	// Reusable wait record. An image is in at most one blocking wait at a
	// time, so one record (and the once-built eval closure over it)
	// replaces the per-wait predicate closures and fmt.Sprintf why strings
	// the hot wait path used to allocate. wd holds the operands: for wFlag
	// the (flags, owner, idx, min) tuple, so the predicate is a direct atomic
	// load; wGeneric falls back to an arbitrary predicate.
	wKind     uint8
	wTimedOut bool
	wEp0      int64
	wd        waitDesc
	wPred     func() bool
	eval      func() bool // prebound (*simImage).waitEval
}

// waitPredNow evaluates the ground-truth wait predicate (no interrupt
// disjuncts) for the image's current wait record.
func (si *simImage) waitPredNow() bool {
	switch si.wKind {
	case wFlag:
		return si.wd.f.load(si.wd.owner, si.wd.idx) >= si.wd.min
	case wQuiet:
		return si.outstanding == 0
	default:
		return si.wPred()
	}
}

// waitEval is the cond predicate: the wait is released by the ground truth,
// a timeout, or an unacknowledged failure announcement.
func (si *simImage) waitEval() bool {
	if si.waitPredNow() {
		return true
	}
	return si.wTimedOut || si.im.w.faults.epochLoad() != si.wEp0
}

// NewWorld creates a world with one image per placed rank in topo, on a
// private simulated machine owned by this world alone. The caller launches
// image bodies with Launch (driving env) or Run.
func NewWorld(env *sim.Env, model *machine.Model, topo *topology.Topology, stats *trace.Stats) (*World, error) {
	coresPerSocket := topo.CoresPerNode() / topo.SocketsPerNode()
	hw, err := cluster.NewWithEnv(env, model, topo.NumNodes(), topo.SocketsPerNode(), coresPerSocket)
	if err != nil {
		return nil, err
	}
	return NewWorldOn(hw, topo, stats)
}

// NewSimWorld is NewWorld on a fresh private sim.Env. It exists so layers
// above the Transport seam (caf in particular) can ask for the simulated
// backend without importing internal/sim themselves — a boundary the
// layers analyzer in internal/lint now enforces mechanically.
func NewSimWorld(model *machine.Model, topo *topology.Topology, stats *trace.Stats) (*World, error) {
	return NewWorld(sim.NewEnv(), model, topo, stats)
}

// NewWorldOn creates a world on an externally owned simulated cluster: the
// world uses the cluster's environment, model and per-node resources, so its
// traffic contends with every other world on the same cluster. topo's node
// ids are physical cluster node ids and must fit the cluster's shape; core
// allocation (which job owns which core) is the scheduler's business, not
// checked here.
func NewWorldOn(hw *cluster.Cluster, topo *topology.Topology, stats *trace.Stats) (*World, error) {
	if topo.NumNodes() > hw.Nodes() {
		return nil, fmt.Errorf("pgas: topology spans %d nodes but cluster has %d", topo.NumNodes(), hw.Nodes())
	}
	if topo.CoresPerNode() > hw.CoresPerNode() {
		return nil, fmt.Errorf("pgas: topology wants %d cores/node but cluster has %d", topo.CoresPerNode(), hw.CoresPerNode())
	}
	s := &simTransport{
		hw:       hw,
		env:      hw.Env(),
		nic:      hw.NICs(),
		progress: hw.ProgressEngines(),
		membus:   hw.Membuses(),
		rowCond:  make([]sim.Cond, topo.NumImages()),
		img:      make([]simImage, topo.NumImages()),
	}
	s.w = newWorld(s, hw.Model(), topo, stats)
	for r, im := range s.w.images {
		si := &s.img[r]
		si.im = im
		si.eval = si.waitEval
	}
	return s.w, nil
}

// Cluster returns the simulated machine this world runs on, or nil on the
// native backend.
func (w *World) Cluster() *cluster.Cluster {
	if s, ok := w.tr.(*simTransport); ok {
		return s.hw
	}
	return nil
}

func (*simTransport) Name() string { return "sim" }

// Immediate reports false: sim puts deliver asynchronously at a later
// simulated time, so Put must stage its payload.
func (*simTransport) Immediate() bool { return false }

func (s *simTransport) Launch(body func(*Image)) {
	w := s.w
	for _, img := range w.images {
		img := img
		s.env.Spawn(fmt.Sprintf("%simage%d", w.label, img.rank), func(p *sim.Proc) {
			si := &s.img[img.rank]
			si.proc = p
			p.Describe = si.wd.String // bound to the record: String has a pointer receiver
			body(img)
		})
	}
	fc := w.faults
	if fc.plan != nil {
		s.nicFactor = slices.Repeat([]float64{1}, w.topo.NumNodes())
		s.linkDelay = make(map[[2]int]Time)
		s.linkDrop = make(map[[2]int]float64)
		s.drops = rand.New(rand.NewSource(fc.plan.Seed))
		if slices.ContainsFunc(fc.plan.Events, func(ev FaultEvent) bool { return ev.Kind == FaultLinkDelay }) {
			s.linkArrive = make([]Time, len(s.nic)*len(s.nic))
		}
		for _, ev := range fc.plan.Events {
			scheduleFaultEvent(s, ev)
		}
	}
	if fc.cfg.Heartbeat > 0 {
		startSimHeartbeats(s)
	}
}

// scheduleFaultEvent turns one FaultPlan entry into event-queue entries. A
// repair is an assignment: InjectFaults refuses plans whose windows on one NIC
// or link overlap, so no repair ends a fault that is not its own.
func scheduleFaultEvent(s *simTransport, ev FaultEvent) {
	during := func(set, repair func()) {
		s.env.Schedule(ev.At, set)
		if ev.Duration > 0 {
			s.env.Schedule(ev.At+ev.Duration, repair)
		}
	}
	link := [2]int{ev.Node, ev.Node2}
	switch ev.Kind {
	case FaultKillImage, FaultKillNode:
		s.env.Schedule(ev.At, func() { s.w.faults.applyKill(ev, s.env.Now()) })
	case FaultNICDegrade:
		during(func() { s.nicFactor[ev.Node] = ev.Factor }, func() { s.nicFactor[ev.Node] = 1 })
	case FaultLinkDelay:
		during(func() { s.linkDelay[link] = ev.Delay }, func() { delete(s.linkDelay, link) })
	case FaultLinkDrop:
		during(func() { s.linkDrop[link] = ev.Factor }, func() { delete(s.linkDrop, link) })
	}
}

// startSimHeartbeats spawns one stamper process per image plus a monitor
// that sweeps for stale stamps every period (a killed image's stamper is
// killed with it, so silent deaths surface after ~3 heartbeat periods).
// All heartbeat processes terminate once every image is done or failed.
func startSimHeartbeats(s *simTransport) {
	w := s.w
	fc := w.faults
	h := fc.cfg.Heartbeat
	for _, im := range w.images {
		atomic.StoreInt64(&fc.hbStamp[im.rank], s.env.Now())
	}
	for _, im := range w.images {
		im := im
		s.img[im.rank].hb = s.env.Spawn(fmt.Sprintf("%shb%d", w.label, im.rank), func(p *sim.Proc) {
			for !fc.isDone(im.rank) && !fc.isDead(im.rank) {
				atomic.StoreInt64(&fc.hbStamp[im.rank], p.Now())
				p.Sleep(h)
			}
		})
	}
	s.env.Spawn(w.label+"hbmon", func(p *sim.Proc) {
		for fc.sweepStale(p.Now()) {
			p.Sleep(h)
		}
	})
}

func (s *simTransport) Drive() Time {
	if err := s.env.Run(0); err != nil {
		panic(err)
	}
	return s.env.Now()
}

func (s *simTransport) Now() Time               { return s.env.Now() }
func (s *simTransport) Sleep(im *Image, d Time) { s.img[im.rank].proc.Sleep(d) }

func (s *simTransport) MemWork(im *Image, nbytes int) {
	s.img[im.rank].proc.Sleep(s.w.model.MemTime(nbytes))
}

// wake re-evaluates rank's flag waiters and progress engine. Called after
// every mutation of rank's flag rows.
func wake(s *simTransport, rank int) {
	s.rowCond[rank].Wake(s.env)
}

// simWait blocks im on c until the wait record configured on its simImage
// holds, raising a *FailedImageError when a failure announcement (epoch
// change) or the configured wait timeout releases the wait first. With the
// zero DetectConfig and no failures the wake pattern — and therefore the
// event stream — is identical to a plain c.Wait: the extra disjuncts never
// fire and no timer event is scheduled.
//
// Callers set the wait kind and its operands on the simImage, a static why
// string among them; the detailed description is built lazily from the wait
// record's waitDesc — only for deadlock reports and failure errors.
func simWait(s *simTransport, im *Image, c *sim.Cond) {
	fc := s.w.faults
	si := &s.img[im.rank]
	// Interrupt on any announcement this image has not acknowledged — not
	// just ones newer than the wait: an unacked dead peer may be the very
	// image whose notify we are waiting for (see faultCtx.ackEpoch).
	si.wEp0 = fc.ackEpoch[im.rank]
	si.wTimedOut = false
	if to := fc.cfg.WaitTimeout; to > 0 {
		cancel := s.env.AfterCancelable(to, func() {
			si.wTimedOut = true
			c.Wake(s.env)
		})
		defer cancel()
	}
	c.Wait(si.proc, si.wd.why, si.eval)
	ok := si.waitPredNow()
	timedOut := si.wTimedOut
	var op string
	if !ok {
		op = si.wd.String()
	}
	si.wKind = wNone
	si.wd.f = nil
	si.wPred = nil
	if ok {
		return
	}
	panic(fc.failError(op, timedOut))
}

// sendOverhead is the sender's CPU overhead (LogGP o) over a resolved path:
// what the issuing transport method sleeps before it asks route.
func sendOverhead(m *machine.Model, via Via) Time {
	if via == ViaShm {
		return m.Shm.O
	}
	return m.Net.O
}

// route is the cost function of one message leg, and the only one (see the
// Transport contract): n payload bytes from node src to node dst over a
// resolved path, injected at now (the issuer's clock after its sendOverhead
// sleep, or the arrival of the request a response answers). It occupies the
// path's serializing resources and returns the delivery time; it never blocks
// (caflint's seams table).
func route(s *simTransport, src, dst, n int, via Via, now sim.Time) sim.Time {
	m := s.w.model
	switch {
	case via == ViaShm:
		// Direct load/store path within the node.
		dur := m.Shm.G + m.Shm.ByteTime(n)
		start := s.membus[src].Occupy(now, dur)
		return start + dur + m.Shm.L
	case dst == src:
		// Conduit loopback: the portable path does not know the target
		// is local; the message serializes through the node's conduit
		// progress engine at an inflated occupancy (software handling
		// plus flag-polling coherence traffic).
		dur := m.LoopbackG + m.Shm.ByteTime(n)
		start := s.progress[src].Occupy(now, dur)
		return start + dur + m.Shm.L
	default:
		// Inter-node: sender NIC injection, wire, receiver NIC (the
		// receive-side occupancy is zero for pure RDMA-write conduits).
		sdur := m.Net.G + m.Net.ByteTime(n)
		wire := m.Net.L
		if s.nicFactor != nil {
			// A fault plan is armed: injected NIC degradation inflates the
			// occupancy at either end, an injected link delay stretches the wire.
			sdur = Time(float64(sdur) * (s.nicFactor[src] * s.nicFactor[dst]))
			wire += s.linkDelay[[2]int{src, dst}]
		}
		start := s.nic[src].Occupy(now, sdur)
		arrive := start + sdur + wire
		if s.linkArrive != nil {
			last := &s.linkArrive[src*len(s.nic)+dst]
			arrive = max(arrive, *last)
			*last = arrive
		}
		if m.RecvG == 0 {
			return arrive
		}
		rstart := s.nic[dst].Occupy(arrive, m.RecvG)
		return rstart + m.RecvG
	}
}

// dropped is the one drop gate: whether a message routed from node src to
// node dst is lost on the wire, consuming one draw from the plan's stream iff
// a drop rate is active on that link. A dropped message still counts as
// injected (and drains for Quiet): the sender believes the NIC took it; only
// the receiver never hears, which is what makes loss detectable solely by
// timeout or heartbeat.
func dropped(s *simTransport, src, dst int) bool {
	if src == dst || len(s.linkDrop) == 0 {
		return false
	}
	p := s.linkDrop[[2]int{src, dst}]
	return p > 0 && s.drops.Float64() < p
}

// Delivery kinds for pooled delivery records beside a Notify's flagAdd and
// flagMax (flag update + wake target).
const (
	dNop uint8 = flagMax + 1 + iota // lost message: drains for Quiet, mutates nothing
	dFn                             // run fn (staged put commits, atomic applies), if any
)

// delivery is one in-flight one-sided operation: what to do at the modeled
// delivery time, plus the issuing image for Quiet accounting. Records are
// pooled on their transport's free list and carry a once-built run closure, so the
// steady-state put/notify path schedules without allocating. The flag kinds
// (flagAdd, flagMax) exist because flag notifications dominate collective
// traffic — they deliver without any caller-built closure at all.
type delivery struct {
	t    *simTransport // the owner, set once at creation
	im   *Image
	kind uint8
	tgt  int
	idx  int
	val  int64
	f    *Flags
	fn   func()
	run  func() // prebound (*delivery).execute
}

// getDelivery takes a record off s's free list (or builds one) and stamps
// the issuing image and kind; the caller fills kind-specific fields.
func getDelivery(s *simTransport, im *Image, kind uint8) *delivery {
	var d *delivery
	if n := len(s.freeDel); n > 0 {
		d = s.freeDel[n-1]
		s.freeDel = s.freeDel[:n-1]
	} else {
		d = &delivery{t: s}
		d.run = d.execute
	}
	d.im = im
	d.kind = kind
	return d
}

// execute performs the delivery, settles Quiet accounting, and returns the
// record to the pool. Runs as a simulator event.
func (d *delivery) execute() {
	s := d.t
	switch d.kind {
	case dFn:
		if d.fn != nil { // nil: a payload written at issue, landing now
			d.fn()
		}
	case flagAdd:
		d.f.add(d.tgt, d.idx, d.val)
		wake(s, d.tgt)
	case flagMax:
		d.f.storeMax(d.tgt, d.idx, d.val)
		wake(s, d.tgt)
	}
	si := &s.img[d.im.rank]
	si.outstanding--
	if si.outstanding == 0 {
		si.quietCond.Wake(s.env)
	}
	d.im = nil
	d.f = nil
	d.fn = nil
	s.freeDel = append(s.freeDel, d)
}

// dispatch schedules d at time t and tracks the operation for Quiet. A lost
// message (see dropped) drains at the time the sender believes delivery
// happened, but mutates nothing.
func dispatch(im *Image, t sim.Time, d *delivery, lost bool) {
	if lost {
		d.kind = dNop
	}
	d.t.img[im.rank].outstanding++
	d.t.env.Schedule(t, d.run)
}

// deliverAt schedules fn at time t and tracks the operation for Quiet — the
// generic (closure-carrying) form used by put commits and atomic applies.
func deliverAt(s *simTransport, im *Image, t sim.Time, fn func(), lost bool) {
	d := getDelivery(s, im, dFn)
	d.fn = fn
	dispatch(im, t, d, lost)
}

// deliverFlagOp schedules a pooled flag mutation (flagAdd or flagMax) on f's
// target row — the zero-alloc path under every notify.
func deliverFlagOp(s *simTransport, im *Image, t sim.Time, kind uint8, f *Flags, target, idx int, val int64, lost bool) {
	d := getDelivery(s, im, kind)
	d.f = f
	d.tgt = target
	d.idx = idx
	d.val = val
	dispatch(im, t, d, lost)
}

func (s *simTransport) Quiet(im *Image) {
	si := &s.img[im.rank]
	si.wKind = wQuiet
	si.wd.why = "quiet"
	simWait(s, im, &si.quietCond)
}

func (s *simTransport) Put(im *Image, target, nbytes int, via Via, commit func()) {
	proc := s.img[im.rank].proc
	proc.Sleep(sendOverhead(s.w.model, via))
	dst := s.w.topo.NodeOf(target)
	deliver := route(s, im.node, dst, nbytes, via, proc.Now())
	deliverAt(s, im, deliver, commit, dropped(s, im.node, dst))
}

func (s *simTransport) Get(im *Image, target, nbytes int) {
	proc := s.img[im.rank].proc
	switch dst := s.w.topo.NodeOf(target); {
	case target == im.rank:
		proc.Sleep(s.w.model.MemTime(nbytes))
	case dst == im.node:
		// Direct shared-memory read: a message over the membus, waited for.
		proc.Sleep(s.w.model.Shm.O)
		proc.Sleep(route(s, dst, dst, nbytes, ViaShm, proc.Now()) - proc.Now())
	default:
		// Remote get: a bare request out, the payload back.
		s.roundTrip(im, dst, 0, nbytes, "get", nil)
	}
}

func (s *simTransport) PutThenNotify(im *Image, target, nbytes int, via Via, commit func(), f *Flags, idx int, delta int64) Time {
	proc := s.img[im.rank].proc
	o := sendOverhead(s.w.model, via)
	dst := s.w.topo.NodeOf(target)
	proc.Sleep(o)
	deliverData := route(s, im.node, dst, nbytes, via, proc.Now())
	proc.Sleep(o)
	deliverFlag := route(s, im.node, dst, 8, via, proc.Now())
	if deliverFlag < deliverData {
		deliverFlag = deliverData // ordered delivery per pair
	}
	// One drop decision for the pair: losing the payload but landing the
	// flag would break the ordered-delivery contract the put+flag idiom
	// rests on.
	lost := dropped(s, im.node, dst)
	deliverAt(s, im, deliverData, commit, lost)
	deliverFlagOp(s, im, deliverFlag, flagAdd, f, target, idx, delta, lost)
	if lost {
		return never
	}
	return deliverData
}

func (s *simTransport) Notify(im *Image, f *Flags, target, idx int, val int64, op uint8, via Via) {
	proc := s.img[im.rank].proc
	proc.Sleep(sendOverhead(s.w.model, via))
	dst := s.w.topo.NodeOf(target)
	deliver := route(s, im.node, dst, 8, via, proc.Now())
	deliverFlagOp(s, im, deliver, op, f, target, idx, val, dropped(s, im.node, dst))
}

// roundTrip is a blocking operation on another node as two routed legs: after
// the sender's overhead a request of reqBytes goes to node dst, atTarget (if
// any) runs there at its delivery, and a response of respBytes is routed back
// from that moment; the caller sleeps until it lands. A leg lost on the wire
// loses the round trip (a request that arrived has still run atTarget): the
// caller parks until a timeout or a failure announcement raises.
func (s *simTransport) roundTrip(im *Image, dst, reqBytes, respBytes int, why string, atTarget func()) {
	proc := s.img[im.rank].proc
	proc.Sleep(s.w.model.Net.O)
	there := route(s, im.node, dst, reqBytes, ViaConduit, proc.Now())
	lost := dropped(s, im.node, dst)
	if atTarget != nil {
		deliverAt(s, im, there, atTarget, lost)
	}
	var back sim.Time
	if !lost {
		back = route(s, dst, im.node, respBytes, ViaConduit, there)
		lost = dropped(s, dst, im.node)
	}
	if lost {
		s.Await(im, why, func() bool { return false }, true)
	}
	proc.Sleep(back - proc.Now())
}

// atomicRoundTrip models the timing of a blocking remote read-modify-write:
// local and intra-node targets use the node's memory system; inter-node
// targets pay a roundTrip of reqBytes out and 8 bytes back, with apply executed
// at the target when the request is delivered. It returns apply's result once
// the caller may proceed (it blocks, so it is a transport method).
func (s *simTransport) atomicRoundTrip(im *Image, target, reqBytes int, why string, apply func() int64) int64 {
	m := s.w.model
	proc := s.img[im.rank].proc
	switch dst := s.w.topo.NodeOf(target); {
	case target == im.rank:
		proc.Sleep(m.AtomicShm)
	case dst == im.node:
		// The one occupancy outside route: AtomicShm is the memory system
		// executing a read-modify-write, not a message crossing the membus.
		proc.Sleep(m.Shm.O)
		start := s.membus[dst].Occupy(proc.Now(), m.AtomicShm)
		proc.Sleep(start + m.AtomicShm - proc.Now())
	default:
		var old int64
		s.roundTrip(im, dst, reqBytes, 8, why, func() { old = apply() })
		return old
	}
	return apply()
}

func (s *simTransport) FetchOp(im *Image, f *Flags, target, idx int, op AtomicOp, operand int64) int64 {
	return s.atomicRoundTrip(im, target, 8, "atomic "+op.String(), func() int64 {
		old := f.fetchOp(target, idx, op, operand)
		wake(s, target)
		return old
	})
}

func (s *simTransport) CompareAndSwap(im *Image, f *Flags, target, idx int, expected, desired int64) int64 {
	return s.atomicRoundTrip(im, target, 16, "cas", func() int64 {
		old := f.compareAndSwap(target, idx, expected, desired)
		if old == expected {
			wake(s, target)
		}
		return old
	})
}

func (s *simTransport) WaitFlagGE(im *Image, f *Flags, owner, idx int, min int64) {
	si := &s.img[im.rank]
	si.wKind = wFlag
	si.wd.why = "flag wait"
	si.wd.f = f
	si.wd.owner = owner
	si.wd.idx = idx
	si.wd.min = min
	simWait(s, im, &s.rowCond[owner])
}

// Await parks im on its own row until ready holds: with raise, a simWait of
// the wGeneric kind (async progress, and a round trip lost on the wire);
// without, a plain wait, re-checked by every wake of the row and by WakeAll.
func (s *simTransport) Await(im *Image, why string, ready func() bool, raise bool) {
	si := &s.img[im.rank]
	si.wd.why = why
	if !raise {
		s.rowCond[im.rank].Wait(si.proc, why, ready)
		return
	}
	si.wKind = wGeneric
	si.wPred = ready
	simWait(s, im, &s.rowCond[im.rank])
}

func (s *simTransport) WakeRank(rank int) {
	wake(s, rank)
}

func (s *simTransport) Kill(rank int) {
	s.w.faults.markDead(rank)
	si := &s.img[rank]
	if si.proc != nil {
		si.proc.Kill()
	}
	if si.hb != nil {
		si.hb.Kill()
	}
}

func (s *simTransport) WakeAll() {
	for r := range s.rowCond {
		s.rowCond[r].Wake(s.env)
	}
	for r := range s.img {
		s.img[r].quietCond.Wake(s.env)
	}
}

var _ Transport = (*simTransport)(nil)

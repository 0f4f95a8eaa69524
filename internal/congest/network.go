// Package congest simulates the CONGEST model (paper §1.3.1): a synchronous
// message-passing network where, per round, each node may send one B-bit
// message across each incident edge (B = Θ(log n)). Protocols are
// round-driven: the engine calls each node's RoundFunc once per round with
// the messages delivered at the end of the previous round, and the node
// queues its sends for this round. The engine enforces bandwidth, counts
// rounds and messages, and delivers messages deterministically (in port
// order) so runs are reproducible regardless of scheduling.
//
// Engine design (barrier-synchronous round scheduler). A fixed worker pool
// shards the nodes into contiguous ranges and drives each round in two
// phases. In the compute phase every worker walks its shard in node order
// and calls the RoundFunc of each live node that is awake or has mail,
// which queues sends into the node's own dense per-port outbox slots and
// marks the receiver in a mail bitmap (one bit per node, set atomically
// because shards share words); a node resets its inbox once it has read
// it. A node that called Node.SleepUntil is skipped until mail or its wake
// round. In the deliver phase each worker walks the set bits of its own
// node range in ascending order and builds only those inboxes,
// receiver-side: the receiver scans its ports and pulls the message, if
// any, from the neighbor's opposite slot (precomputed reverse ports), so
// inboxes come out in port order with no sorting and no routing map. A
// round thus costs one RoundFunc call per awake node plus the ports of the
// nodes that have mail, not the ports of every node. Per-shard statistics
// — including how many nodes stay awake and the earliest wake round of the
// sleepers — are merged in shard order after the phase barrier. When no
// message is in flight and every live node sleeps, a fault-free run counts
// the silent rounds up to the earliest wake in Stats.Rounds instead of
// running them, so a protocol's fixed-budget quiet tail costs O(1). There
// is no global lock anywhere on the round path, no goroutine per node, and
// all per-round buffers (outbox slots, inboxes, payload arenas) are
// reused, so a round allocates nothing.
//
// Determinism: the engine's observable behavior — inbox contents and order,
// statistics, error outcomes — is a pure function of the graph and the
// protocol, independent of GOMAXPROCS and scheduling.
//
// Message payloads are valid until the receiving node's next RoundFunc
// call (the engine reuses the underlying arena); protocols that need a
// payload longer must copy it.
//
// Every worker goroutine is joined before RunSync returns; the engine owns
// all channels.
package congest

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Payload is message content with an explicit bit size, so the engine can
// enforce the CONGEST bandwidth bound.
type Payload interface{ Bits() int }

// Words is the standard payload: a fixed number of 64-bit words. CONGEST's
// O(log n) bits per edge per round corresponds to a small constant number of
// words.
type Words []uint64

// Bits returns 64 bits per word.
func (w Words) Bits() int { return 64 * len(w) }

// Float64Word encodes a float64 as a payload word.
func Float64Word(f float64) uint64 { return math.Float64bits(f) }

// WordFloat64 decodes a payload word into a float64.
func WordFloat64(w uint64) float64 { return math.Float64frombits(w) }

// Message is a received message. Payload is valid until the receiver's next
// RoundFunc call.
type Message struct {
	Port    int // adjacency index at the receiver the message arrived on
	From    int // sender vertex ID
	Edge    int // edge ID it traveled over
	Payload Words
}

// Options configures a run.
type Options struct {
	// Bandwidth in bits per edge direction per round. 0 selects
	// 64 * max(2, ceil(log2 n / 16)) — a Θ(log n) default that fits a few
	// words for realistic n.
	Bandwidth int
	// MaxRounds aborts runs that fail to terminate (0 = 64·n + 1024).
	MaxRounds int
	// Faults, when non-nil, injects the deterministic adversary into the
	// run: message drops, link-down intervals, and node crash/restarts.
	// The plan is validated before the run starts (ErrInvalidOptions).
	Faults *FaultPlan
	// OnRound, when non-nil, is called once per completed round (single-
	// threaded, between phase barriers) with that round's delivery
	// figures. It is the streaming observation hook for million-node
	// runs: a caller can fold per-round wall-clock or bytes trends
	// without the engine — or the caller — ever materializing
	// O(n·rounds) state. Silent rounds the engine counts without running
	// them (every node asleep, nothing in flight) arrive too, one call
	// each in a burst, with Messages and Bits 0 and Active unchanged. The
	// callback must not retain the probe past the call and must not touch
	// the engine.
	OnRound func(RoundProbe)
}

// RoundProbe is the per-round snapshot streamed to Options.OnRound.
type RoundProbe struct {
	Round    int // 1-based round number
	Messages int // messages delivered this round
	Bits     int // payload bits delivered this round
	Active   int // nodes still participating after the compute phase
}

// ErrInvalidOptions is wrapped by RunSync when Options fail validation
// (negative bandwidth or round bound, malformed fault plan) — the run never
// starts.
var ErrInvalidOptions = errors.New("congest: invalid options")

// validate rejects malformed options before a run starts.
func (o Options) validate(n, m int) error {
	if o.Bandwidth < 0 {
		return fmt.Errorf("%w: negative bandwidth %d", ErrInvalidOptions, o.Bandwidth)
	}
	if o.MaxRounds < 0 {
		return fmt.Errorf("%w: negative round bound %d", ErrInvalidOptions, o.MaxRounds)
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(n, m); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
		}
	}
	return nil
}

// Stats summarizes a run.
type Stats struct {
	Rounds          int
	Messages        int
	TotalBits       int
	MaxEdgeLoad     int // max messages that crossed any single edge (both directions)
	LastActiveRound int // last round in which any message was delivered

	// Fault ledger (all zero on fault-free runs): messages lost to the
	// Bernoulli drop coins, to down links, and to crashed receivers, plus
	// the total node-rounds spent crashed.
	Dropped       int
	DownDrops     int
	CrashDrops    int
	CrashedRounds int
}

// Add accumulates another run's statistics (rounds add sequentially).
func (s *Stats) Add(o Stats) {
	s.Rounds += o.Rounds
	s.Messages += o.Messages
	s.TotalBits += o.TotalBits
	if o.MaxEdgeLoad > s.MaxEdgeLoad {
		s.MaxEdgeLoad = o.MaxEdgeLoad
	}
	s.LastActiveRound += o.LastActiveRound
	s.Dropped += o.Dropped
	s.DownDrops += o.DownDrops
	s.CrashDrops += o.CrashDrops
	s.CrashedRounds += o.CrashedRounds
}

// Node is the per-process API handed to a protocol. Its methods may be
// called only by that node's own SyncProtocol factory or RoundFunc.
type Node struct {
	ID    int
	NumV  int // n, known to all nodes (standard CONGEST assumption)
	ports []graph.Arc

	eng   *engine
	round int
	wake  int // SleepUntil's round: calls with an empty inbox before it are skipped
	fn    RoundFunc

	out       []outSlot // per port: queued send for this round
	sent      int       // sends queued in out this round
	sendArena []uint64  // backing storage for queued payload words
}

type outSlot struct {
	has  bool
	off  int32 // into sendArena
	len  int32
	bits int32
}

// RoundFunc is the protocol executed at every node: the engine calls it
// once per round with the messages delivered at the end of the previous
// round (nil in round 1). The callback inspects the messages, queues this
// round's sends with n.Send, and reports whether the node keeps
// participating; returning false ends participation and discards any sends
// queued in that final call. A node that has stopped stays silent while
// the network keeps running until every node has stopped.
type RoundFunc func(n *Node, msgs []Message) bool

// SyncProtocol builds the per-node state of a round-driven protocol: called
// once per node before round 1, it returns the node's RoundFunc.
type SyncProtocol func(n *Node) RoundFunc

// Neighbor returns the vertex at the other end of the given port.
func (n *Node) Neighbor(port int) int { return n.ports[port].To }

// PortEdge returns the edge ID behind a port.
func (n *Node) PortEdge(port int) int { return n.ports[port].ID }

// Round returns the current round number (1 in the first RoundFunc call).
// It keeps counting while the node sleeps.
func (n *Node) Round() int { return n.round }

// SleepUntil tells the engine that, called with an empty inbox in any
// round before round, the node would queue nothing, would return true and
// would change no state, so the engine may skip those calls. Mail, a
// crash, or reaching round ends the sleep, and so does every call of the
// node's RoundFunc, which sleeps on only by calling SleepUntil again.
// SleepUntil(math.MaxInt) sleeps until mail. Round keeps counting while
// the node sleeps. When no message is in flight and every live node
// sleeps, a fault-free run counts the silent rounds up to the earliest
// wake in Stats.Rounds without running them.
//
// A node whose next empty-inbox call would return false must not sleep:
// that call ends its participation, and skipping it stalls the run to
// MaxRounds.
func (n *Node) SleepUntil(round int) { n.wake = round }

// Send queues a message on a port for delivery at the end of this round.
// At most one message per port per round; exceeding bandwidth or
// double-sending aborts the run with an error. The payload is copied, so
// the caller may reuse it.
func (n *Node) Send(port int, payload Words) {
	if n.out[port].has {
		//lint:allow hotalloc Errorf boxing on the abort path only: the run is already failing
		n.eng.fail(fmt.Errorf("congest: node %d sent twice on port %d in round %d", n.ID, port, n.round))
		return
	}
	if payload.Bits() > n.eng.bandwidth {
		//lint:allow hotalloc Errorf boxing on the abort path only: the run is already failing
		n.eng.fail(fmt.Errorf("congest: node %d message of %d bits exceeds bandwidth %d", n.ID, payload.Bits(), n.eng.bandwidth))
		return
	}
	off := len(n.sendArena)
	n.sendArena = append(n.sendArena, payload...) //lint:allow hotalloc sendArena is the per-round payload slab, reset to len 0 each round; its capacity reaches steady state after the first rounds and the AllocsPerRun pins hold
	n.out[port] = outSlot{has: true, off: int32(off), len: int32(len(payload)), bits: int32(payload.Bits())}
	n.sent++
	n.eng.markMail(n.ports[port].To)
}

// Broadcast queues the same message on every port.
func (n *Node) Broadcast(payload Words) {
	for port := range n.ports {
		n.Send(port, payload)
	}
}

func (n *Node) clearOut() {
	if n.sent == 0 {
		return
	}
	for p := range n.out {
		n.out[p].has = false
	}
	n.sent = 0
	n.sendArena = n.sendArena[:0]
}

// engine coordinates the synchronous rounds.
type engine struct {
	g         *graph.Graph
	bandwidth int
	maxRounds int

	nodes   []Node
	revPort [][]int32 // revPort[v][p]: port index at the neighbor for the same edge
	alive   []bool
	active  int
	onRound func(RoundProbe)

	// Arc-indexed slabs, carved per node by the degree prefix sums in
	// portOff: outbox slots, reverse ports, and inbox headers all live in
	// three contiguous allocations sized by the actual arc count (2m)
	// instead of ~4 allocations per node. Shards cover contiguous node
	// ranges, so each worker's slab region is contiguous too.
	portOff   []int32 // n+1; node v's arcs are [portOff[v], portOff[v+1])
	outSlab   []outSlot
	revSlab   []int32
	inboxSlab []Message

	// Fault-injection state (nil/empty on fault-free runs). The scheduler
	// refreshes crashed/downEdge once per round between phase barriers
	// (single-threaded), so the shard workers only ever read them.
	faults     *FaultPlan
	proto      SyncProtocol // retained for wiped crash restarts
	gRound     int          // current global round (faults.Offset + local round)
	crashed    []bool
	downEdge   []bool
	downMarked []int32 // edges currently marked down, for O(marked) clearing

	// step is how far every live node's round advances at the next compute
	// phase: 1, plus the silent rounds skipped just before it.
	step int

	inboxes    [][]Message
	inboxArena [][]uint64 // per receiver: payload backing, reused per round
	// mail has bit v set when some send queued this round is addressed to
	// node v. Senders set bits atomically in the compute phase; each
	// deliver shard clears the bits of its own node range as it takes
	// them, atomically too, since neighboring shards can share a word.
	mail []uint64

	// Fixed worker pool.
	workers   int
	bounds    []int // shard s covers nodes [bounds[s], bounds[s+1])
	taskCh    chan int
	phaseFn   func(shard int)
	phaseWg   sync.WaitGroup
	shardWork []shardResult
	// computeFn and deliverFn are e.computeShard and e.deliverShard, bound
	// once per engine: a method value allocates its closure, and the round
	// loop hands runPhase two of them per round.
	computeFn, deliverFn func(shard int)

	stats     Stats
	edgeLoad2 []int32 // per edge direction: messages delivered

	errFlag atomic.Bool // lock-free fast path for the per-round check
	errMu   sync.Mutex
	err     error
}

// shardResult is one shard's per-phase scratch output, merged by the
// scheduler in shard order.
type shardResult struct {
	messages int
	bits     int
	anyMsg   bool
	exited   int
	awake    int // live nodes with no wake round ahead: called next round
	wake     int // earliest wake round ahead among the rest (math.MaxInt: none)

	// Fault counters, merged into Stats in shard order.
	dropped       int
	downDrops     int
	crashDrops    int
	crashedRounds int

	_ [2]int64 // pad to keep shards off each other's cache lines
}

func (e *engine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
		e.errFlag.Store(true)
	}
	e.errMu.Unlock()
}

func (e *engine) failed() bool { return e.errFlag.Load() }

// markMail sets node v's bit in the mail bitmap. The load first skips the
// locked write when the bit is already set, as it is for a hub that hears
// from many neighbors in one round.
func (e *engine) markMail(v int) {
	w, bit := &e.mail[v>>6], uint64(1)<<(v&63)
	if atomic.LoadUint64(w)&bit == 0 {
		atomic.OrUint64(w, bit)
	}
}

// runPhase executes fn over all shards on the worker pool and waits.
func (e *engine) runPhase(fn func(shard int)) {
	e.phaseFn = fn
	e.phaseWg.Add(e.workers)
	for s := 0; s < e.workers; s++ {
		e.taskCh <- s
	}
	e.phaseWg.Wait()
}

// computeShard runs the compute phase over the shard's live nodes in node
// order: one direct RoundFunc call per awake node or node with mail, and
// none for a sleeping node without mail. It counts the live nodes with no
// wake round ahead and finds the earliest wake round of the rest.
//
//congest:hotpath
func (e *engine) computeShard(shard int) {
	res := &e.shardWork[shard]
	res.exited = 0
	res.crashedRounds = 0
	res.awake = 0
	res.wake = math.MaxInt
	failed := e.failed()
	for v := e.bounds[shard]; v < e.bounds[shard+1]; v++ {
		if !e.alive[v] {
			continue
		}
		nd := &e.nodes[v]
		// The inbox is read (or, while crashed, lost) once; the deliver
		// phase rebuilds it only if v has mail, so it is reset here.
		inbox := e.inboxes[v]
		e.inboxes[v] = inbox[:0]
		if e.faults != nil && e.crashed[v] {
			// Crashed: no compute, and the outbox must be empty so the
			// deliver phase finds nothing from it (slots are only cleared
			// at the owner's next compute otherwise). The crash ends any
			// sleep, so the node is called at its restart.
			nd.clearOut()
			nd.wake = 0
			res.crashedRounds++
			continue
		}
		nd.round += e.step
		nd.clearOut()
		if failed || nd.wake <= nd.round || len(inbox) > 0 {
			nd.wake = 0
			if failed || !nd.fn(nd, inbox) {
				nd.clearOut()
				e.alive[v] = false
				res.exited++
				continue
			}
		}
		if nd.wake > nd.round {
			res.wake = min(res.wake, nd.wake)
		} else {
			res.awake++
		}
	}
}

// deliverShard builds the inboxes of the shard's nodes that have mail,
// in ascending node order, taking their bits out of the mail bitmap. A
// word can hold bits of a neighboring shard, so the shard masks it to its
// own range and clears only those bits.
//
//congest:hotpath
func (e *engine) deliverShard(shard int) {
	res := &e.shardWork[shard]
	res.messages, res.bits, res.anyMsg = 0, 0, false
	res.dropped, res.downDrops, res.crashDrops = 0, 0, 0
	lo, hi := e.bounds[shard], e.bounds[shard+1]
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		word := atomic.LoadUint64(&e.mail[wi]) & rangeMask(wi<<6, lo, hi)
		if word == 0 {
			continue
		}
		atomic.AndUint64(&e.mail[wi], ^word)
		for ; word != 0; word &= word - 1 {
			e.deliverTo(res, wi<<6+bits.TrailingZeros64(word))
		}
	}
}

// rangeMask selects the bits of the bitmap word starting at node base
// whose nodes lie in [lo, hi); the word must overlap the range.
//
//congest:pure
func rangeMask(base, lo, hi int) uint64 {
	mask := ^uint64(0)
	if lo > base {
		mask <<= uint(lo - base)
	}
	if hi < base+64 {
		mask &= 1<<uint(hi-base) - 1
	}
	return mask
}

// deliverTo builds receiver v's inbox in port order from its neighbors'
// outbox slots. This is the packed-payload receive path: message words are
// appended into the receiver's word arena and the inbox headers fill
// pre-carved slab capacity, so at steady state a delivery allocates
// nothing.
//
//congest:hotpath
func (e *engine) deliverTo(res *shardResult, v int) {
	if e.faults != nil && e.crashed[v] {
		// Crashed receiver: everything addressed to it this round is lost,
		// and its inbox stays empty (the compute phase reset it) so a
		// restart sees no stale messages. (Crash precedes the link checks:
		// a message to a crashed node is booked as a crash drop even if
		// its link is also down.)
		for p := range e.g.Adj(v) {
			if e.nodes[e.g.Adj(v)[p].To].out[e.revPort[v][p]].has {
				res.crashDrops++
			}
		}
		return
	}
	inbox := e.inboxes[v][:0]
	arena := e.inboxArena[v][:0]
	for p, a := range e.g.Adj(v) {
		sp := e.revPort[v][p]
		slot := &e.nodes[a.To].out[sp]
		if !slot.has {
			continue
		}
		if e.faults != nil {
			if e.downEdge[a.ID] {
				res.downDrops++
				continue
			}
			dir := 0
			if e.g.Edge(a.ID).V == v {
				dir = 1
			}
			if e.faults.drops(a.ID, dir, e.gRound) {
				res.dropped++
				continue
			}
		}
		words := e.nodes[a.To].sendArena[slot.off : slot.off+slot.len]
		off := len(arena)
		arena = append(arena, words...) //lint:allow hotalloc inboxArena is the receiver's payload word slab, reset to len 0 each round; its capacity reaches steady state after the first rounds and the AllocsPerRun pins hold
		inbox = append(inbox, Message{  //lint:allow hotalloc inboxSlab pre-carves capacity for one message per port — the per-round maximum — so this append never grows
			Port:    p,
			From:    a.To,
			Edge:    a.ID,
			Payload: arena[off : off+len(words)],
		})
		res.messages++
		res.bits += int(slot.bits)
		dir := 0
		if e.g.Edge(a.ID).V == v {
			dir = 1
		}
		e.edgeLoad2[2*a.ID+dir]++
	}
	if len(inbox) > 0 {
		res.anyMsg = true
	}
	e.inboxes[v] = inbox
	e.inboxArena[v] = arena
}

// updateFaults refreshes the adversary's per-round state for local round
// `local` (1-based). Runs single-threaded between phase barriers, so the
// shard workers only ever read crashed/downEdge/gRound.
func (e *engine) updateFaults(local int) {
	e.gRound = e.faults.Offset + local
	for _, id := range e.downMarked {
		e.downEdge[id] = false
	}
	e.downMarked = e.downMarked[:0]
	for _, d := range e.faults.LinkDowns {
		if d.From <= e.gRound && e.gRound < d.To && !e.downEdge[d.Edge] {
			e.downEdge[d.Edge] = true
			e.downMarked = append(e.downMarked, int32(d.Edge))
		}
	}
	for _, c := range e.faults.Crashes {
		v := c.Node
		now := e.faults.CrashedAt(v, e.gRound)
		if e.crashed[v] == now {
			continue // also dedupes multiple intervals for the same node
		}
		if !now && e.alive[v] && e.faults.wipesAt(v, e.gRound) {
			// Wiped restart: discard the node's protocol state and rebuild
			// it through the factory; the node re-runs from its round 1 in
			// an otherwise mid-flight network.
			nd := &e.nodes[v]
			nd.round = 0
			nd.clearOut()
			nd.fn = e.proto(nd)
		}
		e.crashed[v] = now
	}
}

// skipSilent counts the silent rounds before round wake in Stats.Rounds
// without running them, capped at MaxRounds+1 so the round bound aborts
// the run at the same round as running them would, and reports each to
// OnRound with zero figures. Every live node's round catches up at its
// next compute phase through step.
func (e *engine) skipSilent(wake int) {
	last := min(wake-1, e.maxRounds+1)
	if e.onRound != nil {
		for r := e.stats.Rounds + 1; r <= last; r++ {
			e.onRound(RoundProbe{Round: r, Active: e.active})
		}
	}
	if last > e.stats.Rounds {
		e.step += last - e.stats.Rounds
		e.stats.Rounds = last
	}
}

// ErrAborted is wrapped by RunSync when the protocol was cut short.
var ErrAborted = errors.New("congest: run aborted")

// enginePool recycles engine scaffolding (slot arrays, inboxes, arenas)
// across runs, so starting a simulation allocates O(1) once warm.
var enginePool = sync.Pool{New: func() any {
	e := &engine{}
	e.computeFn, e.deliverFn = e.computeShard, e.deliverShard
	return e
}}

// prepare (re)sizes pooled engine state for graph g.
func (e *engine) prepare(g *graph.Graph, bw, maxRounds int, faults *FaultPlan) {
	n := g.N()
	e.g = g
	e.bandwidth = bw
	e.maxRounds = maxRounds
	e.err = nil
	e.errFlag.Store(false)
	e.stats = Stats{}
	e.active = n

	e.step = 1
	e.faults = faults
	e.gRound = 0
	e.downMarked = e.downMarked[:0]
	if faults != nil {
		if cap(e.crashed) < n {
			e.crashed = make([]bool, n)
		}
		e.crashed = e.crashed[:n]
		for v := range e.crashed {
			e.crashed[v] = false
		}
		if cap(e.downEdge) < g.M() {
			e.downEdge = make([]bool, g.M())
		}
		e.downEdge = e.downEdge[:g.M()]
		for i := range e.downEdge {
			e.downEdge[i] = false
		}
	}

	if cap(e.nodes) < n {
		e.nodes = make([]Node, n)
	}
	e.nodes = e.nodes[:n]
	if cap(e.alive) < n {
		e.alive = make([]bool, n)
	}
	e.alive = e.alive[:n]
	if cap(e.inboxes) < n {
		e.inboxes = make([][]Message, n)
	}
	e.inboxes = e.inboxes[:n]
	if cap(e.inboxArena) < n {
		e.inboxArena = make([][]uint64, n)
	}
	e.inboxArena = e.inboxArena[:n]
	words := (n + 63) >> 6
	if cap(e.mail) < words {
		e.mail = make([]uint64, words)
	}
	e.mail = e.mail[:words]
	clear(e.mail) // a failed run can leave its last round's bits set
	if cap(e.revPort) < n {
		e.revPort = make([][]int32, n)
	}
	e.revPort = e.revPort[:n]
	if cap(e.edgeLoad2) < 2*g.M() {
		e.edgeLoad2 = make([]int32, 2*g.M())
	}
	e.edgeLoad2 = e.edgeLoad2[:2*g.M()]
	for i := range e.edgeLoad2 {
		e.edgeLoad2[i] = 0
	}

	// Degree prefix sums, then one slab per arc-indexed structure: outbox
	// slots, reverse ports, and inbox headers are carved per node from
	// three contiguous allocations. At n=10⁶ the old per-node make calls
	// were ~4 million allocations on a cold engine; the slabs are three
	// (plus the prefix table), and pooled runs reuse them wholesale.
	if cap(e.portOff) < n+1 {
		e.portOff = make([]int32, n+1)
	}
	e.portOff = e.portOff[:n+1]
	total := 0
	for v := 0; v < n; v++ {
		e.portOff[v] = int32(total)
		total += len(g.Adj(v))
	}
	e.portOff[n] = int32(total)
	if cap(e.outSlab) < total {
		e.outSlab = make([]outSlot, total)
	}
	e.outSlab = e.outSlab[:total]
	clear(e.outSlab) // the slab may hold another run's stale has flags
	if cap(e.revSlab) < total {
		e.revSlab = make([]int32, total)
	}
	e.revSlab = e.revSlab[:total]
	if cap(e.inboxSlab) < total {
		e.inboxSlab = make([]Message, total)
	}
	e.inboxSlab = e.inboxSlab[:total]

	// Reverse ports: for edge {u,v} with ports pu (at u) and pv (at v),
	// revPort[u][pu] = pv and revPort[v][pv] = pu. Computed in one sweep:
	// the ascending vertex scan visits each edge first from its smaller
	// endpoint, so the staging slot only needs the first port, and the
	// first endpoint is recovered as Other(edge, v).
	stage := g.AcquireScratch() // edge ID -> port at the first-seen endpoint
	for v := 0; v < n; v++ {
		adj := g.Adj(v)
		lo, hi := e.portOff[v], e.portOff[v+1]
		e.revPort[v] = e.revSlab[lo:hi:hi]
		// Inbox headers start empty (round 1 must see no stale messages)
		// with capacity for one message per port — the per-round maximum.
		e.inboxes[v] = e.inboxSlab[lo:lo:hi]
		nd := &e.nodes[v]
		*nd = Node{
			ID:        v,
			NumV:      n,
			ports:     adj,
			eng:       e,
			out:       e.outSlab[lo:hi:hi],
			sendArena: nd.sendArena[:0],
		}
		e.alive[v] = true
	}
	for v := 0; v < n; v++ {
		for p, a := range g.Adj(v) {
			if fp, ok := stage.Get(a.ID); ok {
				fv := g.Other(a.ID, v)
				e.revPort[v][p] = fp
				e.revPort[fv][fp] = int32(p)
			} else {
				stage.Set(a.ID, int32(p))
			}
		}
	}
	g.ReleaseScratch(stage)

	// Shards: one contiguous range per worker.
	e.workers = runtime.GOMAXPROCS(0)
	if e.workers > n {
		e.workers = n
	}
	if e.workers < 1 {
		e.workers = 1
	}
	if cap(e.bounds) < e.workers+1 {
		e.bounds = make([]int, e.workers+1)
	}
	e.bounds = e.bounds[:e.workers+1]
	for s := 0; s <= e.workers; s++ {
		e.bounds[s] = s * n / e.workers
	}
	if cap(e.shardWork) < e.workers {
		e.shardWork = make([]shardResult, e.workers)
	}
	e.shardWork = e.shardWork[:e.workers]
	e.taskCh = make(chan int, e.workers)
}

// RunSync executes a round-driven protocol: proto is called once per node
// to build its state and per-round callback, then the engine drives rounds
// until every callback has returned false. An awake node-round costs one
// function call on a shard worker; a sleeping one costs a visit, and a
// round in which every node sleeps and nothing is in flight is counted
// without running.
func RunSync(g *graph.Graph, proto SyncProtocol, opts Options) (Stats, error) {
	n := g.N()
	if err := opts.validate(n, g.M()); err != nil {
		return Stats{}, err
	}
	bw := opts.Bandwidth
	if bw == 0 {
		words := 2
		for (1 << (16 * words)) < n {
			words++
		}
		bw = 64 * words
	}
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 64*n + 1024
	}
	e := enginePool.Get().(*engine)
	e.prepare(g, bw, maxRounds, opts.Faults)
	e.onRound = opts.OnRound
	if n == 0 {
		enginePool.Put(e)
		return Stats{}, nil
	}

	// Fixed worker pool: workers pull shard indexes and run the current
	// phase function until the task channel closes.
	var poolWg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		poolWg.Add(1)
		go func() {
			defer poolWg.Done()
			for s := range e.taskCh {
				e.phaseFn(s)
				e.phaseWg.Done()
			}
		}()
	}
	e.proto = proto // retained: wiped crash restarts rebuild through it
	for v := 0; v < n; v++ {
		e.nodes[v].fn = proto(&e.nodes[v])
	}

	for e.active > 0 {
		if e.faults != nil {
			e.updateFaults(e.stats.Rounds + 1)
		}
		e.runPhase(e.computeFn)
		e.step = 1
		awake, wake := 0, math.MaxInt
		for s := range e.shardWork {
			e.active -= e.shardWork[s].exited
			e.stats.CrashedRounds += e.shardWork[s].crashedRounds
			awake += e.shardWork[s].awake
			wake = min(wake, e.shardWork[s].wake)
		}
		silent := false
		if !e.failed() {
			e.runPhase(e.deliverFn)
			anyMsg := false
			roundMsgs, roundBits := 0, 0
			for s := range e.shardWork {
				roundMsgs += e.shardWork[s].messages
				roundBits += e.shardWork[s].bits
				e.stats.Dropped += e.shardWork[s].dropped
				e.stats.DownDrops += e.shardWork[s].downDrops
				e.stats.CrashDrops += e.shardWork[s].crashDrops
				anyMsg = anyMsg || e.shardWork[s].anyMsg
			}
			e.stats.Messages += roundMsgs
			e.stats.TotalBits += roundBits
			if anyMsg {
				e.stats.LastActiveRound = e.stats.Rounds + 1
			}
			if e.onRound != nil {
				e.onRound(RoundProbe{
					Round:    e.stats.Rounds + 1,
					Messages: roundMsgs,
					Bits:     roundBits,
					Active:   e.active,
				})
			}
			// Nothing in flight and every live node asleep: the rounds
			// before the earliest wake would call no RoundFunc and deliver
			// nothing. A fault plan can act in any round, so it keeps
			// every round running.
			silent = !anyMsg && awake == 0 && e.active > 0 && e.faults == nil
		}
		e.stats.Rounds++
		if silent {
			e.skipSilent(wake)
		}
		if e.stats.Rounds > e.maxRounds {
			e.fail(fmt.Errorf("congest: exceeded %d rounds", e.maxRounds))
		}
	}
	close(e.taskCh)
	poolWg.Wait()

	// Edge load counts both directions of an edge together.
	for id := 0; id < g.M(); id++ {
		if both := int(e.edgeLoad2[2*id] + e.edgeLoad2[2*id+1]); both > e.stats.MaxEdgeLoad {
			e.stats.MaxEdgeLoad = both
		}
	}
	stats, err := e.stats, e.err
	enginePool.Put(e)
	if err != nil {
		return stats, fmt.Errorf("%w: %v", ErrAborted, err)
	}
	return stats, nil
}

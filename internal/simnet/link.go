package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
)

// LinkConfig describes one direction of a point-to-point link.
type LinkConfig struct {
	// Delay is the one-way propagation delay.
	Delay Time
	// RateBps is the transmission rate in bits per second; 0 means
	// infinite (no serialization delay, no queueing).
	RateBps int64
	// QueueBytes bounds the transmit queue; packets arriving when the
	// backlog exceeds it are tail-dropped. 0 means unbounded.
	QueueBytes int
	// Loss is the independent per-packet loss probability in [0,1).
	Loss float64
}

// LinkCounters accumulates per-direction statistics.
type LinkCounters struct {
	// TxPackets and TxBytes count traffic put on the wire — the offered
	// load, including frames the Loss probability destroys after
	// serialization.
	TxPackets, TxBytes uint64
	// DeliveredPackets and DeliveredBytes count frames that actually
	// reached the peer node — the goodput. They exclude random loss,
	// frames sent while either end was administratively down, and frames
	// arriving at a failed node. Utilization trackers read these.
	DeliveredPackets, DeliveredBytes uint64
	// QueueDrops counts tail drops at the transmit queue.
	QueueDrops uint64
	// RandomLoss counts packets lost to the Loss probability.
	RandomLoss uint64
	// AdminDrops counts frames destroyed by failure state at this
	// interface: handed to it for transmit while it (or its node) was
	// down, or arriving at it while down — the queued-frame semantics of
	// a link cut.
	AdminDrops uint64
}

// Iface is a node's attachment to one end of a link.
type Iface struct {
	node *Node
	peer *Iface
	addr netaddr.Addr
	name string
	// dirIdx locates the transmit direction (this iface -> peer) in the
	// Sim's linkDir arena. Directions live in one contiguous slice so the
	// per-tick counter walks (TE sampling, drains) touch adjacent memory;
	// the arena grows on Connect, so the slot is always accessed by index,
	// never through a stored pointer.
	dirIdx int32
	// rxDirIdx locates, in the *owning node's* Sim arena, the direction
	// that books goodput when a frame is delivered to this iface. For an
	// intra-sim link it is simply peer.dirIdx (the transmitting
	// direction); for a cut link the peer's counters live in another
	// shard's arena, so delivery books into a local mirror direction and
	// Counters() on the transmit side merges it back at quiescence.
	rxDirIdx int32
	// foreign marks an iface whose peer lives in another shard's Sim:
	// transmitted frames are staged into the epoch exchange buffer
	// instead of being scheduled directly.
	foreign bool
	idx     uint16 // position in node.ifaces, for compact arrival events
	down    bool   // administratively down: neither transmits nor receives

	// Pending arrival batch: frames in flight toward this iface, sorted by
	// arrival time (FIFO within a time). One drain event in the scheduler
	// covers the whole batch instead of one event per frame; drainArmed /
	// drainAt track the earliest armed drain so scheduleArrival knows when
	// a new one is needed.
	arrQ       []arrFrame
	arrHead    int
	drainArmed bool
	drainAt    Time
}

// arrFrame is one in-flight frame in an interface's arrival batch.
type arrFrame struct {
	at   Time
	data []byte
}

// dir returns the transmit direction. The pointer aims into the Sim's
// arena and is invalidated by the next Connect — use it immediately, never
// store it.
func (i *Iface) dir() *linkDir { return &i.node.sim.dirs[i.dirIdx] }

// Node returns the owning node.
func (i *Iface) Node() *Node { return i.node }

// Peer returns the interface at the other end of the link.
func (i *Iface) Peer() *Iface { return i.peer }

// Addr returns the interface address (zero if unset).
func (i *Iface) Addr() netaddr.Addr { return i.addr }

// SetAddr assigns the interface address and registers it as a local
// address of the owning node.
func (i *Iface) SetAddr(a netaddr.Addr) *Iface {
	i.addr = a
	i.node.registerAddr(a, i)
	return i
}

// Name returns "node:peer" for diagnostics.
func (i *Iface) Name() string { return i.name }

// SetUp sets the interface's administrative state. A downed interface
// neither transmits nor receives: frames handed to it are dropped and
// counted in AdminDrops, and frames already in flight toward it are
// dropped on arrival (a cut loses what the wire was carrying). Bringing
// an interface back up does not resurrect anything.
func (i *Iface) SetUp(up bool) { i.down = !up }

// Up reports whether the interface can carry traffic: administratively
// up on a node that has not failed.
func (i *Iface) Up() bool { return !i.down && !i.node.failed }

// LinkUp reports whether the whole attachment is usable end to end:
// this interface and its peer are both up. This is the predicate
// liveness watches share — refine it here, not at call sites.
func (i *Iface) LinkUp() bool { return i.Up() && i.peer.Up() }

// Config returns the transmit-direction link configuration.
func (i *Iface) Config() LinkConfig { return i.dir().cfg }

// SetConfig replaces the transmit-direction configuration (used by
// failure-injection tests to degrade a live link).
func (i *Iface) SetConfig(cfg LinkConfig) { i.dir().cfg = cfg }

// Counters returns a snapshot of the transmit-direction counters. On a
// cut link (the peer lives in another shard) delivered goodput is booked
// by the receiving shard into a local mirror direction; the snapshot
// merges it back in. The merge reads the peer shard's arena, so on a cut
// link it is only coherent at quiescence — between epochs, after a run
// returns, or inside a barrier callback — which is when experiments read
// counters.
func (i *Iface) Counters() LinkCounters {
	c := i.dir().counters
	if i.foreign {
		m := &i.peer.node.sim.dirs[i.peer.rxDirIdx].counters
		c.DeliveredPackets += m.DeliveredPackets
		c.DeliveredBytes += m.DeliveredBytes
	}
	return c
}

// OfferedBytes returns the cumulative bytes offered to the wire in each
// direction of the interface's link: tx by this side, rx by the peer. It
// has the shape of irc.Provider.Load (offered load is the overload signal).
func (i *Iface) OfferedBytes() (tx, rx uint64) {
	return i.Counters().TxBytes, i.peer.Counters().TxBytes
}

// GoodputBytes returns the cumulative bytes actually delivered in each
// direction of the interface's link: out toward the peer, in toward this
// side. It has the shape of lisp.TelemetryLink.Sample.
func (i *Iface) GoodputBytes() (out, in uint64) {
	return i.Counters().DeliveredBytes, i.peer.Counters().DeliveredBytes
}

// QueueDepth returns the current transmit backlog in bytes.
func (i *Iface) QueueDepth() int {
	now := i.node.sim.Now()
	d := i.dir()
	if d.busyUntil <= now || d.cfg.RateBps == 0 {
		return 0
	}
	return int(float64(d.busyUntil-now) / float64(time.Second) * float64(d.cfg.RateBps) / 8)
}

// linkDir is one direction of a link.
type linkDir struct {
	cfg       LinkConfig
	busyUntil Time
	counters  LinkCounters
	// rng drives this direction's loss draws. It is created lazily on the
	// first draw (a rand.Rand is ~5KB — eager allocation would dominate
	// memory at 100k-domain scale) and seeded from the world seed and the
	// iface name, never from the shard-local rng: loss sequences must not
	// depend on how domains were partitioned across shards.
	rng *rand.Rand
}

// Link is a full-duplex point-to-point link.
type Link struct {
	a, b *Iface
}

// A returns the interface on the first node passed to Connect.
func (l *Link) A() *Iface { return l.a }

// B returns the interface on the second node passed to Connect.
func (l *Link) B() *Iface { return l.b }

// SetLoss sets the loss probability on both directions.
func (l *Link) SetLoss(p float64) {
	l.a.dir().cfg.Loss = p
	l.b.dir().cfg.Loss = p
}

// SetDown cuts the link: both interfaces go administratively down, so
// nothing new enters the wire and in-flight frames are lost on arrival.
func (l *Link) SetDown() {
	l.a.SetUp(false)
	l.b.SetUp(false)
}

// SetUp restores both interfaces after a SetDown.
func (l *Link) SetUp() {
	l.a.SetUp(true)
	l.b.SetUp(true)
}

// Connect creates a link between two nodes with the same configuration in
// both directions, returning the new link.
func Connect(a, b *Node, cfg LinkConfig) *Link {
	return ConnectAsym(a, b, cfg, cfg)
}

// ConnectAsym creates a link with per-direction configurations: ab applies
// to traffic from a to b.
//
// The two nodes may live in different shards of the same ShardedSim —
// that makes this a cut link: frames stage into the coordinator's
// per-epoch exchange buffer instead of being scheduled directly, and the
// link's Delay (both directions) participates in the epoch-length bound.
// Connecting nodes of unrelated Sims is still an error.
func ConnectAsym(a, b *Node, ab, ba LinkConfig) *Link {
	if a.sim != b.sim {
		return connectCut(a, b, ab, ba)
	}
	sim := a.sim
	dirIdx := int32(len(sim.dirs))
	sim.dirs = append(sim.dirs, linkDir{cfg: ab}, linkDir{cfg: ba})
	ia := &Iface{node: a, dirIdx: dirIdx, name: a.name + ":" + b.name, idx: uint16(len(a.ifaces))}
	ib := &Iface{node: b, dirIdx: dirIdx + 1, name: b.name + ":" + a.name, idx: uint16(len(b.ifaces))}
	ia.peer, ib.peer = ib, ia
	ia.rxDirIdx = ib.dirIdx
	ib.rxDirIdx = ia.dirIdx
	a.ifaces = append(a.ifaces, ia)
	b.ifaces = append(b.ifaces, ib)
	return &Link{a: ia, b: ib}
}

// connectCut wires a link whose endpoints live in different shards of one
// ShardedSim. Each side's transmit direction lives in its own shard's
// arena; additionally each side gets a local *mirror* direction where
// deliveries to it are booked (the transmitting direction's counters are
// not addressable from the receiving shard without racing), merged back
// by Counters() on the transmit side.
func connectCut(a, b *Node, ab, ba LinkConfig) *Link {
	sa, sb := a.sim, b.sim
	if sa.shard == nil || sa.shard != sb.shard {
		panic("simnet: Connect across unrelated simulations")
	}
	ia := &Iface{node: a, name: a.name + ":" + b.name, idx: uint16(len(a.ifaces)), foreign: true}
	ib := &Iface{node: b, name: b.name + ":" + a.name, idx: uint16(len(b.ifaces)), foreign: true}
	// a's arena: [tx a->b, mirror of b->a deliveries].
	ia.dirIdx = int32(len(sa.dirs))
	ia.rxDirIdx = ia.dirIdx + 1
	sa.dirs = append(sa.dirs, linkDir{cfg: ab}, linkDir{})
	// b's arena: [tx b->a, mirror of a->b deliveries].
	ib.dirIdx = int32(len(sb.dirs))
	ib.rxDirIdx = ib.dirIdx + 1
	sb.dirs = append(sb.dirs, linkDir{cfg: ba}, linkDir{})
	ia.peer, ib.peer = ib, ia
	a.ifaces = append(a.ifaces, ia)
	b.ifaces = append(b.ifaces, ib)
	sa.shard.registerCut(ia, ib)
	return &Link{a: ia, b: ib}
}

// transmit puts data on the wire toward the peer, modelling store-and-
// forward transmission: serialization at the link rate behind the current
// backlog, then propagation, then delivery to the peer node.
func (i *Iface) transmit(data []byte) {
	sim := i.node.sim
	d := i.dir()
	if i.down || i.node.failed {
		d.counters.AdminDrops++
		if sim.Trace != nil {
			sim.trace(TraceDrop, i.node.name, fmt.Sprintf("iface down on %s", i.name), data)
		}
		return
	}
	now := sim.Now()

	if d.cfg.QueueBytes > 0 && d.cfg.RateBps > 0 {
		// Compare in float64: truncating the backlog before adding the
		// frame admits packets that overfill the queue by up to a byte. A
		// frame that exactly fills the queue is still accepted.
		backlog := float64(d.busyUntil-now) / float64(time.Second) * float64(d.cfg.RateBps) / 8
		if backlog > 0 && backlog+float64(len(data)) > float64(d.cfg.QueueBytes) {
			d.counters.QueueDrops++
			if sim.Trace != nil {
				sim.trace(TraceDrop, i.node.name, fmt.Sprintf("queue overflow on %s", i.name), data)
			}
			return
		}
	}
	var txTime Time
	if d.cfg.RateBps > 0 {
		txTime = Time(float64(len(data)*8) / float64(d.cfg.RateBps) * float64(time.Second))
	}
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.busyUntil = start + txTime
	d.counters.TxPackets++
	d.counters.TxBytes += uint64(len(data))

	if d.cfg.Loss > 0 {
		if d.rng == nil {
			d.rng = rand.New(rand.NewSource(lossSeed(sim.worldSeed, i.name)))
		}
		if d.rng.Float64() < d.cfg.Loss {
			d.counters.RandomLoss++
			if sim.Trace != nil {
				sim.trace(TraceDrop, i.node.name, fmt.Sprintf("random loss on %s", i.name), data)
			}
			return
		}
	}
	arrival := d.busyUntil + d.cfg.Delay
	if i.foreign {
		sim.stageFrame(arrival, i.peer, data)
		return
	}
	sim.scheduleArrival(arrival, i.peer, data)
}

// lossSeed derives a per-direction loss-RNG seed from the world seed and
// the direction's stable name (FNV-1a over the name, mixed with the
// seed). Identical for any shard count by construction.
func lossSeed(worldSeed int64, name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= uint64(worldSeed) * 0x9e3779b97f4a7c15
	return int64(h)
}

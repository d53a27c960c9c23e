package main

import (
	"fmt"
	"net"
	"net/netip"
	"syscall"
	"time"
)

// This box is a few cores of a shared host, and what its neighbours do
// moves every timing by 10–40 % for seconds to minutes at a time: identical
// runs disagreed by more than the bounds they were meant to gate. Medians
// inside a run do not help against a spell that outlasts the run. What does
// is measuring the host alongside the system: the run is cut into slices,
// each slice is followed by a few spins of a fixed reference kernel, and the
// slice's wall and CPU time are divided by how much slower than nominal the
// spins around it ran. Timings are therefore reported at the reference host
// speed — what a quiet box shows — and the raw readings are printed beside
// them.
//
// The reference is the harness's own code over the standard library and the
// kernel, never the system under test, so no change to the system can move
// it.

// reference is the fixed kernel. One spin is three parts of similar
// length, one for each thing the workloads lean on: wide integer
// arithmetic (four independent chains, so a busy sibling thread shows),
// pointer-chasing sift-downs through a heap of 1 024 nodes (caches and
// memory), and UDP round trips through a reflector goroutine (system calls,
// loopback, goroutine wake-ups across cores). It allocates nothing.
type reference struct {
	cli, refl *net.UDPConn
	reflAddr  netip.AddrPort
	reflDone  chan struct{}
	buf       []byte
	heap      []*refNode
	sink      uint64
}

type refNode struct {
	key uint64
	pad [5]uint64 // 48 bytes a node, 48 KB of them
}

const (
	refALUSteps   = 1 << 18
	refHeapNodes  = 1 << 10
	refHeapSteps  = 8_000
	refRoundTrips = 60
	refTimeout    = 2 * time.Second
	// A lap spins once for every refSpinEvery of the slice it closes,
	// within these limits.
	refSpinEvery = 25 * time.Millisecond
	refSpinsMin  = 3
	refSpinsMax  = 40
	// refSliceTarget is how long a stretch of work that can be cut
	// anywhere lets a slice grow before it laps (meter.due).
	refSliceTarget = 100 * time.Millisecond
	// refNominalNs is what one spin costs on the sizing box (2 vCPUs of a
	// 2.1 GHz Xeon, Go 1.24) when its neighbours are quiet. It only fixes
	// the unit: a host running the spin in this time reports raw timings.
	refNominalNs = 1.8e6
)

func newReference() (*reference, error) {
	loopback := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	refl, err := net.ListenUDP("udp4", loopback)
	if err != nil {
		return nil, fmt.Errorf("reference reflector socket: %w", err)
	}
	cli, err := net.ListenUDP("udp4", loopback)
	if err != nil {
		refl.Close()
		return nil, fmt.Errorf("reference client socket: %w", err)
	}
	r := &reference{
		cli: cli, refl: refl,
		reflAddr: refl.LocalAddr().(*net.UDPAddr).AddrPort(),
		reflDone: make(chan struct{}),
		buf:      make([]byte, 64),
		heap:     make([]*refNode, refHeapNodes),
	}
	for i := range r.heap {
		r.heap[i] = &refNode{key: uint64(i)}
	}
	go func() {
		defer close(r.reflDone)
		buf := make([]byte, 64)
		for {
			n, from, err := refl.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // socket closed
			}
			if _, err := refl.WriteToUDPAddrPort(buf[:n], from); err != nil {
				return
			}
		}
	}()
	return r, nil
}

func (r *reference) close() {
	r.refl.Close()
	r.cli.Close()
	<-r.reflDone
}

// spin runs the kernel once and returns the nanoseconds it took.
func (r *reference) spin() (float64, error) {
	start := time.Now()
	a, b, c, d := uint64(88172645463325252), uint64(2), uint64(3), uint64(4)
	for i := 0; i < refALUSteps; i++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		c ^= c << 13
		c ^= c >> 7
		c ^= c << 17
		d ^= d << 13
		d ^= d >> 7
		d ^= d << 17
	}
	r.sink += a + b + c + d

	// Raise the smallest key by a pseudo-random step and sift it down: a
	// timer heap's steady churn.
	h := r.heap
	for s := 0; s < refHeapSteps; s++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		h[0].key += 1 + a&1023
		for i := 0; ; {
			l := 2*i + 1
			if l >= len(h) {
				break
			}
			if l+1 < len(h) && h[l+1].key < h[l].key {
				l++
			}
			if h[i].key <= h[l].key {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
	}

	// A lost datagram must fail the run, not hang it.
	if err := r.cli.SetReadDeadline(start.Add(refTimeout)); err != nil {
		return 0, fmt.Errorf("reference round trip: %w", err)
	}
	for i := 0; i < refRoundTrips; i++ {
		if _, err := r.cli.WriteToUDPAddrPort(r.buf, r.reflAddr); err != nil {
			return 0, fmt.Errorf("reference round trip: %w", err)
		}
		if _, _, err := r.cli.ReadFromUDPAddrPort(r.buf); err != nil {
			return 0, fmt.Errorf("reference round trip: %w", err)
		}
	}
	return float64(time.Since(start)), nil
}

// slice is what a stretch of a run cost: raw, and at the reference host
// speed. Slices add.
type slice struct {
	rawWall, rawCPU, rawUser float64 // ns; CPU is user+system
	wall, cpu                float64 // ns at the reference host speed
	ctxSwitches              int64
}

func (s *slice) add(o slice) {
	s.rawWall += o.rawWall
	s.rawCPU += o.rawCPU
	s.rawUser += o.rawUser
	s.wall += o.wall
	s.cpu += o.cpu
	s.ctxSwitches += o.ctxSwitches
}

// slowdown is how much slower than the reference speed the host ran over
// the slice (1 = nominal).
func (s slice) slowdown() float64 {
	if s.wall == 0 {
		return 1
	}
	return s.rawWall / s.wall
}

// meter cuts a run into slices. start opens one; lap closes it — reads the
// clocks, spins the reference, scales the slice — returns it, adds it to the
// running total and opens the next, so the spins themselves are charged to
// nobody; take hands the total over and zeroes it.
//
// A single spin is a poor sample: the host's speed also jitters by ±10 %
// from one millisecond to the next. So a lap spins several times, more
// after a long slice, and a slice is scaled by the mean of the spins on
// both sides of it — the lap that opened it and the lap that closes it.
type meter struct {
	ref   *reference
	t0    time.Time
	ru0   syscall.Rusage
	total slice
	// openSum and openN are the spins of the lap that opened the slice.
	openSum float64
	openN   int
	// spins keeps every spin of the run for host.calib_ns; spun is their
	// total, for callers that time a stretch with laps inside it.
	spins hist
	spun  time.Duration
	err   error // the first spin failure; the run reports it
}

func newMeter() (*meter, error) {
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	return &meter{ref: ref}, nil
}

func (m *meter) close() { m.ref.close() }

func (m *meter) start() {
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru0)
	m.t0 = time.Now()
}

func (m *meter) lap() slice {
	wall := float64(time.Since(m.t0))
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	user := float64(ru.Utime.Nano() - m.ru0.Utime.Nano())
	cpu := user + float64(ru.Stime.Nano()-m.ru0.Stime.Nano())
	n := min(max(int(time.Duration(wall)/refSpinEvery), refSpinsMin), refSpinsMax)
	sum := 0.0
	for i := 0; i < n; i++ {
		spin, err := m.ref.spin()
		if err != nil {
			if m.err == nil {
				m.err = err
			}
			spin = refNominalNs
		}
		m.spins.add(int64(spin))
		sum += spin
	}
	m.spun += time.Duration(sum)
	slow := (m.openSum + sum) / float64(m.openN+n) / refNominalNs
	m.openSum, m.openN = sum, n
	s := slice{
		rawWall: wall, rawCPU: cpu, rawUser: user,
		wall: wall / slow, cpu: cpu / slow,
		ctxSwitches: ru.Nvcsw + ru.Nivcsw - m.ru0.Nvcsw - m.ru0.Nivcsw,
	}
	m.total.add(s)
	m.start()
	return s
}

// due laps once the open slice has lasted refSliceTarget and returns the
// slice it closed, or nothing. Long stretches of work call it wherever they
// can be cut — between an experiment's cells, between steps of simulated
// time — because the host's speed a second ago says little about now.
func (m *meter) due() slice {
	if time.Since(m.t0) < refSliceTarget {
		return slice{}
	}
	return m.lap()
}

func (m *meter) take() slice {
	s := m.total
	m.total = slice{}
	return s
}

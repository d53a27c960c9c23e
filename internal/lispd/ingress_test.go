package lispd

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// poolCap is overlay's per-host cap on ingress buffers; one more frame
// than that has rewritten every pooled buffer.
const poolCap = 1024

// waitUntil polls cond for up to d and reports whether it came true.
func waitUntil(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// parkLoop blocks d's loop on a thunk until the returned func is called
// (Cleanup calls it too, so a failed test cannot leave the loop stuck
// for Close).
func parkLoop(t *testing.T, d *Daemon) (unpark func()) {
	t.Helper()
	parked, release := make(chan struct{}), make(chan struct{})
	d.Loop().Post(func() { close(parked); <-release })
	<-parked
	unpark = sync.OnceFunc(func() { close(release) })
	t.Cleanup(unpark)
	return unpark
}

// churnBuffers pushes poolCap+1 distinct frames through d's ingress so
// that whatever an earlier frame's buffer held is gone. The frames go to
// an unbound port on one of d's own addresses: counted, then dropped.
func churnBuffers(t *testing.T, from *endHost, d *Daemon, src, own netaddr.Addr) {
	t.Helper()
	start := d.Host().Stats().RxFrames
	for i := 0; i <= poolCap; i++ {
		payload := bytes.Repeat([]byte{byte(i), byte(i >> 8), 0xA5}, 40)
		from.send(d.RealAddr(), runtime.EncodeUDP(src, own, 9, 9, packet.Payload(payload)))
		if i%32 == 31 { // stay inside the kernel's socket buffer
			waitUntil(50*time.Millisecond, func() bool { return d.Host().Stats().RxFrames >= start+uint64(i) })
		}
	}
	if !waitUntil(5*time.Second, func() bool { return d.Host().Stats().RxFrames >= start+poolCap/2 }) {
		t.Fatalf("only %d of %d churn frames reached the daemon", d.Host().Stats().RxFrames-start, poolCap+1)
	}
}

// TestQueuedFrameSurvivesBufferRecycling: under missPolicy "queue" the
// xTR holds a data frame that missed until its mapping arrives. The frame
// reached it in a pooled ingress buffer, so the queue must own a copy:
// every buffer is rewritten before the mapping installs, and the replayed
// frame must still come out of the tunnel byte-identical.
func TestQueuedFrameSurvivesBufferRecycling(t *testing.T) {
	cfgA := testConfig(0)
	cfgA.Site.MissPolicy = "queue"
	da, db := startPairWith(t, cfgA, testConfig(1))

	client, sink := newEndHost(t), newEndHost(t)
	es, ed := netaddr.MustParseAddr("100.1.1.1"), netaddr.MustParseAddr("100.2.1.1")
	dnsA := netaddr.MustParseAddr("172.16.0.2")
	da.SetPeer(netaddr.HostPrefix(es), client.addr())
	db.SetPeer(netaddr.HostPrefix(ed), sink.addr())

	// The data frame arrives before anything resolved its flow: queued.
	inner := runtime.EncodeUDP(es, ed, 7777, 8888, packet.Payload([]byte("sent before the mapping existed")))
	client.send(da.RealAddr(), inner)
	if !waitUntil(5*time.Second, func() bool { return da.XTR().Stats().QueuedPackets == 1 }) {
		t.Fatalf("the early frame was not queued: %+v", da.XTR().Stats())
	}

	churnBuffers(t, client, da, es, netaddr.MustParseAddr("172.16.0.1"))

	// Now the resolution: the MappingPush installs the flow and replays.
	q := &packet.DNS{
		ID: 7, RD: true,
		Questions: []packet.DNSQuestion{{Name: "h0.d1.example", Type: packet.DNSTypeA, Class: packet.DNSClassIN}},
	}
	client.send(da.RealAddr(), runtime.EncodeUDP(es, dnsA, 5353, packet.PortDNS, q))
	client.recv(5 * time.Second) // the DNS answer

	if got := sink.recv(5 * time.Second); !bytes.Equal(got, inner) {
		t.Fatalf("the replayed frame is not the frame that was queued:\n got % x\nwant % x", got, inner)
	}
	if st := da.XTR().Stats(); st.Replayed != 1 {
		t.Fatalf("Replayed = %d, want 1", st.Replayed)
	}
}

// TestDeferredFetchSurvivesBufferRecycling: with defense.fetchServiceRate
// set, a MapFetch waits in the PCED's service queue and its signature is
// checked when it is served — over bytes that arrived in a pooled ingress
// buffer. The queued message must own them: every buffer is rewritten
// during the wait, and the fetch must still verify and be answered.
func TestDeferredFetchSurvivesBufferRecycling(t *testing.T) {
	cfg := testConfig(1)
	cfg.Defense.FetchServiceRate = 4 // one fetch per 250 ms: room to churn the buffers
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	remote := newEndHost(t) // plays domain 0: its PCE and its DNSS
	d.SetPeer(netaddr.MustParsePrefix("172.16.0.0/24"), remote.addr())
	d.Start()

	pce0, dnss0 := netaddr.MustParseAddr("172.16.0.1"), netaddr.MustParseAddr("172.16.0.2")
	pce1 := netaddr.MustParseAddr("172.16.1.1")
	fetch := &packet.PCECP{
		Version: packet.PCECPVersion, Type: packet.PCECPMapFetch, Nonce: 0xfe7c4, PCEAddr: pce0,
		Flows:   []packet.PCEFlowMapping{{DstEID: netaddr.MustParseAddr("100.2.1.1"), SrcRLOC: dnss0}},
		KeyID:   1,
		AuthKey: cfg.AuthKey(),
	}
	remote.send(d.RealAddr(), runtime.EncodeUDP(pce0, pce1, packet.PortPCECP, packet.PortPCECP, fetch))
	if !waitUntil(5*time.Second, func() bool { return d.PCE().Stats().MapFetches == 1 }) {
		t.Fatal("the fetch did not reach the PCE")
	}

	churnBuffers(t, remote, d, pce0, pce1)

	reply := remote.recv(5 * time.Second)
	pk := packet.NewPacket(reply, packet.LayerTypeIPv4, packet.Default)
	msg, ok := pk.Layer(packet.LayerTypePCECP).(*packet.PCECP)
	if !ok || msg.Type != packet.PCECPMapFetchReply || msg.Nonce != fetch.Nonce {
		t.Fatalf("want the MapFetchReply for nonce %#x, got % x", fetch.Nonce, reply)
	}
	if st := d.PCE().Stats(); st.AuthRejects != 0 {
		t.Fatalf("AuthRejects = %d: the queued fetch no longer verified when served", st.AuthRejects)
	}
}

// TestCloseDrainsWhatWasRead: frames the reader had already handed to the
// loop when Close begins are still forwarded — Close stops reading, lets
// the loop finish, and only then closes the socket.
func TestCloseDrainsWhatWasRead(t *testing.T) {
	d, err := New(testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	src, sink := newEndHost(t), newEndHost(t)
	far := netaddr.MustParseAddr("100.1.7.7") // intra-site: forwarded, not encapsulated
	d.SetPeer(netaddr.HostPrefix(far), sink.addr())
	d.Start()

	unpark := parkLoop(t, d)

	const n = 40 // well inside the kernel's socket buffer and the sink's channel
	var frames [][]byte
	for i := 0; i < n; i++ {
		f := runtime.EncodeUDP(netaddr.MustParseAddr("100.1.1.1"), far, 7000, 7001, packet.Payload([]byte{byte(i), 1, 2, 3}))
		frames = append(frames, f)
		src.send(d.RealAddr(), f)
	}
	if !waitUntil(5*time.Second, func() bool { return d.Host().Inflight() == n }) {
		t.Fatalf("reader handed over %d of %d frames", d.Host().Inflight(), n)
	}

	closed := make(chan struct{})
	go func() { d.Close(); close(closed) }()
	for d.mu.TryLock() { // until Close holds the daemon lock: shutdown has begun
		d.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
	}
	unpark()
	select {
	case <-closed:
	case <-time.After(2 * drainTimeout):
		t.Fatal("Close did not return")
	}

	for i := range frames {
		if got := sink.recv(5 * time.Second); !bytes.Equal(got, frames[i]) {
			t.Fatalf("frame %d after Close:\n got % x\nwant % x", i, got, frames[i])
		}
	}
	st := d.Host().Stats()
	if st.RxFrames != n || st.TxFrames+st.Consumed+st.NoRoute+st.Unhandled+st.Malformed+st.RxDropped != st.RxFrames || st.TxErrors != 0 {
		t.Fatalf("after Close: %+v; want %d received, each forwarded or counted as dropped, no tx errors", st, n)
	}
	if got := d.Host().Inflight(); got != 0 {
		t.Fatalf("%d frames still queued after Close", got)
	}
}

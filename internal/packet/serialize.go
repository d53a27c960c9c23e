package packet

import (
	"fmt"
	"sync"
)

// SerializeOptions controls how layers serialize themselves.
type SerializeOptions struct {
	// FixLengths recomputes length fields from actual payload sizes.
	FixLengths bool
	// ComputeChecksums recomputes checksum fields.
	ComputeChecksums bool
}

// FixAll is the common case: lengths and checksums both recomputed.
var FixAll = SerializeOptions{FixLengths: true, ComputeChecksums: true}

// SerializableLayer is a layer that can write itself into a buffer.
type SerializableLayer interface {
	// SerializeTo prepends this layer's bytes to b. SerializeTo is called
	// in reverse layer order (innermost first) so that length and checksum
	// computation can see the already-serialized payload.
	SerializeTo(b SerializeBuffer, opts SerializeOptions) error
	// LayerType identifies the layer being serialized.
	LayerType() LayerType
}

// SerializeBuffer accumulates packet bytes. Data is built back-to-front:
// each layer prepends its header in front of what is already there.
type SerializeBuffer interface {
	// Bytes returns the accumulated packet data.
	Bytes() []byte
	// PrependBytes returns n fresh bytes at the start of the packet.
	PrependBytes(n int) ([]byte, error)
	// AppendBytes returns n fresh bytes at the end of the packet.
	AppendBytes(n int) ([]byte, error)
	// Clear resets the buffer for reuse.
	Clear() error
}

// serializeBuffer grows a byte slice in both directions, keeping headroom
// at the front so repeated PrependBytes calls seldom reallocate.
type serializeBuffer struct {
	data  []byte
	start int // offset of packet start within data
	head  int // headroom restored by Clear
}

// NewSerializeBuffer returns an empty buffer with a modest default headroom.
func NewSerializeBuffer() SerializeBuffer {
	return NewSerializeBufferExpectedSize(64, 256)
}

// NewSerializeBufferExpectedSize returns a buffer pre-sized for the given
// expected header (prepend) and payload (append) sizes.
func NewSerializeBufferExpectedSize(headroom, tail int) SerializeBuffer {
	return &serializeBuffer{data: make([]byte, headroom, headroom+tail), start: headroom, head: headroom}
}

func (b *serializeBuffer) Bytes() []byte { return b.data[b.start:] }

func (b *serializeBuffer) PrependBytes(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("packet: PrependBytes(%d)", n)
	}
	if b.start < n {
		// Grow at the front: reallocate with doubled headroom. The new
		// capacity is sized from the live contents, not the old capacity,
		// so repeated reuse cannot compound allocations.
		newHead := 2 * (n + 32)
		live := len(b.data) - b.start
		nd := make([]byte, newHead+live, newHead+live+(cap(b.data)-len(b.data)))
		copy(nd[newHead:], b.data[b.start:])
		b.data, b.start = nd, newHead
		if newHead > b.head {
			b.head = newHead
		}
	}
	b.start -= n
	return b.data[b.start : b.start+n], nil
}

func (b *serializeBuffer) AppendBytes(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("packet: AppendBytes(%d)", n)
	}
	old := len(b.data)
	for cap(b.data) < old+n {
		nd := make([]byte, old, 2*cap(b.data)+n)
		copy(nd, b.data)
		b.data = nd
	}
	b.data = b.data[:old+n]
	// Zero the fresh bytes: layers rely on reserved fields starting at 0.
	for i := old; i < old+n; i++ {
		b.data[i] = 0
	}
	return b.data[old:], nil
}

func (b *serializeBuffer) Clear() error {
	// Restore the buffer to its full configured headroom so reuse neither
	// loses front space nor grows without bound.
	if cap(b.data) < b.head {
		b.data = make([]byte, b.head)
	}
	b.data = b.data[:b.head]
	b.start = b.head
	return nil
}

// SerializeLayers clears the buffer and serializes the given layers into
// it, outermost first — e.g. SerializeLayers(buf, opts, ip, udp, dns).
func SerializeLayers(buf SerializeBuffer, opts SerializeOptions, layers ...SerializableLayer) error {
	if err := buf.Clear(); err != nil {
		return err
	}
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(buf, opts); err != nil {
			return fmt.Errorf("packet: serializing %v: %w", layers[i].LayerType(), err)
		}
	}
	return nil
}

// serializeBufferPool recycles serialize buffers across Serialize calls.
// Buffers return to the pool reset via the existing Clear, so a reused
// buffer keeps whatever headroom and capacity earlier packets grew it to.
var serializeBufferPool = sync.Pool{
	New: func() interface{} { return NewSerializeBuffer() },
}

// GetSerializeBuffer returns a cleared buffer from the package pool.
// Callers that encode many packets (the simulator's send paths) should
// pair it with PutSerializeBuffer instead of allocating fresh buffers.
func GetSerializeBuffer() SerializeBuffer {
	return serializeBufferPool.Get().(SerializeBuffer)
}

// PutSerializeBuffer returns a buffer obtained from GetSerializeBuffer to
// the pool. The buffer — and any slice obtained from it, including
// Bytes() — must not be used afterwards.
func PutSerializeBuffer(b SerializeBuffer) {
	if b == nil {
		return
	}
	b.Clear()
	serializeBufferPool.Put(b)
}

// Serialize is a convenience wrapper returning the encoded bytes of the
// given layer stack using FixAll options. It panics on error, which can
// only result from a programming mistake in layer construction — callers
// building packets from their own structs, not attacker input. The scratch
// buffer comes from the package pool; only the returned copy allocates.
// The copy is exact: cap == len.
func Serialize(layers ...SerializableLayer) []byte { return SerializeRoom(0, layers...) }

// SerializeRoom is Serialize with room bytes of spare capacity behind the
// frame. Hosts build the frames they originate with EncapTemplateLen of
// it, so an ITR on the path encapsulates them where they lie.
func SerializeRoom(room int, layers ...SerializableLayer) []byte {
	buf := GetSerializeBuffer()
	if err := SerializeLayers(buf, FixAll, layers...); err != nil {
		panic(err)
	}
	out := make([]byte, len(buf.Bytes()), len(buf.Bytes())+room)
	copy(out, buf.Bytes())
	PutSerializeBuffer(buf)
	return out
}

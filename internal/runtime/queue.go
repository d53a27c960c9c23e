package runtime

// Queue is the event queue of both engines: a binary min-heap ordered by
// (at, seq), so entries pop by deadline and, among equal deadlines, in the
// order their sequence numbers were handed out — the FIFO contract every
// experiment table and the daemon's timer ordering rest on.
//
// The heap holds pointer-free keys; the values sit still in a slab the
// keys index. A sift therefore moves 24-byte keys with no write barriers
// instead of whole pointer-carrying values, which is what keeps a deep
// queue (full-scale E12) as fast as a shallow one.
//
// Slab slots are recycled without a separate free list: vals[i] is owned
// by exactly one entry of keys[:len(vals)], Pop parks the key it removes
// just past the live heap, and Push takes the slot back from there. In
// steady state neither allocates.
//
// The zero Queue is empty and ready to use. A Queue is not safe for
// concurrent use.
type Queue[T any] struct {
	keys []queueKey // keys[:len(keys)] is the heap; up to len(vals), parked slots
	vals []T
}

type queueKey struct {
	at   Time
	seq  uint64
	slot int32 // index into vals
}

func (a *queueKey) before(b *queueKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.keys) }

// Push queues a copy of *v under (at, seq). The caller supplies seq from
// its own monotonic counter; v is not retained.
func (q *Queue[T]) Push(at Time, seq uint64, v *T) {
	n := len(q.keys)
	if n < len(q.vals) {
		q.keys = q.keys[:n+1] // keys[n] is a slot parked by Pop
	} else {
		var zero T
		q.vals = append(q.vals, zero)
		q.keys = append(q.keys, queueKey{slot: int32(n)})
	}
	k := q.keys
	key := queueKey{at: at, seq: seq, slot: k[n].slot}
	q.vals[key.slot] = *v
	i := n
	for i > 0 {
		parent := (i - 1) / 2
		if !key.before(&k[parent]) {
			break
		}
		k[i] = k[parent]
		i = parent
	}
	k[i] = key
}

// Peek returns the deadline and the value of the earliest entry, or a nil
// pointer when the queue is empty. The pointer is into the slab and is
// valid only until the next Push or Pop: copy the value out before
// running anything that may queue more.
func (q *Queue[T]) Peek() (at Time, v *T) {
	if len(q.keys) == 0 {
		return 0, nil
	}
	return q.keys[0].at, &q.vals[q.keys[0].slot]
}

// Pop discards the earliest entry and zeroes its slab slot, so whatever
// the value referenced is collectable at once. The queue must not be
// empty.
func (q *Queue[T]) Pop() {
	k := q.keys
	n := len(k) - 1
	top, last := k[0], k[n]
	var zero T
	q.vals[top.slot] = zero
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && k[child+1].before(&k[child]) {
			child++
		}
		if !k[child].before(&last) {
			break
		}
		k[i] = k[child]
		i = child
	}
	k[i] = last
	k[n] = top // parked: the next Push reuses top.slot
	q.keys = k[:n]
}

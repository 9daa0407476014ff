package engine

import "repro/internal/storage"

// existCache is the constant-time existence-check cache of paper
// §6.2.2: a direct-mapped array of (group-key, aggregate) pairs sitting
// in front of a replica's B+-tree. A hit with a value at least as good
// as the incoming derivation skips the logarithmic index probe
// entirely. Each replica has its own cache and a single writer, so no
// synchronization is needed.
//
// Keys are group prefixes of wire tuples (fixed width per replica), so
// they are stored inline in one flat value array: put copies the key
// words into the slot and never allocates.
type existCache struct {
	mask  uint64
	width int
	keys  []storage.Value // slot i holds keys[i*width:(i+1)*width]
	vals  []storage.Value
	full  []bool
}

// newExistCache returns a cache with 2^bits slots for width-column
// group keys.
func newExistCache(bits uint, width int) *existCache {
	n := uint64(1) << bits
	return &existCache{
		mask:  n - 1,
		width: width,
		keys:  make([]storage.Value, int(n)*width),
		vals:  make([]storage.Value, n),
		full:  make([]bool, n),
	}
}

// keyAt returns the key stored in a slot.
func (c *existCache) keyAt(slot uint64) []storage.Value {
	off := int(slot) * c.width
	return c.keys[off : off+c.width]
}

// get returns the cached aggregate for the key, if present.
func (c *existCache) get(h uint64, key []storage.Value) (storage.Value, bool) {
	slot := h & c.mask
	if !c.full[slot] {
		return 0, false
	}
	k := c.keyAt(slot)
	for i := range k {
		if k[i] != key[i] {
			return 0, false
		}
	}
	return c.vals[slot], true
}

// put stores the key's current aggregate, evicting whatever shared the
// slot. The key words are copied, so callers may reuse buffers.
func (c *existCache) put(h uint64, key []storage.Value, val storage.Value) {
	slot := h & c.mask
	copy(c.keyAt(slot), key)
	c.vals[slot] = val
	c.full[slot] = true
}

// incIndex is the incremental equi-join index maintained on
// set-semantics recursive replicas: tuples are immutable once inserted,
// so the index only ever appends. It is a power-of-two bucket array of
// chain heads over flat per-entry arrays (next pointer, cached key
// hash, view index into the owning set relation) — growth rebuilds the
// bucket heads from the cached hashes, and steady-state adds only
// extend the entry arrays. Entries name tuples by their 4-byte set
// index rather than a 24-byte Tuple header, so every array here is
// pointer-free and invisible to the garbage collector; the cursor
// reconstructs tuple views through SetRelation.At.
type incIndex struct {
	cols  []int
	set   *storage.SetRelation
	mask  uint64
	head  []int32 // bucket -> most recent entry, -1 when empty
	next  []int32 // entry -> previous entry in the same bucket
	khash []uint64
	// ktag mirrors khash with the 1-byte directory tag (storage.TagOf):
	// a chain walk scans the byte lane and touches the 8-byte hash —
	// and the set tuple behind it — only on a tag match.
	ktag []uint8
	ids  []int32 // entry -> view index in set
}

const incIndexMinBuckets = 16

func newIncIndex(cols []int, set *storage.SetRelation) *incIndex {
	ix := &incIndex{
		cols: cols,
		set:  set,
		mask: incIndexMinBuckets - 1,
		head: make([]int32, incIndexMinBuckets),
	}
	for i := range ix.head {
		ix.head[i] = -1
	}
	return ix
}

// add indexes the id-th tuple of the owning set relation (which must
// already hold it).
func (ix *incIndex) add(id int32) {
	if len(ix.ids) >= len(ix.head) {
		ix.grow()
	}
	h := ix.set.At(int(id)).HashOn(ix.cols)
	b := h & ix.mask
	ix.next = append(ix.next, ix.head[b])
	ix.head[b] = int32(len(ix.ids))
	ix.khash = append(ix.khash, h)
	ix.ktag = append(ix.ktag, storage.TagOf(h))
	ix.ids = append(ix.ids, id)
}

// grow doubles the bucket array and re-chains every entry from its
// cached key hash.
func (ix *incIndex) grow() {
	ix.head = make([]int32, 2*len(ix.head))
	for i := range ix.head {
		ix.head[i] = -1
	}
	ix.mask = uint64(len(ix.head) - 1)
	for i, h := range ix.khash {
		b := h & ix.mask
		ix.next[i] = ix.head[b]
		ix.head[b] = int32(i)
	}
}

// lookup streams tuples matching the key until fn returns false
// (most-recently-indexed first). Non-kernel callers don't carry probe
// counters; the stack-local bag keeps the cursor API uniform without
// sharing a discard sink across goroutines.
func (ix *incIndex) lookup(key []storage.Value, fn func(storage.Tuple) bool) {
	var pc storage.ProbeCounters
	c := ix.seek(key)
	for {
		t, ok := c.next(key, &pc)
		if !ok {
			return
		}
		if !fn(t) {
			return
		}
	}
}

// incCursor walks one incIndex chain without callbacks: seek hashes the
// key once, next advances to the following match. It is a value type so
// executors can embed it in a reusable frame; no per-probe allocation.
type incCursor struct {
	ix *incIndex
	i  int32
	h  uint64
}

// seek positions a cursor on the chain for key (most recent first).
func (ix *incIndex) seek(key []storage.Value) incCursor {
	h := storage.HashValues(key)
	return incCursor{ix: ix, i: ix.head[h&ix.mask], h: h}
}

// next returns the next tuple whose key columns equal key, advancing the
// cursor past it; ok is false when the chain is exhausted. Chain
// positions are screened through the byte tag lane first, then the
// cached 64-bit hash; only a full hash match loads the set tuple for
// the key compare.
func (c *incCursor) next(key []storage.Value, pc *storage.ProbeCounters) (storage.Tuple, bool) {
	ix := c.ix
	tg := storage.TagOf(c.h)
	for i := c.i; i >= 0; i = ix.next[i] {
		pc.TagProbes++
		if ix.ktag[i] != tg {
			pc.TagRejects++
			continue
		}
		if ix.khash[i] != c.h {
			continue
		}
		t := ix.set.At(int(ix.ids[i]))
		pc.KeyCompares++
		match := true
		for j, col := range ix.cols {
			if t[col] != key[j] {
				match = false
				break
			}
		}
		if match {
			c.i = ix.next[i]
			return t, true
		}
	}
	c.i = -1
	return nil, false
}

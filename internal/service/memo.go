package service

import (
	"bytes"
	"sync"

	"ofar"
)

// The request memo. Resolving a body — JSON decode, Experiment.Resolve with
// its canonical config marshal, the service caps, the point keys — is a pure
// function of the body bytes and the engine digest, so a body posted again
// resolves to what it resolved to before. A sweep client repeats bodies (a
// figure re-plotted, a dashboard polling a sweep), and for a reply served
// from the result cache that resolution is most of the handler's work. The
// memo keeps it, keyed by the exact bytes: a body that differs in one byte,
// whitespace and field order included, is resolved on its own.
const (
	// memoEntries bounds how many bodies the memo holds; the oldest stored
	// goes first.
	memoEntries = 256
	// memoMaxBody bounds the bodies the memo stores, in bytes: a longer one
	// is resolved on every post. Every shipped request is far smaller.
	memoMaxBody = 8 << 10
)

// resolution is everything handleSweep derives from one body before it looks
// up a point: the resolved experiment, its point keys as numbers and as the
// 16 hex digits the reply lines carry, and for each point whether an earlier
// point of the same body has its key (admission counts that work once). It
// is never written after it is built: every request that posts the same
// bytes shares it, as every point of one request shares its Resolved.
type resolution struct {
	body   []byte // the exact bytes resolved; set when stored in the memo
	res    ofar.Resolved
	keys   []uint64
	hex    []string
	repeat []bool
}

// line is the reply line of point i before its source and result are known.
func (rv *resolution) line(i int) PointResponse {
	return PointResponse{Type: "point", Index: i, Load: rv.res.Loads[i], Key: rv.hex[i]}
}

func newResolution(res ofar.Resolved, digest uint64) *resolution {
	rv := &resolution{res: res, keys: pointKeys(res, digest)}
	rv.hex = make([]string, len(rv.keys))
	rv.repeat = make([]bool, len(rv.keys))
	seen := make(map[uint64]bool, len(rv.keys))
	for i, k := range rv.keys {
		rv.hex[i] = string(appendHex16(nil, k))
		rv.repeat[i] = seen[k]
		seen[k] = true
	}
	return rv
}

// requestMemo maps body bytes to their resolution. FNV-1a over the bytes
// picks the entry and bytes.Equal confirms it, so two bodies whose hashes
// collide never share a resolution: the later one replaces the earlier.
type requestMemo struct {
	mu    sync.Mutex
	items map[uint64]*resolution
	order [memoEntries]uint64 // stored hashes in insertion order, a ring
	next  int                 // the ring's next slot: the oldest hash once full
}

func newRequestMemo() *requestMemo {
	return &requestMemo{items: make(map[uint64]*resolution, memoEntries)}
}

// get returns the resolution stored for body, whose hash is h, or nil.
func (m *requestMemo) get(h uint64, body []byte) *resolution {
	m.mu.Lock()
	rv := m.items[h]
	m.mu.Unlock()
	if rv == nil || !bytes.Equal(rv.body, body) {
		return nil
	}
	return rv
}

// put stores rv as the resolution of body, whose hash is h, unless body is
// longer than memoMaxBody or already stored. rv keeps its own copy of body.
// A full memo drops its oldest entry first.
func (m *requestMemo) put(h uint64, body []byte, rv *resolution) {
	if len(body) > memoMaxBody {
		return
	}
	rv.body = bytes.Clone(body)
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.items[h]; ok {
		if !bytes.Equal(old.body, rv.body) {
			m.items[h] = rv // a collision: the hash keeps its ring slot
		}
		return
	}
	if len(m.items) == memoEntries {
		delete(m.items, m.order[m.next])
	}
	m.items[h] = rv
	m.order[m.next] = h
	m.next = (m.next + 1) % memoEntries
}

// len returns the number of stored bodies.
func (m *requestMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

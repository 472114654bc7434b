// Package pipe is the unified data-plane core of the real-socket overlay
// stack: a size-classed buffer pool, the one implementation of the
// bidirectional splice loop every forwarding layer (relay, gateway, netem,
// tunnel, measure, multipath) runs on, the one listener lifecycle
// (Server) the relay, gateway, netem and measure servers share, and the
// one binding of a conn's deadline to a context (BindContext) that every
// context-bounded exchange runs under. The
// paper's throughput gains hinge on the split-TCP relay path adding as
// little overhead as possible, so the hot path here is allocation-free in
// steady state: copy buffers, segment buffers, and frame scratch all come
// from the pool, and the loop itself is written once, with correct TCP
// half-close propagation, idle teardown, per-direction metering, and a
// per-chunk hook for shaping and rate limiting.
package pipe

import (
	"sync"
	"sync/atomic"

	"cronets/internal/obs"
)

// classSizes are the pool's buffer size classes: small (frame headers
// and every copy buffer until its flow fills a read), medium (the
// default copy buffer and multipath segment size), large (the split-TCP
// relay buffer). Requests above the largest class fall through to plain
// allocation.
var classSizes = [...]int{4 << 10, 32 << 10, 256 << 10}

// DefaultBufferBytes is the copy-buffer size Bidirectional uses when the
// caller does not specify one.
const DefaultBufferBytes = 32 << 10

var (
	// pools[i] holds *[]byte whose cap is exactly classSizes[i].
	pools [len(classSizes)]sync.Pool
	// headers recycles the *[]byte wrappers themselves so that a steady
	// Get/Put cycle allocates nothing: a wrapper freed by Get parks here
	// until the next Put needs one.
	headers sync.Pool

	poolHits     atomic.Int64
	poolMisses   atomic.Int64
	poolPuts     atomic.Int64
	poolDiscards atomic.Int64
	// poolInUse is the bytes of size-class buffers handed out by Get and
	// not yet Put back.
	poolInUse atomic.Int64

	// spliced and spliceFallbacks count the bulk directions that moved
	// the rest of their flow with splice(2), and those that qualified
	// but kept the user buffer because no pipe could be made or sized.
	spliced         atomic.Int64
	spliceFallbacks atomic.Int64
)

// Get returns a buffer of length n, drawn from the smallest size class
// that fits (allocating a fresh class-sized buffer on pool miss). Requests
// larger than every class are plainly allocated. The contents are
// arbitrary — callers must not read bytes they did not write.
func Get(n int) []byte {
	for i, size := range classSizes {
		if n > size {
			continue
		}
		poolInUse.Add(int64(size))
		if w, _ := pools[i].Get().(*[]byte); w != nil {
			b := *w
			*w = nil
			headers.Put(w)
			poolHits.Add(1)
			return b[:n]
		}
		poolMisses.Add(1)
		return make([]byte, n, size)
	}
	poolMisses.Add(1)
	return make([]byte, n)
}

// Put returns a buffer obtained from Get to its size class. Buffers whose
// capacity matches no class (oversize Gets, foreign slices) are discarded.
// The caller must not retain any reference to b after Put.
func Put(b []byte) {
	if b == nil {
		return
	}
	for i, size := range classSizes {
		if cap(b) != size {
			continue
		}
		w, _ := headers.Get().(*[]byte)
		if w == nil {
			w = new([]byte)
		}
		*w = b[:size]
		pools[i].Put(w)
		poolPuts.Add(1)
		poolInUse.Add(-int64(size))
		return
	}
	poolDiscards.Add(1)
}

// PoolStats is a snapshot of the pool's counters.
type PoolStats struct {
	// Hits and Misses count Get calls served from the pool vs freshly
	// allocated (misses include oversize requests).
	Hits, Misses int64
	// Puts counts buffers returned to a class; Discards counts Put calls
	// whose buffer matched no class and was dropped for the GC.
	Puts, Discards int64
	// BytesInUse is the capacity of the size-class buffers currently
	// handed out: a class Get adds its class size, a class Put subtracts
	// it. Oversize and foreign buffers are not counted.
	BytesInUse int64
	// Spliced counts the bulk directions between two plain TCP conns
	// without a Hook that gave back their buffer and moved the rest of
	// the flow with splice(2). SpliceFallbacks counts the ones that
	// qualified but kept a user buffer: pipe2 failed (EMFILE), or the
	// pipe could not be sized to BufferBytes (past the per-user
	// /proc/sys/fs/pipe-user-pages-soft for an unprivileged process).
	Spliced, SpliceFallbacks int64
}

// Stats returns the pool's counters. Gets = Hits + Misses and
// Returns = Puts + Discards; a leak-free workload drains to
// Gets == Returns once every buffer is released.
func Stats() PoolStats {
	return PoolStats{
		Hits:            poolHits.Load(),
		Misses:          poolMisses.Load(),
		Puts:            poolPuts.Load(),
		Discards:        poolDiscards.Load(),
		BytesInUse:      poolInUse.Load(),
		Spliced:         spliced.Load(),
		SpliceFallbacks: spliceFallbacks.Load(),
	}
}

// InstrumentPool registers the pool's counters on an obs registry (the
// pool is process-global, so call this once per exposed registry). A nil
// registry is a no-op.
func InstrumentPool(reg *obs.Registry) {
	reg.CounterFunc("cronets_pipe_pool_hits_total",
		"Buffer-pool Gets served from a size class.", poolHits.Load)
	reg.CounterFunc("cronets_pipe_pool_misses_total",
		"Buffer-pool Gets that allocated (cold class or oversize).", poolMisses.Load)
	reg.CounterFunc("cronets_pipe_pool_puts_total",
		"Buffers returned to a size class.", poolPuts.Load)
	reg.CounterFunc("cronets_pipe_pool_discards_total",
		"Put buffers matching no size class, dropped for the GC.", poolDiscards.Load)
	reg.GaugeFunc("cronets_pipe_pool_bytes_in_use",
		"Bytes of size-class buffers handed out and not yet returned.", poolInUse.Load)
	reg.CounterFunc("cronets_pipe_spliced_total",
		"Bulk directions that moved the rest of their flow with splice(2).", spliced.Load)
	reg.CounterFunc("cronets_pipe_splice_fallbacks_total",
		"Bulk directions that qualified for splice(2) but kept a user buffer (no pipe).", spliceFallbacks.Load)
}

package obs

import (
	"runtime"
	"time"
)

// RuntimeBuckets is the histogram scale for GC pauses: 10 µs to ~1 s.
var RuntimeBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// runtimeInterval is StartRuntime's sampling period.
const runtimeInterval = 10 * time.Second

// StartRuntime registers Go runtime telemetry under cronets_runtime_*
// and samples it every runtimeInterval until the returned stop function
// is called:
//
//   - cronets_runtime_goroutines and cronets_runtime_gomaxprocs are
//     gauges read live at scrape time;
//   - cronets_runtime_heap_bytes and cronets_runtime_gc_total are
//     sampled from runtime.MemStats on each tick;
//   - cronets_runtime_gc_pause_seconds is a histogram fed each tick with
//     the GC pauses that completed since the previous one (from the
//     MemStats pause ring, so pauses are never double-counted).
//
// A nil registry returns a no-op stop function.
func StartRuntime(r *Registry) (stop func()) {
	if r == nil {
		return func() {}
	}
	r.GaugeFunc("cronets_runtime_goroutines",
		"Live goroutine count.", func() int64 { return int64(runtime.NumGoroutine()) })
	r.GaugeFunc("cronets_runtime_gomaxprocs",
		"GOMAXPROCS at scrape time.", func() int64 { return int64(runtime.GOMAXPROCS(0)) })
	heap := r.Gauge("cronets_runtime_heap_bytes",
		"Heap bytes in use (MemStats.HeapAlloc), sampled periodically.")
	gcs := r.Gauge("cronets_runtime_gc_total",
		"Completed GC cycles, sampled periodically.")
	pauses := r.Histogram("cronets_runtime_gc_pause_seconds",
		"Stop-the-world GC pause durations.", RuntimeBuckets)

	var lastGC uint32
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap.Set(int64(ms.HeapAlloc))
		gcs.Set(int64(ms.NumGC))
		// Observe each pause completed since the previous sample. The
		// pause ring holds the last 256; if more than 256 GCs ran
		// between samples the overwritten ones are lost, which a 10 s
		// cadence makes vanishingly unlikely.
		n := ms.NumGC - lastGC
		if n > uint32(len(ms.PauseNs)) {
			n = uint32(len(ms.PauseNs))
		}
		for i := uint32(0); i < n; i++ {
			pause := ms.PauseNs[(ms.NumGC-i+uint32(len(ms.PauseNs))-1)%uint32(len(ms.PauseNs))]
			pauses.Observe(float64(pause) / 1e9)
		}
		lastGC = ms.NumGC
	}
	sample()

	stopc := make(chan struct{})
	go func() {
		t := time.NewTicker(runtimeInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sample()
			case <-stopc:
				return
			}
		}
	}()
	var stopped bool
	return func() {
		if !stopped {
			stopped = true
			close(stopc)
		}
	}
}

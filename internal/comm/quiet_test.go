package comm

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
)

// quietMallocs returns the heap objects and bytes one call of run
// allocates, measured so that only the program's own allocations
// count: on one P, with the collector held off, after parking
// `goroutines` goroutines at once (which stocks the runtime's free
// lists with that many goroutine and sudog records) and a warm-up
// call, as the minimum of three measurements. The reasons are spelled
// out at runMallocs in internal/core/steady_alloc_test.go, its twin.
func quietMallocs(t *testing.T, goroutines int, run func()) (objects, bytes uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	idle := runtime.NumGoroutine()
	var parked sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		parked.Add(1)
		go func() {
			defer parked.Done()
			<-gate
		}()
	}
	close(gate)
	parked.Wait()
	run()
	objects = ^uint64(0)
	for i := 0; i < 3; i++ {
		for end := time.Now().Add(time.Second); runtime.NumGoroutine() > idle && time.Now().Before(end); {
			runtime.Gosched()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		if n := m1.Mallocs - m0.Mallocs; n < objects {
			objects, bytes = n, m1.TotalAlloc-m0.TotalAlloc
		}
	}
	return objects, bytes
}

package comm

import (
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// BenchmarkObservedMessage prices what an observed run adds to a
// message's accounting: each goroutine is a distinct rank that counts a
// send to its ring successor and a receive from its predecessor in its
// own tally, and publishes the tally into the one shared matrix and
// counters at the end of every step of msgsPerStep such pairs. ns/op is
// one send and one receive with their share of a publish.
func BenchmarkObservedMessage(b *testing.B) {
	const ranks, msgsPerStep = 64, 32
	pub := newPublisher(obs.NewObserver(ranks, 0), ranks)
	tallies := make([]tally, ranks)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := int(next.Add(1)-1) % ranks
		t := &tallies[r]
		for i := 1; pb.Next(); i++ {
			t.send(int(trace.Shift), r, (r+1)%ranks, 64)
			t.recv(int(trace.Shift), (r+ranks-1)%ranks, r, 64)
			if i%msgsPerStep == 0 {
				t.publish(pub, r, 0)
			}
		}
	})
}

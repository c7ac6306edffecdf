package comm

import (
	"fmt"
	"testing"
)

// BenchmarkAllreduceF64s is the step's one team collective on its own:
// every member of a team sums a 16-float force payload (an 8-particle
// block, ap-latency's) with AllreduceF64s — recursive doubling on the
// power-of-two team, the tree's reduce and broadcast of the total at
// c = 3. One iteration is one allreduce of the whole team; the caller's
// two buffers alternate, as the loan asks.
func BenchmarkAllreduceF64s(b *testing.B) {
	for _, c := range []int{4, 3} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			b.ReportAllocs()
			if _, err := Run(c, Options{}, func(cm *Comm) error {
				bufs := [2][]float64{make([]float64, 16), make([]float64, 16)}
				for i := 0; i < b.N; i++ {
					cm.AllreduceF64s(bufs[i%2])
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

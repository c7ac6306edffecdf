package comm

import "testing"

func benchmarkCollective(b *testing.B, p int, body func(c *Comm)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, Options{}, func(c *Comm) error {
			body(c)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBcast(b *testing.B) {
	payload := make([]byte, 4096)
	benchmarkCollective(b, 32, func(c *Comm) {
		var data []byte
		if c.Rank() == 0 {
			data = payload
		}
		c.Bcast(0, data)
	})
}

func BenchmarkReduce(b *testing.B) {
	vals := make([]float64, 512)
	benchmarkCollective(b, 32, func(c *Comm) {
		c.ReduceF64s(0, vals)
	})
}

func BenchmarkSendrecvRing(b *testing.B) {
	payload := make([]byte, 4096)
	for i := 0; i < b.N; i++ {
		if _, err := Run(64, Options{}, func(c *Comm) error {
			data := payload
			for s := 0; s < 8; s++ {
				data = c.Sendrecv((c.Rank()+1)%64, data, (c.Rank()+63)%64, s)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

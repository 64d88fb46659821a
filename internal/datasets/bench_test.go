package datasets

import "testing"

// BenchmarkGenerate builds each paper dataset at the size the benchmark
// (bench/) measures it: what every process of a data-parallel run pays
// before its first epoch. Run with -benchmem.
func BenchmarkGenerate(b *testing.B) {
	for _, g := range []struct {
		name string
		gen  func() *Dataset
	}{
		{"carcinogenesis", func() *Dataset { return CarcinogenesisSized(162, 136, 1) }},
		{"mesh", func() *Dataset { return MeshSized(710, 69, 1) }},
		{"pyrimidines", func() *Dataset { return PyrimidinesSized(84, 76, 1) }},
	} {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				g.gen()
			}
		})
	}
}

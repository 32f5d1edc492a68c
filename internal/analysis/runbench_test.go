package analysis

import "testing"

// loadRepo type-checks the whole module once for the Run benchmarks;
// the load itself (go list -export + type-check) is the fixed cost both
// execution modes share.
func loadRepo(b *testing.B) *Program {
	b.Helper()
	prog, err := Load(LoadConfig{Dir: "../..", Tests: true})
	if err != nil {
		b.Skipf("load: %v", err)
	}
	return prog
}

func BenchmarkRunParallel(b *testing.B) {
	prog := loadRepo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(prog, All())
	}
}

func BenchmarkRunSequential(b *testing.B) {
	prog := loadRepo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(prog, All(), 1)
	}
}

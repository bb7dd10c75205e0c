package store

import (
	"fmt"
	"testing"

	"socrel/internal/adl"
	"socrel/internal/core"
)

// benchSizes are the generated model sizes the store benchmarks run at: a
// 6-state acyclic and a 12-state cyclic "app" flow.
var benchSizes = []struct {
	states int
	cyclic bool
}{{6, false}, {12, true}}

func benchName(states int) string { return fmt.Sprintf("states=%d", states) }

var (
	benchCA  *core.CompiledAssembly
	benchRec Record
)

// BenchmarkArtifactCacheLoadHit times a warm "latest" Load on the Mem
// backend: the store lookup plus the cache probe.
func BenchmarkArtifactCacheLoadHit(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(benchName(sz.states), func(b *testing.B) {
			st := NewMem()
			if _, err := st.Publish("t", "m", mustParse(b, genDSL(sz.states, sz.cyclic, "1e-4")), PublishOptions{}); err != nil {
				b.Fatal(err)
			}
			cache := NewArtifactCache(4)
			ref := Ref{Tenant: "t", Model: "m"}
			if _, _, err := cache.Load(st, ref, "", core.Options{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ca, rec, err := cache.Load(st, ref, "", core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				benchCA, benchRec = ca, rec
			}
		})
	}
}

// BenchmarkArtifactCacheLoadMiss times a Load that misses: two models
// alternate through a one-entry cache, so every Load decodes, compiles and
// evicts.
func BenchmarkArtifactCacheLoadMiss(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(benchName(sz.states), func(b *testing.B) {
			st := NewMem()
			refs := make([]Ref, 2)
			for i := range refs {
				refs[i] = Ref{Tenant: "t", Model: fmt.Sprintf("m%d", i)}
				if _, err := st.Publish("t", refs[i].Model, mustParse(b, genDSL(sz.states, sz.cyclic, "1e-4")), PublishOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			cache := NewArtifactCache(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ca, rec, err := cache.Load(st, refs[i%2], "", core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				benchCA, benchRec = ca, rec
			}
		})
	}
}

// BenchmarkPublish times Mem.Publish of a new version: canonicalization,
// hashing and the append. Two documents alternate so no publish dedups;
// the store is replaced, untimed, every 1024 publishes so its growth does
// not weigh on the loop.
func BenchmarkPublish(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(benchName(sz.states), func(b *testing.B) {
			docs := []*adl.Document{
				mustParse(b, genDSL(sz.states, sz.cyclic, "1e-4")),
				mustParse(b, genDSL(sz.states, sz.cyclic, "2e-4")),
			}
			st := NewMem()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 1023 {
					b.StopTimer()
					st = NewMem()
					b.StartTimer()
				}
				rec, err := st.Publish("t", "m", docs[i%2], PublishOptions{})
				if err != nil {
					b.Fatal(err)
				}
				benchRec = rec
			}
		})
	}
}

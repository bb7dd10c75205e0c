package main

import (
	"bytes"
	"testing"

	"socrel/internal/adl"
	"socrel/internal/core"
)

func streamsEqual(a, b []op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].method != b[i].method || a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
			return false
		}
	}
	return true
}

// One seed reproduces an identical request stream; another seed changes
// it. This covers every input the programs receive: parameters, scopes,
// Zipf draws, generated documents and the write schedule.
func TestSeedReproducesStream(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(seed uint64) []op
	}{
		{"predict-paper", func(s uint64) []op { return paperStream("predict-paper", s, 2000, false) }},
		{"fleet-scoped", func(s uint64) []op { return paperStream("fleet-scoped", s, 2000, true) }},
		{"tenant-mix", func(s uint64) []op { return tenantStream(s, genModels(s), 2000) }},
		{"whatif-sweep", func(s uint64) []op {
			g := newGrid(512)
			sweepGrid(newRand("whatif-sweep", s, "grids"), g)
			return []op{{body: []byte(batchBody(g))}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !streamsEqual(tc.gen(7), tc.gen(7)) {
				t.Fatal("seed 7 produced two different streams")
			}
			if streamsEqual(tc.gen(7), tc.gen(8)) {
				t.Fatal("seeds 7 and 8 produced the same stream")
			}
		})
	}
}

func TestTenantStreamShape(t *testing.T) {
	models := genModels(3)
	ops := tenantStream(3, models, 20000)
	writes, cyclicReads := 0, 0
	seen := map[int]bool{}
	for _, o := range ops {
		seen[o.model] = true
		if o.write {
			writes++
		} else if models[o.model].Cyclic {
			cyclicReads++
		}
	}
	if share := float64(writes) / float64(len(ops)); share < 0.04 || share > 0.06 {
		t.Errorf("write share %.3f, want about %.2f", share, tenantWriteP)
	}
	if len(seen) <= 64 {
		t.Errorf("stream touches %d models, want more than the artifact cache's 64", len(seen))
	}
	if cyclicReads == 0 {
		t.Error("no reads of cyclic models")
	}
}

// Every generated model parses, builds, compiles numerically, and agrees
// with the interpreted oracle; cyclic ones exceed the closed form's state
// bound and so fall back when compiled parametrically.
func TestGeneratedModelsCompile(t *testing.T) {
	models := genModels(5)
	o := newTenantOracle(models)
	for i := range models {
		m := &models[i]
		for _, ver := range []int{0, 3} {
			doc, err := adl.ParseDSL(m.doc(ver))
			if err != nil {
				t.Fatalf("%s v%d: %v", m.ref(), ver, err)
			}
			ca, err := core.CompileDocument(doc, "main", core.Options{})
			if err != nil {
				t.Fatalf("%s v%d: %v", m.ref(), ver, err)
			}
			for k := range m.Pool {
				want, err := o.pfail(i, ver, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ca.Pfail(tenantService, m.Pool[k]...)
				if err != nil || !agrees(got, want) {
					t.Fatalf("%s v%d point %d: compiled %v (%v), interpreted %v", m.ref(), ver, k, got, err, want)
				}
				if want <= 0 || want >= 0.9 {
					t.Errorf("%s point %d: Pfail %v outside (0, 0.9)", m.ref(), k, want)
				}
			}
		}
		asm, err := mustDoc(t, m.doc(0)).BuildAssembly("main")
		if err != nil {
			t.Fatal(err)
		}
		pca, err := core.CompileParametric(asm, core.Options{}, core.ParametricOptions{}, tenantService)
		if err != nil {
			t.Fatal(err)
		}
		if fell := pca.ParametricStats().Fallbacks > 0; fell != m.Cyclic {
			t.Errorf("%s cyclic=%v but parametric fallback=%v", m.ref(), m.Cyclic, fell)
		}
	}
}

func mustDoc(t *testing.T, src string) *adl.Document {
	t.Helper()
	doc, err := adl.ParseDSL(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

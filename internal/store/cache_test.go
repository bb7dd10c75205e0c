package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"socrel/internal/adl"
	"socrel/internal/assembly"
	"socrel/internal/core"
)

// genDSL writes a document with one assembly "main" whose "app" composite
// over formals (x, y) has the given number of states: a forward chain with
// skip edges or, when cyclic, one strongly connected component closed by
// back edges. Its numbers are fixed, so the document is deterministic.
func genDSL(states int, cyclic bool, phi string) string {
	var b strings.Builder
	b.WriteString("service cpu0 cpu {\n    speed 1e6\n    rate 1.5e-3\n}\n")
	b.WriteString("service leaf composite(n) {\n    attr phi 2e-4\n")
	b.WriteString("    state work and nosharing {\n        call cpu(n * 10) internal 1 - (1 - phi)^n\n    }\n")
	b.WriteString("    transition Start -> work prob 1\n    transition work -> End prob 1\n}\n")
	fmt.Fprintf(&b, "service app composite(x, y) {\n    attr phi %s\n", phi)
	for s := 0; s < states; s++ {
		comp := []string{"and", "or", "kofn 2"}[s%3]
		dep := "nosharing"
		if s%4 == 3 {
			dep = "sharing"
		}
		fmt.Fprintf(&b, "    state s%d %s %s {\n", s, comp, dep)
		fmt.Fprintf(&b, "        call cpu(x * %d) internal 1 - (1 - phi)^x\n", 1+s%7)
		if dep == "nosharing" { // a sharing state calls one role only
			fmt.Fprintf(&b, "        call sub(y + %d)\n", s%5)
		}
		if comp != "and" || dep == "sharing" {
			fmt.Fprintf(&b, "        call cpu(y * %d) internal 1 - (1 - phi)^y\n", 1+s%3)
		}
		b.WriteString("    }\n")
	}
	b.WriteString("    transition Start -> s0 prob 1\n")
	last := states - 1
	for s := 0; s < last; s++ {
		switch {
		case cyclic && s > 0:
			fmt.Fprintf(&b, "    transition s%d -> s%d prob 0.875\n    transition s%d -> s%d prob 0.125\n", s, s+1, s, s-1)
		case !cyclic && s+2 <= last && s%2 == 0:
			fmt.Fprintf(&b, "    transition s%d -> s%d prob 0.75\n    transition s%d -> s%d prob 0.25\n", s, s+1, s, s+2)
		default:
			fmt.Fprintf(&b, "    transition s%d -> s%d prob 1\n", s, s+1)
		}
	}
	if cyclic {
		fmt.Fprintf(&b, "    transition s%d -> End prob 0.9\n    transition s%d -> s%d prob 0.1\n", last, last, last-1)
	} else {
		fmt.Fprintf(&b, "    transition s%d -> End prob 1\n", last)
	}
	b.WriteString("}\n")
	b.WriteString("assembly main {\n    bind app.cpu -> cpu0\n    bind app.sub -> leaf\n    bind leaf.cpu -> cpu0\n}\n")
	return b.String()
}

func mustParse(t testing.TB, src string) *adl.Document {
	t.Helper()
	doc, err := adl.ParseDSL(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// hitAllocCeiling pins the allocations of a warm ArtifactCache.Load on the
// Mem backend: the store lookup and the map probe allocate nothing, and a
// decode would cost hundreds.
const hitAllocCeiling = 0

// TestArtifactCacheHitDoesNotDecode is the allocation gate on the hit path:
// a warm Load allocates at most hitAllocCeiling times, and the same number
// for a 6-state and a 12-state model, so a hit's cost does not depend on
// the size of the stored document.
func TestArtifactCacheHitDoesNotDecode(t *testing.T) {
	allocs := make(map[int]float64)
	for _, states := range []int{6, 12} {
		st := NewMem()
		// Names longer than a small string buffer, so a key joined per
		// lookup would show as an allocation.
		ref := Ref{Tenant: "tenant-with-a-long-name", Model: "model-with-a-long-name"}
		if _, err := st.Publish(ref.Tenant, ref.Model, mustParse(t, genDSL(states, states > 8, "1e-4")), PublishOptions{}); err != nil {
			t.Fatal(err)
		}
		cache := NewArtifactCache(4)
		if _, _, err := cache.Load(st, ref, "", core.Options{}); err != nil {
			t.Fatal(err)
		}
		allocs[states] = testing.AllocsPerRun(100, func() {
			if _, _, err := cache.Load(st, ref, "", core.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if s := cache.Stats(); s.Misses != 1 || s.Hits < 100 {
			t.Errorf("%d states: stats = %+v, want 1 miss and every measured load a hit", states, s)
		}
	}
	t.Logf("warm Load allocs/op: %v (6 states), %v (12 states)", allocs[6], allocs[12])
	if allocs[6] > hitAllocCeiling || allocs[12] > hitAllocCeiling {
		t.Errorf("warm Load allocates %v (6 states) and %v (12 states) times, ceiling %d", allocs[6], allocs[12], hitAllocCeiling)
	}
	if allocs[6] != allocs[12] {
		t.Errorf("hit allocations depend on model size: %v (6 states) vs %v (12 states)", allocs[6], allocs[12])
	}
}

// TestArtifactCacheAmbiguousNeverCached: an empty assembly name on a
// document with several assemblies fails on every call, each call counts a
// miss, and nothing is cached.
func TestArtifactCacheAmbiguousNeverCached(t *testing.T) {
	st := NewMem()
	two := testDSL + "assembly alt {\n    bind work.cpu -> cpu1\n}\n"
	if _, err := st.Publish("t", "m", mustParse(t, two), PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	cache := NewArtifactCache(4)
	for i := 1; i <= 3; i++ {
		if _, _, err := cache.Load(st, Ref{Tenant: "t", Model: "m"}, "", core.Options{}); err == nil {
			t.Fatalf("call %d: ambiguous assembly name loaded", i)
		}
		if s := cache.Stats(); s.Misses != uint64(i) || s.Hits != 0 || s.Entries != 0 {
			t.Fatalf("call %d: stats = %+v, want %d misses and nothing cached", i, s, i)
		}
	}
	// Naming one of them works and is cached.
	for i := 0; i < 2; i++ {
		if _, _, err := cache.Load(st, Ref{Tenant: "t", Model: "m"}, "alt", core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats after named loads = %+v, want 1 hit and 1 entry", s)
	}
}

// TestArtifactCacheCorruptNeverCached: a record whose source does not
// decode fails with ErrCorrupt on every load and is never cached.
func TestArtifactCacheCorruptNeverCached(t *testing.T) {
	st := NewMem()
	st.models[memKey{"t", "m"}] = []Record{{Ref: Ref{Tenant: "t", Model: "m", Version: 1}, Source: []byte(`{"services": [`)}}
	cache := NewArtifactCache(4)
	for i := 0; i < 2; i++ {
		if _, _, err := cache.Load(st, Ref{Tenant: "t", Model: "m"}, "", core.Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("load %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	if s := cache.Stats(); s.Misses != 2 || s.Entries != 0 {
		t.Errorf("stats = %+v, want 2 misses and nothing cached", s)
	}
}

// TestArtifactCacheEmptyAndExplicitName: "" and the sole assembly's
// explicit name are two keys for one version; each serves an artifact that
// predicts the same as an uncached compile.
func TestArtifactCacheEmptyAndExplicitName(t *testing.T) {
	st := NewMem()
	if _, err := st.Publish("t", "m", testDoc(t, "1e-6"), PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	ref := Ref{Tenant: "t", Model: "m"}
	direct, _, err := Compile(st, ref, "main", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Pfail("work", 4096)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewArtifactCache(4)
	for round := 0; round < 2; round++ {
		for _, name := range []string{"", "main"} {
			ca, rec, err := cache.Load(st, ref, name, core.Options{})
			if err != nil {
				t.Fatalf("name %q: %v", name, err)
			}
			if rec.Version != 1 {
				t.Errorf("name %q: served v%d, want v1", name, rec.Version)
			}
			if got, err := ca.Pfail("work", 4096); err != nil || got != want {
				t.Errorf("name %q: Pfail = %g (%v), want %g", name, got, err, want)
			}
		}
	}
	if s := cache.Stats(); s.Misses != 2 || s.Hits != 2 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 2 misses, 2 hits, 2 entries", s)
	}
}

// hashCorpus returns the documents the canonical-hash test covers: the
// paper's ADL example and both paper assemblies built in code, the
// FuzzParseDSL seeds that parse, and generated 6-state acyclic and
// 12-state cyclic models.
func hashCorpus(t *testing.T) map[string]*adl.Document {
	t.Helper()
	docs := make(map[string]*adl.Document)
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "paper.adl"))
	if err != nil {
		t.Fatal(err)
	}
	docs["examples/paper.adl"] = mustParse(t, string(src))
	p := assembly.DefaultPaperParams()
	for name, build := range map[string]func(assembly.PaperParams) (*assembly.Assembly, error){
		"paper local":  assembly.LocalAssembly,
		"paper remote": assembly.RemoteAssembly,
	} {
		asm, err := build(p)
		if err != nil {
			t.Fatal(err)
		}
		if docs[name], err = adl.FromAssembly(asm); err != nil {
			t.Fatal(err)
		}
	}
	// The seeds of adl's FuzzParseDSL that parse.
	for i, seed := range []string{
		"service c cpu {\n speed 1e9\n rate 1e-10\n}",
		"service s composite(n) {\n state w and nosharing {\n  call c(n)\n }\n transition Start -> w prob 1\n transition w -> End prob 1\n}",
		"assembly a {\n bind s.c -> c\n}",
		"service x constant {\n pfail 0.5\n}",
		"# only a comment",
		"",
	} {
		if doc, err := adl.ParseDSL(seed); err == nil {
			docs[fmt.Sprintf("fuzz seed %d", i)] = doc
		}
	}
	docs["testDSL"] = mustParse(t, testDSL)
	docs["generated 6-state acyclic"] = mustParse(t, genDSL(6, false, "1.5e-4"))
	docs["generated 12-state cyclic"] = mustParse(t, genDSL(12, true, "3.25e-4"))
	return docs
}

// TestCanonicalHashMatchesAdlHash: the one-pass publish hash equals
// adl.Hash of the document and adl.Hash of its normalized form (the value
// stores wrote when publish normalized twice), so existing on-disk stores
// keep verifying; and a disk store written with it reopens with every
// version intact.
func TestCanonicalHashMatchesAdlHash(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	docs := hashCorpus(t)
	if len(docs) < 10 {
		t.Fatalf("corpus has %d documents, want at least 10", len(docs))
	}
	t.Logf("%d documents", len(docs))
	published := make(map[string]Record)
	i := 0
	for name, doc := range docs {
		source, hash, err := canonicalize(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := adl.Hash(doc)
		if err != nil {
			t.Fatal(err)
		}
		norm, err := adl.Normalize(doc)
		if err != nil {
			t.Fatal(err)
		}
		twice, err := adl.Hash(norm)
		if err != nil {
			t.Fatal(err)
		}
		if hash != want || hash != twice {
			t.Errorf("%s: canonical hash %s, adl.Hash %s, adl.Hash(Normalize) %s", name, hash, want, twice)
		}
		back, err := adl.UnmarshalJSON(source)
		if err != nil {
			t.Fatalf("%s: canonical source does not parse: %v", name, err)
		}
		if again, err := adl.Hash(back); err != nil || again != hash {
			t.Errorf("%s: hash of the reparsed source = %s (%v), want %s", name, again, err, hash)
		}
		i++
		model := fmt.Sprintf("m%d", i)
		if published[model], err = st.Publish("t", model, doc, PublishOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for model, rec := range published {
		got, err := st2.Get(rec.Ref)
		if err != nil {
			t.Errorf("%s: reopen: %v", model, err)
			continue
		}
		if got.Hash != rec.Hash || string(got.Source) != string(rec.Source) {
			t.Errorf("%s: record changed across reopen", model)
		}
	}
	corrupt, err := filepath.Glob(filepath.Join(dir, "*", "*", "*.corrupt"))
	if err != nil || len(corrupt) != 0 {
		t.Errorf("reopen quarantined %v (%v)", corrupt, err)
	}
}

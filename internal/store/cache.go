package store

import (
	"container/list"
	"fmt"
	"sync"

	"socrel/internal/core"
)

// compile decodes rec and compiles the named assembly: an empty name
// selects the document's sole assembly and fails if the document defines
// several.
func compile(rec Record, assemblyName string, opts core.Options) (*core.CompiledAssembly, error) {
	doc, err := rec.Document()
	if err != nil {
		return nil, err
	}
	name, err := doc.PickAssembly(assemblyName)
	if err != nil {
		return nil, fmt.Errorf("store: %s %w", rec.Ref, err)
	}
	ca, err := core.CompileDocument(doc, name, opts)
	if err != nil {
		return nil, fmt.Errorf("store: compile %s (%s): %w", rec.Ref, name, err)
	}
	return ca, nil
}

// ArtifactCache is an LRU of compiled assemblies keyed by concrete
// (tenant, model, version, requested assembly name). It is the hot-reload
// path between the store and the engine: a load resolves the Ref to a
// record and looks the key up first; only a miss decodes the record,
// builds the named assembly, compiles it, and memoizes the immutable
// artifact.
//
// Invalidation rules (DESIGN.md §12):
//
//   - Records are append-only and artifacts immutable, so a cached entry
//     is valid forever — eviction is purely capacity-driven (LRU).
//   - The key holds the assembly name as requested, so "" and the sole
//     assembly's explicit name are two entries for one version; both are
//     immutable, so neither can go stale. A request that fails (an
//     ambiguous "", a corrupt record) is never cached.
//   - A Ref with Version 0 ("latest") is resolved to a concrete version
//     on every load, so a publish is picked up on the next latest-load
//     while pinned versions keep serving their old artifact untouched.
//   - Delete does not reach into the cache; callers that delete a model
//     call Invalidate to drop its artifacts.
type ArtifactCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	entries  map[artifactKey]*list.Element

	hits, misses, evictions uint64
}

type artifactKey struct {
	tenant, model string
	version       int
	assembly      string
}

type artifactEntry struct {
	key artifactKey
	ca  *core.CompiledAssembly
}

// CacheStats is a snapshot of the cache counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// NewArtifactCache returns a cache holding at most capacity compiled
// artifacts (minimum 1).
func NewArtifactCache(capacity int) *ArtifactCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ArtifactCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[artifactKey]*list.Element),
	}
}

// Load resolves ref through st and returns the compiled artifact for the
// named assembly of that version, compiling (and caching) on miss. An
// empty assemblyName selects the document's sole assembly and fails if the
// document defines several. The returned Record identifies the concrete
// version served. A hit costs the store lookup and the map probe: the
// record is decoded only on a miss.
func (c *ArtifactCache) Load(st Store, ref Ref, assemblyName string, opts core.Options) (*core.CompiledAssembly, Record, error) {
	rec, err := st.Get(ref)
	if err != nil {
		return nil, Record{}, err
	}
	key := artifactKey{tenant: rec.Tenant, model: rec.Model, version: rec.Version, assembly: assemblyName}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		ca := el.Value.(*artifactEntry).ca
		c.mu.Unlock()
		return ca, rec, nil
	}
	c.misses++
	c.mu.Unlock()

	// Decode and compile outside the lock: both are slow and artifacts are
	// immutable, so a duplicate concurrent compile is wasted work, not a
	// correctness problem.
	ca, err := compile(rec, assemblyName, opts)
	if err != nil {
		return nil, Record{}, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok { // lost the compile race; keep first
		c.ll.MoveToFront(el)
		return el.Value.(*artifactEntry).ca, rec, nil
	}
	c.entries[key] = c.ll.PushFront(&artifactEntry{key: key, ca: ca})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*artifactEntry).key)
		c.evictions++
	}
	return ca, rec, nil
}

// Invalidate drops every cached artifact of (tenant, model) — used after
// Delete. It never drops other models' artifacts.
func (c *ArtifactCache) Invalidate(tenant, model string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if key.tenant == tenant && key.model == model {
			c.ll.Remove(el)
			delete(c.entries, key)
		}
	}
}

// Stats returns a snapshot of the counters.
func (c *ArtifactCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.ll.Len()}
}

// Compile is the uncached compile-from-stored-form path: it loads ref and
// compiles its sole (or named) assembly.
func Compile(st Store, ref Ref, assemblyName string, opts core.Options) (*core.CompiledAssembly, Record, error) {
	rec, err := st.Get(ref)
	if err != nil {
		return nil, Record{}, err
	}
	ca, err := compile(rec, assemblyName, opts)
	if err != nil {
		return nil, Record{}, err
	}
	return ca, rec, nil
}

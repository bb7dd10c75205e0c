package store

import (
	"container/list"
	"fmt"
	"sync"

	"socrel/internal/adl"
	"socrel/internal/core"
)

// resolve loads ref and picks the assembly: an empty name selects the
// document's sole assembly and fails if the document defines several.
func resolve(st Store, ref Ref, assemblyName string) (Record, *adl.Document, string, error) {
	rec, err := st.Get(ref)
	if err != nil {
		return Record{}, nil, "", err
	}
	doc, err := rec.Document()
	if err != nil {
		return Record{}, nil, "", err
	}
	if assemblyName, err = doc.PickAssembly(assemblyName); err != nil {
		return Record{}, nil, "", fmt.Errorf("store: %s %w", rec.Ref, err)
	}
	return rec, doc, assemblyName, nil
}

// ArtifactCache is an LRU of compiled assemblies keyed by concrete
// (tenant, model, version, assembly). It is the hot-reload path between
// the store and the engine: resolving a Ref loads the record, builds the
// named assembly, compiles it, and memoizes the immutable artifact.
//
// Invalidation rules (DESIGN.md §12):
//
//   - Records are append-only and artifacts immutable, so a cached entry
//     is valid forever — eviction is purely capacity-driven (LRU).
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
	rec Record
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
// version served.
func (c *ArtifactCache) Load(st Store, ref Ref, assemblyName string, opts core.Options) (*core.CompiledAssembly, Record, error) {
	rec, doc, assemblyName, err := resolve(st, ref, assemblyName)
	if err != nil {
		return nil, Record{}, err
	}
	key := artifactKey{tenant: rec.Tenant, model: rec.Model, version: rec.Version, assembly: assemblyName}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		ent := el.Value.(*artifactEntry)
		c.mu.Unlock()
		return ent.ca, ent.rec, nil
	}
	c.misses++
	c.mu.Unlock()

	// Compile outside the lock: compilation is slow and artifacts are
	// immutable, so a duplicate concurrent compile is wasted work, not a
	// correctness problem.
	ca, err := core.CompileDocument(doc, assemblyName, opts)
	if err != nil {
		return nil, Record{}, fmt.Errorf("store: compile %s (%s): %w", rec.Ref, assemblyName, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok { // lost the compile race; keep first
		c.ll.MoveToFront(el)
		ent := el.Value.(*artifactEntry)
		return ent.ca, ent.rec, nil
	}
	c.entries[key] = c.ll.PushFront(&artifactEntry{key: key, ca: ca, rec: rec})
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
	rec, doc, assemblyName, err := resolve(st, ref, assemblyName)
	if err != nil {
		return nil, Record{}, err
	}
	ca, err := core.CompileDocument(doc, assemblyName, opts)
	if err != nil {
		return nil, Record{}, fmt.Errorf("store: compile %s (%s): %w", rec.Ref, assemblyName, err)
	}
	return ca, rec, nil
}

package store

import (
	"fmt"
	"sort"
	"sync"

	"socrel/internal/adl"
)

// Mem is the in-memory Store backend: full semantics (versioning, CAS,
// dedup), no durability. The zero value is not usable; call NewMem.
type Mem struct {
	mu     sync.RWMutex
	models map[memKey][]Record // versions ascending
}

// memKey names one model. A struct key, unlike a joined string, costs no
// allocation per lookup whatever the names' length.
type memKey struct{ tenant, model string }

var _ Store = (*Mem)(nil)

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{models: make(map[memKey][]Record)}
}

// Publish implements Store.
func (m *Mem) Publish(tenant, model string, doc *adl.Document, opts PublishOptions) (Record, error) {
	if err := validNames(tenant, model); err != nil {
		return Record{}, err
	}
	source, hash, err := canonicalize(doc)
	if err != nil {
		return Record{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	key := memKey{tenant, model}
	versions := m.models[key]
	latest := 0
	if n := len(versions); n > 0 {
		latest = versions[n-1].Version
	}
	if err := checkCAS(tenant, model, latest, opts.ExpectedLatest); err != nil {
		return Record{}, err
	}
	if latest > 0 && versions[len(versions)-1].Hash == hash {
		return versions[len(versions)-1], nil // content dedup
	}
	rec := Record{
		Ref:       Ref{Tenant: tenant, Model: model, Version: latest + 1},
		Hash:      hash,
		CreatedAt: stamp(opts),
		Comment:   opts.Comment,
		Source:    source,
	}
	m.models[key] = append(versions, rec)
	return rec, nil
}

// Get implements Store.
func (m *Mem) Get(ref Ref) (Record, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	versions := m.models[memKey{ref.Tenant, ref.Model}]
	if len(versions) == 0 {
		return Record{}, fmt.Errorf("%w: %s", ErrNotFound, ref)
	}
	if ref.Version == 0 {
		return versions[len(versions)-1], nil
	}
	for _, rec := range versions {
		if rec.Version == ref.Version {
			return rec, nil
		}
	}
	return Record{}, fmt.Errorf("%w: %s", ErrNotFound, ref)
}

// Versions implements Store.
func (m *Mem) Versions(tenant, model string) ([]Record, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	versions := m.models[memKey{tenant, model}]
	if len(versions) == 0 {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, tenant, model)
	}
	return append([]Record(nil), versions...), nil
}

// Models implements Store.
func (m *Mem) Models(tenant string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for key := range m.models {
		if key.tenant == tenant {
			out = append(out, key.model)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Tenants implements Store.
func (m *Mem) Tenants() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	seen := make(map[string]bool)
	for key := range m.models {
		seen[key.tenant] = true
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out, nil
}

// Delete implements Store.
func (m *Mem) Delete(tenant, model string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := memKey{tenant, model}
	if len(m.models[key]) == 0 {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, tenant, model)
	}
	delete(m.models, key)
	return nil
}

// Close implements Store (no-op).
func (m *Mem) Close() error { return nil }

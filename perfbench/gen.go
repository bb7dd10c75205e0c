package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
)

// Every input the benchmark sends is a pure function of (workload, seed):
// parameters, scopes, Zipf draws, generated ADL documents and the write
// schedule. The programs under test only ever see these generated inputs.

// newRand returns the generator of one named input stream.
func newRand(workload string, seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload + "/" + stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// paperPoint draws one (elem, list, res) point of the paper's search
// service. list is log-uniform over Figure 6's range, 2^4 to 2^20, and
// continuous, so points never repeat.
func paperPoint(r *rand.Rand) []float64 {
	return []float64{1, math.Exp2(4 + 16*r.Float64()), 1}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// op is one generated HTTP operation.
type op struct {
	write  bool
	model  int // tenant-mix model index, -1 otherwise
	pool   int // tenant-mix parameter-pool index
	ver    int // tenant-mix: content version this write publishes
	params []float64
	scope  string
	method string
	path   string
	body   []byte
}

const (
	fleetScopes   = 300  // distinct fleet-scoped scopes
	zipfS         = 1.1  // Zipf exponent for scopes and model popularity
	tenantModels  = 96   // more than the default ArtifactCache capacity (64)
	tenantPool    = 6    // parameter points per model
	tenantWriteP  = 0.05 // share of tenant-mix operations that publish
	tenantZipfV   = 8    // Zipf offset of model popularity: P(rank k) ∝ (8+k)^-1.1
	tenantService = "app"
)

func predictBody(params []float64, scope string) []byte {
	var b strings.Builder
	b.WriteString(`{"service":"search","priority":"interactive","params":[`)
	for i, p := range params {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(fmtFloat(p))
	}
	b.WriteByte(']')
	if scope != "" {
		b.WriteString(`,"scope":"` + scope + `"`)
	}
	b.WriteByte('}')
	return []byte(b.String())
}

// paperStream generates n single-point /predict operations, with Zipf
// scopes when scoped is set.
func paperStream(workload string, seed uint64, n int, scoped bool) []op {
	r := newRand(workload, seed, "ops")
	z := rand.NewZipf(newRand(workload, seed, "scopes"), zipfS, 1, fleetScopes-1)
	ops := make([]op, n)
	for i := range ops {
		o := op{model: -1, params: paperPoint(r), method: "POST", path: "/predict"}
		if scoped {
			o.scope = fmt.Sprintf("scope-%03d", z.Uint64())
		}
		o.body = predictBody(o.params, o.scope)
		ops[i] = o
	}
	return ops
}

// modelSpec is one generated tenant model: an ADL template whose "app"
// flow is either acyclic or one cyclic SCC larger than
// core.DefaultStateBound, and a small pool of parameter points.
type modelSpec struct {
	Tenant, Name string
	Cyclic       bool
	States       int
	template     string // ADL with @PHI@ standing for app's phi
	phi          float64
	Pool         [][]float64
}

func (m *modelSpec) ref() string { return m.Tenant + "/" + m.Name }

// doc renders content version v: each version scales app's phi, so every
// publish is a distinct document (the store dedups identical content).
func (m *modelSpec) doc(v int) string {
	return strings.Replace(m.template, "@PHI@", fmtFloat(m.phi*(1+0.05*float64(v))), 1)
}

// genModels generates the tenant-mix model set.
func genModels(seed uint64) []modelSpec {
	r := newRand("tenant-mix", seed, "models")
	ms := make([]modelSpec, tenantModels)
	for i := range ms {
		m := &ms[i]
		m.Tenant = fmt.Sprintf("t%d", i%4)
		m.Name = fmt.Sprintf("m%02d", i)
		// The flow shapes are fixed and only their numbers are drawn, so
		// every seed asks the engine for the same kind of work.
		m.Cyclic = i%2 == 1
		m.States = 6
		if m.Cyclic {
			m.States = 12 // one SCC above the closed form's state bound of 8
		}
		m.phi = 1e-4 * (1 + 4*r.Float64())
		m.template = genTemplate(r, m.Cyclic, m.States)
		for j := 0; j < tenantPool; j++ {
			m.Pool = append(m.Pool, []float64{float64(1 + r.IntN(40)), float64(1 + r.IntN(200))})
		}
	}
	return ms
}

// genTemplate writes an ADL document: a CPU, a leaf composite and the
// generated app composite over formals (x, y), in one assembly "main".
// The flow's shape depends on cyclic and states only; r draws its rates,
// multipliers and branch probabilities.
func genTemplate(r *rand.Rand, cyclic bool, states int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "service cpu0 cpu {\n    speed 1e6\n    rate %s\n}\n", fmtFloat(1e-3*(1+r.Float64())))
	fmt.Fprintf(&b, "service leaf composite(n) {\n    attr phi %s\n", fmtFloat(1e-4*(1+r.Float64())))
	b.WriteString("    state work and nosharing {\n        call cpu(n * 10) internal 1 - (1 - phi)^n\n    }\n")
	b.WriteString("    transition Start -> work prob 1\n    transition work -> End prob 1\n}\n")
	b.WriteString("service app composite(x, y) {\n    attr phi @PHI@\n")
	for s := 0; s < states; s++ {
		comp := []string{"and", "or", "kofn 2"}[s%3]
		dep := "nosharing"
		if s%4 == 3 {
			dep = "sharing"
		}
		fmt.Fprintf(&b, "    state s%d %s %s {\n", s, comp, dep)
		fmt.Fprintf(&b, "        call cpu(x * %d) internal 1 - (1 - phi)^x\n", 1+r.IntN(20))
		// A sharing state's requests must all go to one role.
		if dep == "nosharing" {
			fmt.Fprintf(&b, "        call sub(y + %d)\n", r.IntN(10))
		}
		if comp != "and" || dep == "sharing" {
			fmt.Fprintf(&b, "        call cpu(y * %d) internal 1 - (1 - phi)^y\n", 1+r.IntN(5))
		}
		b.WriteString("    }\n")
	}
	b.WriteString("    transition Start -> s0 prob 1\n")
	last := states - 1
	for s := 0; s < last; s++ {
		switch {
		case cyclic && s > 0:
			// Back edges s -> s-1 make s0..s_last one strongly connected
			// component; no self-loops, so the closed form is not ruled
			// out by a non-constant self-loop, only by the state bound.
			back := 0.05 + 0.2*r.Float64()
			fmt.Fprintf(&b, "    transition s%d -> s%d prob %s\n", s, s+1, fmtFloat(1-back))
			fmt.Fprintf(&b, "    transition s%d -> s%d prob %s\n", s, s-1, fmtFloat(back))
		case !cyclic && s+2 <= last && s%2 == 0:
			skip := 0.1 + 0.4*r.Float64()
			fmt.Fprintf(&b, "    transition s%d -> s%d prob %s\n", s, s+1, fmtFloat(1-skip))
			fmt.Fprintf(&b, "    transition s%d -> s%d prob %s\n", s, s+2, fmtFloat(skip))
		default:
			fmt.Fprintf(&b, "    transition s%d -> s%d prob 1\n", s, s+1)
		}
	}
	if cyclic {
		back := 0.05 + 0.2*r.Float64()
		fmt.Fprintf(&b, "    transition s%d -> End prob %s\n", last, fmtFloat(1-back))
		fmt.Fprintf(&b, "    transition s%d -> s%d prob %s\n", last, last-1, fmtFloat(back))
	} else {
		fmt.Fprintf(&b, "    transition s%d -> End prob 1\n", last)
	}
	b.WriteString("}\n")
	b.WriteString("assembly main {\n    bind app.cpu -> cpu0\n    bind app.sub -> leaf\n    bind leaf.cpu -> cpu0\n}\n")
	return b.String()
}

// tenantStream generates n tenant-mix operations over models: Zipf reads
// of unpinned /predict?model= and, with probability tenantWriteP, a PUT
// publishing the next content version of a Zipf-drawn model.
func tenantStream(seed uint64, models []modelSpec, n int) []op {
	r := newRand("tenant-mix", seed, "ops")
	// v = tenantZipfV flattens the head, so a run's cost does not hinge on
	// which one or two models the seed happens to make hottest.
	z := rand.NewZipf(newRand("tenant-mix", seed, "popularity"), zipfS, tenantZipfV, uint64(len(models)-1))
	// Popularity ranks map to models through a seeded permutation, so the
	// hot models are a mix of acyclic and cyclic flows.
	perm := r.Perm(len(models))
	next := make([]int, len(models)) // last content version per model
	ops := make([]op, n)
	for i := range ops {
		m := perm[z.Uint64()]
		ms := &models[m]
		if r.Float64() < tenantWriteP {
			next[m]++
			ops[i] = op{write: true, model: m, ver: next[m], method: "PUT",
				path: "/models/" + ms.ref(), body: []byte(ms.doc(next[m]))}
			continue
		}
		k := r.IntN(tenantPool)
		params := ms.Pool[k]
		ops[i] = op{model: m, pool: k, params: params, method: "POST",
			path: "/predict?model=" + ms.ref(), body: predictBodyService(tenantService, params)}
	}
	return ops
}

func predictBodyService(service string, params []float64) []byte {
	parts := make([]string, len(params))
	for i, p := range params {
		parts[i] = fmtFloat(p)
	}
	return []byte(`{"service":"` + service + `","priority":"interactive","params":[` + strings.Join(parts, ",") + `]}`)
}

// sweepGrid fills grid (len(grid) points, each a 3-slot row of backing)
// with fresh paper points.
func sweepGrid(r *rand.Rand, grid [][]float64) {
	for i := range grid {
		p := grid[i]
		p[0] = float64(1 + r.IntN(8))
		p[1] = math.Exp2(4 + 16*r.Float64())
		p[2] = float64(1 + r.IntN(8))
	}
}

func newGrid(n int) [][]float64 {
	back := make([]float64, 3*n)
	g := make([][]float64, n)
	for i := range g {
		g[i] = back[3*i : 3*i+3 : 3*i+3]
	}
	return g
}

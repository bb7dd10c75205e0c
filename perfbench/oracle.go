package main

import (
	"fmt"
	"math"

	"socrel/internal/adl"
	"socrel/internal/assembly"
	"socrel/internal/core"
)

// relTol is the relative tolerance between an answer and its oracle.
// The engines agree with each other to ~1e-12; the hand-written closed
// form of eqs. (15)-(22) computes in a different order.
const relTol = 1e-9

func agrees(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return false
	}
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(got), math.Abs(want))+1e-300
}

var paperParams = assembly.DefaultPaperParams()

// paperOracle is the paper's hand-written closed form for the search
// service, independent of the interpreted, numeric and parametric engines.
func paperOracle(remote bool, p []float64) float64 {
	return assembly.ClosedFormSearch(paperParams, remote, p[0], p[1], p[2])
}

// tenantOracle evaluates generated tenant models with the interpreted
// evaluator. A fresh core.Evaluator per point keeps every evaluation on
// the interpreted path (an Evaluator delegates a root to the compiled
// engine from its second call on). Results are memoized per point.
type tenantOracle struct {
	models []modelSpec
	asms   map[[2]int]*assembly.Assembly
	memo   map[[3]int]float64
}

func newTenantOracle(models []modelSpec) *tenantOracle {
	return &tenantOracle{models: models, asms: map[[2]int]*assembly.Assembly{}, memo: map[[3]int]float64{}}
}

// pfail returns the oracle value of model m, content version ver, pool
// point k.
func (o *tenantOracle) pfail(m, ver, k int) (float64, error) {
	key := [3]int{m, ver, k}
	if v, ok := o.memo[key]; ok {
		return v, nil
	}
	asm, ok := o.asms[[2]int{m, ver}]
	if !ok {
		doc, err := adl.ParseDSL(o.models[m].doc(ver))
		if err != nil {
			return 0, fmt.Errorf("oracle: parse %s v%d: %w", o.models[m].ref(), ver, err)
		}
		if asm, err = doc.BuildAssembly("main"); err != nil {
			return 0, fmt.Errorf("oracle: build %s v%d: %w", o.models[m].ref(), ver, err)
		}
		o.asms[[2]int{m, ver}] = asm
	}
	v, err := core.New(asm, core.Options{}).Pfail(tenantService, o.models[m].Pool[k]...)
	if err != nil {
		return 0, fmt.Errorf("oracle: evaluate %s v%d: %w", o.models[m].ref(), ver, err)
	}
	o.memo[key] = v
	return v, nil
}

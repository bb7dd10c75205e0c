package httpapi

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"socrel/internal/adl"
	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/server"
)

// LoadAssembly resolves the -file / -paper flags into an assembly. A
// file of "-" reads standard input; an empty asmName selects the
// document's sole assembly.
func LoadAssembly(file, asmName, paper string) (*assembly.Assembly, error) {
	switch {
	case paper != "":
		p := assembly.DefaultPaperParams()
		switch paper {
		case "local":
			return assembly.LocalAssembly(p)
		case "remote":
			return assembly.RemoteAssembly(p)
		default:
			return nil, fmt.Errorf("unknown -paper value %q (want local or remote)", paper)
		}
	case file != "":
		doc, err := adl.ReadFile(file)
		if err != nil {
			return nil, err
		}
		if asmName, err = doc.PickAssembly(asmName); err != nil {
			return nil, fmt.Errorf("document %w with -assembly", err)
		}
		return doc.BuildAssembly(asmName)
	default:
		return nil, errors.New("either -file or -paper is required")
	}
}

// EvaluatorFactory builds the evaluator ladder for an assembly:
// parametric closed forms over the compiled kernel when they exist, the
// compiled kernel alone otherwise, and a mutex-serialized interpreter
// when the assembly does not compile. The compiled engine is safe for
// concurrent use, so every caller of the returned constructor shares one
// artifact (also returned, nil on the interpreted path); the interpreter
// is not, so each call gets its own. mode names the top rung.
func EvaluatorFactory(asm *assembly.Assembly, opts core.Options, service string) (newEval func(id string) server.Evaluator, ca *core.CompiledAssembly, mode string, err error) {
	ca, err = core.CompileParametric(asm, opts, core.ParametricOptions{}, service)
	if err == nil {
		mode = "compiled"
		if st := ca.ParametricStats(); st.Outputs > 0 {
			mode = "parametric"
		}
		return func(string) server.Evaluator { return ca }, ca, mode, nil
	}
	if !errors.Is(err, core.ErrNotCompilable) {
		return nil, nil, "", err
	}
	return func(string) server.Evaluator {
		return &serializedEval{ev: core.New(asm, opts)}
	}, nil, "interpreted", nil
}

// serializedEval guards the single-goroutine interpreted evaluator with
// a mutex: correctness over parallelism on the fallback path. The
// admission controller sees the serialization as latency and sizes the
// window down accordingly.
type serializedEval struct {
	mu sync.Mutex
	ev *core.Evaluator
}

func (s *serializedEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ev.PfailCtx(ctx, service, params...)
}

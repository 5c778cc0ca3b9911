package engine

import (
	"encoding/json"
	"fmt"

	"opaquebench/internal/collbench"
	"opaquebench/internal/core"
	"opaquebench/internal/cpubench"
	"opaquebench/internal/doe"
	"opaquebench/internal/membench"
	"opaquebench/internal/netbench"
	"opaquebench/internal/numabench"
)

// def adapts an engine package's conventional Spec/FromSpec/Factory trio to
// the Definition interface. The Spec type parameter is the engine package's
// declarative config struct; Decode produces it via StrictDecode, so every
// registered engine inherits the same decoding discipline.
type def[S Spec] struct {
	name   string
	higher bool
	build  func(spec S, seed uint64) (core.EngineFactory, *doe.Design, error)
}

func (d def[S]) Name() string         { return d.name }
func (d def[S]) HigherIsBetter() bool { return d.higher }

func (d def[S]) Decode(raw json.RawMessage) (Spec, error) {
	var s S
	if err := StrictDecode(raw, &s); err != nil {
		return nil, err
	}
	return s, nil
}

func (d def[S]) Build(spec Spec, seed uint64) (core.EngineFactory, *doe.Design, error) {
	s, ok := spec.(S)
	if !ok {
		return nil, nil, fmt.Errorf("engine: %s: spec is %T, not this engine's", d.name, spec)
	}
	return d.build(s, seed)
}

func init() {
	// Direction follows each engine's primary metric: membench reports
	// bandwidth (MB/s) and cpubench effective MHz — more is better;
	// netbench reports operation duration in seconds — less is better.
	Register(def[membench.Spec]{name: "membench", higher: true,
		build: func(s membench.Spec, seed uint64) (core.EngineFactory, *doe.Design, error) {
			cfg, design, err := membench.FromSpec(s, seed)
			if err != nil {
				return nil, nil, err
			}
			return membench.Factory(cfg), design, nil
		}})
	Register(def[netbench.Spec]{name: "netbench", higher: false,
		build: func(s netbench.Spec, seed uint64) (core.EngineFactory, *doe.Design, error) {
			cfg, design, err := netbench.FromSpec(s, seed)
			if err != nil {
				return nil, nil, err
			}
			return netbench.Factory(cfg), design, nil
		}})
	Register(def[cpubench.Spec]{name: "cpubench", higher: true,
		build: func(s cpubench.Spec, seed uint64) (core.EngineFactory, *doe.Design, error) {
			cfg, design, err := cpubench.FromSpec(s, seed)
			if err != nil {
				return nil, nil, err
			}
			return cpubench.Factory(cfg), design, nil
		}})
	// numabench reports streaming bandwidth (MB/s) — more is better;
	// collbench reports collective duration in seconds — less is better.
	Register(def[numabench.Spec]{name: "numabench", higher: true,
		build: func(s numabench.Spec, seed uint64) (core.EngineFactory, *doe.Design, error) {
			cfg, design, err := numabench.FromSpec(s, seed)
			if err != nil {
				return nil, nil, err
			}
			return numabench.Factory(cfg), design, nil
		}})
	Register(def[collbench.Spec]{name: "collbench", higher: false,
		build: func(s collbench.Spec, seed uint64) (core.EngineFactory, *doe.Design, error) {
			cfg, design, err := collbench.FromSpec(s, seed)
			if err != nil {
				return nil, nil, err
			}
			return collbench.CollectiveFactory(cfg), design, nil
		}})
}

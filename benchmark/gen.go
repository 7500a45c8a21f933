package main

import (
	"fmt"
	"math/rand"
	"strings"

	"pnptuner/internal/dataset"
	"pnptuner/internal/frontend"
	"pnptuner/internal/hw"
	"pnptuner/internal/omp"
	"pnptuner/internal/programl"
	"pnptuner/internal/space"
	"pnptuner/internal/vocab"
)

// Generated-region sizing: statements per loop nest. The corpus tops
// out at 129 graph nodes; these land at roughly 1.0–1.6 k nodes, where
// decoding and compiling the graph cost more than the batch window.
const (
	genMinStmts = 30
	genMaxStmts = 48
	genArrays   = 6
)

// genSource emits one mini-C translation unit holding a single
// `#pragma omp parallel for` nest of stmts three-point stencil
// statements over genArrays grids. Array choice, neighbour offsets and
// coefficients come from rng; everything else is fixed.
func genSource(rng *rand.Rand, stmts int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "const int N = %d;\n", 1000+100*rng.Intn(8))
	for a := 0; a < genArrays; a++ {
		fmt.Fprintf(&b, "double G%d[N][N];\n", a)
	}
	scheds := []string{"static", "dynamic", "guided"}
	fmt.Fprintf(&b, "\nvoid kernel_gen() {\n  #pragma omp parallel for schedule(%s)\n", scheds[rng.Intn(len(scheds))])
	b.WriteString("  for (i = 2; i < N - 2; i++) {\n    for (j = 2; j < N - 2; j++) {\n")
	for s := 0; s < stmts; s++ {
		dst, src := rng.Intn(genArrays), rng.Intn(genArrays)
		d := 1 + rng.Intn(2)
		fmt.Fprintf(&b, "      G%d[i][j] = (G%d[i-%d][j] + G%d[i][j+%d] + %d.5 * G%d[i][j]) / %d.0;\n",
			dst, src, d, src, d, 1+rng.Intn(7), src, 3+rng.Intn(4))
	}
	b.WriteString("    }\n  }\n}\n")
	return b.String()
}

// bigRegion is one generated region: its wire graph and the ground
// truth the benchmark scores answers against.
type bigRegion struct {
	id    string
	graph *programl.Graph
	truth map[string]*dataset.RegionData // by machine name
}

// genRegion compiles one generated source through the production
// frontend, annotates its graph with the frozen corpus vocabulary, and
// sweeps the exhaustive ground truth on every machine.
func genRegion(rng *rand.Rand, name string, stmts int, v *vocab.Vocabulary) (*bigRegion, error) {
	src := genSource(rng, stmts)
	prog, low, err := frontend.Compile(name, src)
	if err != nil {
		return nil, fmt.Errorf("generated source %s (%d statements): %w", name, stmts, err)
	}
	if len(prog.Regions) != 1 {
		return nil, fmt.Errorf("generated source %s has %d regions, want 1", name, len(prog.Regions))
	}
	fr := prog.Regions[0]
	g, err := programl.FromFunction(fr.ID, low.RegionFunc[fr.ID])
	if err != nil {
		return nil, err
	}
	v.Annotate(g)
	r := &bigRegion{id: fr.ID, graph: g, truth: map[string]*dataset.RegionData{}}
	seed := rng.Uint64()
	for _, name := range machines {
		m, err := hw.ByName(name)
		if err != nil {
			return nil, err
		}
		r.truth[name] = sweep(m, &fr.Model, seed)
	}
	return r, nil
}

// sweep runs model at every Table I point of m on the simulated
// testbed — the same exhaustive grid dataset.Build keeps for corpus
// regions.
func sweep(m *hw.Machine, model *frontend.RegionModel, seed uint64) *dataset.RegionData {
	s := space.New(m)
	ex := omp.NewExecutor(m)
	rd := &dataset.RegionData{
		Results:     make([][]omp.Result, len(s.Caps())),
		BestTimeCfg: make([]int, len(s.Caps())),
	}
	bestEDP := -1.0
	for ci, capW := range s.Caps() {
		rd.Results[ci] = make([]omp.Result, s.NumConfigs())
		for ki, cfg := range s.Configs {
			res := ex.Run(model, seed, cfg, capW)
			rd.Results[ci][ki] = res
			if res.TimeSec < rd.Results[ci][rd.BestTimeCfg[ci]].TimeSec {
				rd.BestTimeCfg[ci] = ki
			}
			if edp := res.EDP(); bestEDP < 0 || edp < bestEDP {
				bestEDP, rd.BestEDPJoint = edp, s.JointIndex(ci, ki)
			}
		}
	}
	return rd
}

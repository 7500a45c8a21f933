// Package kernels holds the paper's benchmark corpus: 24 PolyBench
// programs plus the six proxy/mini applications (XSBench, RSBench, miniFE,
// miniAMR, Quicksilver, LULESH), totalling 30 applications with 68 OpenMP
// parallel regions, written in the repository's mini-C/OpenMP dialect.
//
// Each region serves two consumers from the same source text: the
// frontend's static analysis feeds the hardware simulator, and the lowered
// IR feeds the PROGRAML graph pipeline the GNN learns from.
package kernels

import (
	"fmt"
	"sort"
	"sync"

	"pnptuner/internal/frontend"
	"pnptuner/internal/ir"
	"pnptuner/internal/programl"
	"pnptuner/internal/rgcn"
	"pnptuner/internal/vocab"
)

// App is one benchmark application source.
type App struct {
	Name   string
	Suite  string // "polybench" or "proxy"
	Source string
}

// Region is a compiled OpenMP region: the frontend analysis plus the
// program graph.
type Region struct {
	App    string
	Suite  string
	ID     string
	Info   *frontend.Region
	Func   *ir.Function
	Graph  *programl.Graph
	Seed   uint64 // deterministic per-region noise seed
	Pragma ompPragma

	compileOnce sync.Once
	compiled    *rgcn.CompiledGraph
}

// CompiledGraph returns the region's compile-once GNN artifact — gather
// indices, node-kind tags, and per-relation CSR plans — built on
// first use and shared by every model, fold, and epoch thereafter (the
// corpus is cached process-wide, so each region graph is compiled exactly
// once per process). The artifact is immutable and goroutine-safe.
func (r *Region) CompiledGraph() *rgcn.CompiledGraph {
	r.compileOnce.Do(func() { r.compiled = rgcn.CompileGraph(r.Graph) })
	return r.compiled
}

// ompPragma records the source-level schedule for reference.
type ompPragma struct {
	Schedule frontend.ScheduleKind
	Chunk    int64
}

// Corpus is the compiled benchmark set.
type Corpus struct {
	Apps    []App
	Regions []*Region
	// ByApp groups region indices per application, in app order.
	ByApp map[string][]*Region
	Vocab *vocab.Vocabulary
}

// Apps returns the corpus sources in the paper's figure order: proxy apps
// first, then PolyBench.
func Apps() []App {
	apps := make([]App, 0, len(proxyApps)+len(polybenchApps))
	apps = append(apps, proxyApps...)
	apps = append(apps, polybenchApps...)
	return apps
}

// AppNames returns application names in figure order.
func AppNames() []string {
	apps := Apps()
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	return names
}

var (
	compileOnce sync.Once
	compiled    *Corpus
	compileErr  error
)

// Compile parses, analyzes, lowers and graphs the whole corpus. The result
// is cached; the corpus is immutable.
func Compile() (*Corpus, error) {
	compileOnce.Do(func() { compiled, compileErr = compileAll() })
	return compiled, compileErr
}

// MustCompile is Compile, panicking on error (the corpus is a compile-time
// constant of the repository, so failure is a programming error).
func MustCompile() *Corpus {
	c, err := Compile()
	if err != nil {
		panic(err)
	}
	return c
}

func compileAll() (*Corpus, error) {
	v := vocab.New()
	c := &Corpus{Apps: Apps(), ByApp: make(map[string][]*Region), Vocab: v}
	for _, app := range c.Apps {
		prog, low, err := frontend.Compile(app.Name, app.Source)
		if err != nil {
			return nil, fmt.Errorf("kernels: %s: %w", app.Name, err)
		}
		for _, fr := range prog.Regions {
			fn, ok := low.RegionFunc[fr.ID]
			if !ok {
				return nil, fmt.Errorf("kernels: %s: region %s has no outlined function", app.Name, fr.ID)
			}
			g, err := programl.FromFunction(fr.ID, fn)
			if err != nil {
				return nil, fmt.Errorf("kernels: %s: %w", app.Name, err)
			}
			v.Annotate(g)
			r := &Region{
				App:   app.Name,
				Suite: app.Suite,
				ID:    fr.ID,
				Info:  fr,
				Func:  fn,
				Graph: g,
				Seed:  hashString(fr.ID),
				Pragma: ompPragma{
					Schedule: fr.Pragma.Schedule,
					Chunk:    fr.Pragma.Chunk,
				},
			}
			c.Regions = append(c.Regions, r)
			c.ByApp[app.Name] = append(c.ByApp[app.Name], r)
		}
	}
	v.Freeze()
	return c, nil
}

// RegionIDs returns all region IDs, sorted.
func (c *Corpus) RegionIDs() []string {
	ids := make([]string, len(c.Regions))
	for i, r := range c.Regions {
		ids[i] = r.ID
	}
	sort.Strings(ids)
	return ids
}

// Region returns the region with the given ID, or nil.
func (c *Corpus) Region(id string) *Region {
	for _, r := range c.Regions {
		if r.ID == id {
			return r
		}
	}
	return nil
}

// hashString is FNV-1a, giving each region a stable noise seed.
func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

package programl

import (
	"testing"

	"pnptuner/internal/frontend"
)

const src = `
const int N = 128;
double A[N][N];
double x[N];
double y[N];

void mvt_kernel() {
  #pragma omp parallel for
  for (i = 0; i < N; i++) {
    double s = 0.0;
    for (j = 0; j < N; j++) {
      s += A[i][j] * x[j];
    }
    y[i] = s + sqrt(y[i]);
  }
}
`

func buildGraph(t testing.TB) *Graph {
	t.Helper()
	prog, low, err := frontend.Compile("mvt", src)
	if err != nil {
		t.Fatal(err)
	}
	rf := low.RegionFunc[prog.Regions[0].ID]
	g, err := FromFunction(prog.Regions[0].ID, rf)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphHasAllNodeKinds(t *testing.T) {
	g := buildGraph(t)
	seen := map[NodeKind]int{}
	for _, n := range g.Nodes {
		seen[n.Kind]++
	}
	if seen[KindInstruction] == 0 || seen[KindVariable] == 0 || seen[KindConstant] == 0 {
		t.Fatalf("node kinds: %v", seen)
	}
}

func TestGraphHasAllRelations(t *testing.T) {
	g := buildGraph(t)
	seen := map[Relation]int{}
	for _, e := range g.Edges {
		seen[e.Rel]++
	}
	if seen[RelControl] == 0 || seen[RelData] == 0 || seen[RelCall] == 0 {
		t.Fatalf("edge relations: %v", seen)
	}
}

func TestGraphEdgesInRange(t *testing.T) {
	g := buildGraph(t)
	for _, e := range g.Edges {
		if e.Src < 0 || e.Src >= len(g.Nodes) || e.Dst < 0 || e.Dst >= len(g.Nodes) {
			t.Fatalf("edge %v out of range (%d nodes)", e, len(g.Nodes))
		}
		if e.Rel < 0 || e.Rel >= NumRelations {
			t.Fatalf("edge %v has bad relation", e)
		}
	}
}

func TestControlFlowFormsLoop(t *testing.T) {
	// The region is a loop, so some control edge must point "backwards"
	// (to an earlier instruction vertex).
	g := buildGraph(t)
	back := false
	for _, e := range g.Edges {
		if e.Rel == RelControl && e.Dst <= e.Src {
			back = true
			break
		}
	}
	if !back {
		t.Fatal("no control back-edge found; loop structure lost")
	}
}

func TestConstantsAreDeduplicated(t *testing.T) {
	g := buildGraph(t)
	seen := map[string]int{}
	for _, n := range g.Nodes {
		if n.Kind == KindConstant {
			seen[n.Text]++
			if seen[n.Text] > 1 {
				t.Fatalf("constant %q duplicated", n.Text)
			}
		}
	}
}

func TestCallEdgesAreBidirectional(t *testing.T) {
	g := buildGraph(t)
	fwd := map[[2]int]bool{}
	for _, e := range g.Edges {
		if e.Rel == RelCall {
			fwd[[2]int{e.Src, e.Dst}] = true
		}
	}
	if len(fwd) == 0 {
		t.Fatal("no call edges")
	}
	for k := range fwd {
		if !fwd[[2]int{k[1], k[0]}] {
			t.Fatalf("call edge %v lacks reverse", k)
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a, b := buildGraph(t), buildGraph(t)
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		t.Fatal("graph size differs between runs")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d differs: %v vs %v", i, a.Nodes[i], b.Nodes[i])
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestRejectsDeclaration(t *testing.T) {
	prog, low, err := frontend.Compile("mvt", src)
	if err != nil {
		t.Fatal(err)
	}
	_ = prog
	decl := low.Module.Func("sqrt")
	if decl == nil {
		t.Fatal("sqrt declaration missing")
	}
	if _, err := FromFunction("x", decl); err == nil {
		t.Fatal("graphed a declaration")
	}
}

func TestBucketConst(t *testing.T) {
	cases := map[string]string{
		"0": "zero", "1": "one", "-1": "negone", "42": "small", "100": "large",
		"1.5": "float", "2e+10": "float", "true": "true", "0.0": "zero",
	}
	for in, want := range cases {
		if got := bucketConst(in); got != want {
			t.Errorf("bucketConst(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStatsString(t *testing.T) {
	g := buildGraph(t)
	s := g.Stats()
	if s == "" || g.NumNodes() == 0 {
		t.Fatal("empty stats")
	}
}

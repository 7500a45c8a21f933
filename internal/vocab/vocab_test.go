package vocab

import (
	"testing"

	"pnptuner/internal/frontend"
	"pnptuner/internal/programl"
)

func TestDeterministicTokenIDs(t *testing.T) {
	a, b := New(), New()
	if a.Size() != b.Size() {
		t.Fatal("vocab sizes differ")
	}
	for i := 0; i < a.Size(); i++ {
		if a.Text(i) != b.Text(i) {
			t.Fatalf("token %d differs: %q vs %q", i, a.Text(i), b.Text(i))
		}
	}
}

func TestUnknownTokenIsZero(t *testing.T) {
	v := New()
	if v.Text(UnknownToken) != "<unk>" {
		t.Fatalf("token 0 = %q", v.Text(UnknownToken))
	}
	if v.Text(-5) != "<unk>" || v.Text(1<<20) != "<unk>" {
		t.Fatal("out-of-range ids must map to <unk>")
	}
}

// token annotates a one-node graph of text and returns its token.
func token(v *Vocabulary, text string) int {
	g := &programl.Graph{Nodes: []programl.Node{{Text: text}}}
	v.Annotate(g)
	return g.Nodes[0].Token
}

func TestFreezeRejectsNewTexts(t *testing.T) {
	v := New()
	id := token(v, "something brand new")
	if id == UnknownToken {
		t.Fatal("open vocab should intern new text")
	}
	v.Freeze()
	if got := token(v, "another new thing"); got != UnknownToken {
		t.Fatalf("frozen vocab interned new text as %d", got)
	}
	// Existing text still resolves after freezing.
	if got := token(v, "something brand new"); got != id {
		t.Fatalf("frozen vocab lost existing text: %d != %d", got, id)
	}
}

// TestInterner: only a frozen vocabulary interns, a known text gets the
// vocabulary's own string without allocating, and an unknown one a copy
// of its bytes.
func TestInterner(t *testing.T) {
	v := New()
	if v.Interner() != nil {
		t.Fatal("an open vocabulary returned an interner")
	}
	v.Freeze()
	intern := v.Interner()
	known, unknown := []byte("fadd double"), []byte("no such text")
	if got := intern(known); got != "fadd double" {
		t.Fatalf("known text interned as %q", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { intern(known) }); allocs != 0 {
		t.Fatalf("a known text allocated %.0f times", allocs)
	}
	got := intern(unknown)
	unknown[0] = 'N'
	if got != "no such text" {
		t.Fatalf("unknown text interned as %q, after its bytes changed", got)
	}
}

func TestPipelineTextsAreCovered(t *testing.T) {
	// Every node text produced by compiling a kernel that exercises most
	// syntax must already be in the base vocabulary (no <unk> tokens).
	src := `
const int N = 64;
double A[N][N];
double v[N];
double s;
void f() {
  #pragma omp parallel for schedule(guided) reduction(+:s)
  for (i = 0; i < N; i++) {
    double acc = 0.0;
    for (j = 0; j < i; j++) {
      acc += A[i][j] * v[j] / 3.0;
    }
    if (i % 2 == 0) {
      v[i] = sqrt(fabs(acc)) + pow(acc, 2.0);
    } else {
      v[i] = acc > 1.0 ? exp(acc) : log(1.0 + acc * acc);
    }
    s += v[i];
  }
}
`
	prog, low, err := frontend.Compile("cov", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := programl.FromFunction(prog.Regions[0].ID, low.RegionFunc[prog.Regions[0].ID])
	if err != nil {
		t.Fatal(err)
	}
	v := New()
	v.Freeze()
	v.Annotate(g)
	for _, n := range g.Nodes {
		if n.Token == UnknownToken {
			t.Errorf("node text %q not in base vocabulary", n.Text)
		}
	}
}

func TestAnnotateFillsTokens(t *testing.T) {
	v := New()
	g := &programl.Graph{Nodes: []programl.Node{
		{Kind: programl.KindInstruction, Text: "fadd double"},
		{Kind: programl.KindConstant, Text: "const double zero"},
	}}
	v.Annotate(g)
	if g.Nodes[0].Token == UnknownToken || g.Nodes[1].Token == UnknownToken {
		t.Fatal("known texts mapped to <unk>")
	}
	if g.Nodes[0].Token == g.Nodes[1].Token {
		t.Fatal("distinct texts share a token")
	}
}

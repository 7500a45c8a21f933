// Package vocab assigns stable integer tokens to program-graph node texts.
// The vocabulary is closed and deterministic: identical sources produce
// identical token streams on every machine, which is what makes the
// paper's Haswell→Skylake transfer-learning trick possible (the GNN
// weights keyed on these tokens are portable across systems).
package vocab

import (
	"sort"
	"sync"

	"pnptuner/internal/programl"
)

// UnknownToken is the id reserved for texts outside the vocabulary.
const UnknownToken = 0

// Vocabulary maps node texts to dense token ids. The zero id is the
// unknown token.
type Vocabulary struct {
	mu    sync.Mutex
	ids   map[string]int
	texts []string
	// frozen vocabularies reject new texts (they map to UnknownToken).
	frozen bool
}

// New creates a vocabulary pre-seeded with the closed token set produced
// by the frontend/programl pipeline, in deterministic order.
func New() *Vocabulary {
	v := &Vocabulary{ids: map[string]int{}, texts: []string{"<unk>"}}
	seed := baseTokens()
	sort.Strings(seed)
	for _, t := range seed {
		v.intern(t)
	}
	return v
}

func (v *Vocabulary) intern(text string) int {
	if id, ok := v.ids[text]; ok {
		return id
	}
	if v.frozen {
		return UnknownToken
	}
	id := len(v.texts)
	v.ids[text] = id
	v.texts = append(v.texts, text)
	return id
}

// Freeze closes the vocabulary; subsequent unseen texts map to the
// unknown token. Models freeze their vocabulary at train time.
func (v *Vocabulary) Freeze() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.frozen = true
}

// Size returns the number of tokens including the unknown token.
func (v *Vocabulary) Size() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.texts)
}

// Text returns the text of token id, or "<unk>".
func (v *Vocabulary) Text(id int) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if id < 0 || id >= len(v.texts) {
		return v.texts[UnknownToken]
	}
	return v.texts[id]
}

// Annotate fills g.Nodes[i].Token for every node, interning each new
// text while the vocabulary is open.
func (v *Vocabulary) Annotate(g *programl.Graph) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i := range g.Nodes {
		g.Nodes[i].Token = v.intern(g.Nodes[i].Text)
	}
}

// Interner returns programl.DecodePredict's intern input for a frozen
// vocabulary: a text in the vocabulary gets the vocabulary's own string,
// found without allocating, and any other a string of its own. An open
// vocabulary, which may still grow, returns nil.
func (v *Vocabulary) Interner() func([]byte) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.frozen {
		return nil
	}
	ids, texts := v.ids, v.texts // a frozen vocabulary never changes them
	return func(b []byte) string {
		if id, ok := ids[string(b)]; ok {
			return texts[id]
		}
		return string(b)
	}
}

// baseTokens enumerates every node text the pipeline can produce:
// instruction texts for each opcode/type combination in use, call targets
// for the intrinsic table, and the variable/constant buckets.
func baseTokens() []string {
	toks := []string{
		"alloca", "getelementptr", "br", "br i1", "ret void", "ret double", "ret i64",
		"load double", "load i64", "store double", "store i64",
		"add i64", "sub i64", "mul i64", "sdiv i64", "srem i64",
		"fadd double", "fsub double", "fmul double", "fdiv double", "fneg double",
		"sext i64", "sitofp double", "fptosi i64",
		"select i1", "select i64", "select double",
		"phi i64", "phi double",
	}
	for _, pred := range []string{"slt", "sle", "sgt", "sge", "eq", "ne"} {
		toks = append(toks, "icmp "+pred+" i64", "icmp "+pred+" i1")
	}
	for _, pred := range []string{"olt", "ole", "ogt", "oge", "oeq", "one"} {
		toks = append(toks, "fcmp "+pred+" double")
	}
	callees := []string{
		"__omp_fork_call", "sqrt", "fabs", "exp", "log", "pow", "sin", "cos",
		"fmax", "fmin", "xs_lookup_macro", "xs_lookup_micro", "rs_eval_poles",
		"rs_eval_window", "mc_segment_walk", "mc_collision", "amr_refine_check",
		"amr_face_exchange", "rand01",
	}
	for _, c := range callees {
		toks = append(toks, "call @"+c, "declare @"+c)
	}
	toks = append(toks,
		"param i64", "param double",
		"global double", "global i64",
		"global array1d double", "global array2d double", "global array3d double",
		"global array1d i64", "global array2d i64", "global array3d i64",
	)
	for _, ty := range []string{"i64", "double", "i1"} {
		for _, b := range []string{"zero", "one", "negone", "small", "large", "float", "true", "false"} {
			toks = append(toks, "const "+ty+" "+b)
		}
	}
	return toks
}

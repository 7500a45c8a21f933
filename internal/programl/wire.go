package programl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"

	"pnptuner/internal/api"
)

// This file is the one reader of the predict wire format, in one pass
// under encoding/json's rules: keys match exactly or else case-folded, a
// repeated key merges into what the earlier one decoded, null leaves a
// field as it was, int fields take integer literals only, and invalid
// UTF-8 and lone surrogates decode to U+FFFD. api.SkipJSON checks each
// value skipped or read as a number. The graph checks live here too:
// node kinds, edge relations and ranges, and the api limits.

// DecodePredict decodes a POST /v1/predict body: the envelope into req
// and its graph into g, nil when the graph is absent or null. Bytes
// after the body's first JSON value are not read. A graph over the api
// limits fails with an *api.ErrorInfo of code graph_too_large.
//
// Both other inputs may be nil. A non-nil into is cleared and becomes g,
// so its lists' storage is reused. A non-nil intern gives each node text
// its string from the text's bytes, which it must not keep.
func DecodePredict(body []byte, into *Graph, intern func([]byte) string) (req api.PredictRequest, g *Graph, err error) {
	s := scanner{data: body, scratch: into, intern: intern}
	if s.request(&req, &g); s.err == nil && g != nil {
		s.err = g.settle()
	}
	return req, g, s.err
}

// RoutePredict reads what a proxy needs of a predict body: the envelope,
// the graph's region_id when a string, and the offset past the first
// value. It checks the rest of the graph's syntax without building it.
func RoutePredict(body []byte) (req api.PredictRequest, regionID string, end int, err error) {
	s := scanner{data: body, route: true}
	var g *Graph
	if s.request(&req, &g); g != nil {
		regionID = g.RegionID
	}
	return req, regionID, s.pos, s.err
}

// UnmarshalJSON decodes a graph produced by MarshalJSON.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var out Graph
	s := scanner{data: data}
	if s.graph(&out); s.next() != 0 || s.pos < len(data) {
		s.fail("the end")
	}
	if s.err == nil {
		if s.err = out.settle(); s.err == nil {
			*g = out
		}
	}
	return s.err
}

// settle runs once the whole graph is read, as a later duplicate key may
// still replace a field. It turns the kinds and relations, stored one up
// so that 0 marks a missing or unknown name, back into their values,
// checks that each edge joins two nodes, and makes absent lists empty.
func (g *Graph) settle() error {
	g.Nodes, g.Edges = nonNil(g.Nodes), nonNil(g.Edges)
	for i := range g.Nodes {
		if g.Nodes[i].Kind--; g.Nodes[i].Kind < 0 {
			return fmt.Errorf("programl: node %d has no known kind", i)
		}
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Rel--; e.Rel < 0 || min(e.Src, e.Dst) < 0 || max(e.Src, e.Dst) >= len(g.Nodes) {
			return fmt.Errorf("programl: edge %d has no known relation or leaves node range [0,%d)", i, len(g.Nodes))
		}
	}
	return nil
}

// nonNil returns v, or an empty list when v is nil.
func nonNil[T any](v []T) []T {
	if v == nil {
		return []T{}
	}
	return v
}

// scanner reads JSON from data at pos. Its first error sticks, and every
// read after it does nothing. A route scanner skips a graph's lists. A
// graph decodes into scratch when it is set, and intern, when set, gives
// node texts their strings.
type scanner struct {
	data       []byte
	pos, depth int
	err        error
	route      bool
	scratch    *Graph
	intern     func([]byte) string
}

func (s *scanner) request(req *api.PredictRequest, g **Graph) {
	for more := s.open('{'); more; more = s.more('}') {
		switch s.name("machine", "objective", "scenario", "counters", "graph") {
		case 0:
			s.string(&req.Machine)
		case 1:
			s.string(&req.Objective)
		case 2:
			s.string(&req.Scenario)
		case 3:
			list(s, &req.Counters, -1, (*scanner).float)
		case 4:
			if s.next() == 'n' {
				*g = nil
			} else if *g == nil {
				*g = s.fresh()
			}
			s.graph(*g)
		default:
			s.skip()
		}
	}
}

// fresh returns an empty graph to decode into: scratch, cleared over its
// lists' whole capacity because list merges into what the backing arrays
// hold, or else a new one.
func (s *scanner) fresh() *Graph {
	g := s.scratch
	if g == nil {
		return &Graph{}
	}
	clear(g.Nodes[:cap(g.Nodes)])
	clear(g.Edges[:cap(g.Edges)])
	*g = Graph{Nodes: g.Nodes[:0], Edges: g.Edges[:0]}
	return g
}

func (s *scanner) graph(g *Graph) {
	for more := s.open('{'); more; more = s.more('}') {
		switch i := s.name("region_id", "nodes", "edges"); {
		case i == 0 && (!s.route || s.next() == '"'):
			s.string(&g.RegionID)
		case i == 1 && !s.route:
			list(s, &g.Nodes, api.MaxGraphNodes, (*scanner).node)
		case i == 2 && !s.route:
			list(s, &g.Edges, api.MaxGraphEdges, (*scanner).edge)
		default:
			s.skip()
		}
	}
}

func (s *scanner) node(n *Node) {
	for more := s.open('{'); more; more = s.more('}') {
		switch s.name("kind", "text", "token") {
		case 0:
			enum(s, &n.Kind, kindNames)
		case 1:
			if s.next() == 'n' || s.intern == nil {
				s.string(&n.Text)
			} else if b := s.str(); s.err == nil {
				n.Text = s.intern(b)
			}
		case 2:
			s.int(&n.Token)
		default:
			s.skip()
		}
	}
}

func (s *scanner) edge(e *Edge) {
	for more := s.open('{'); more; more = s.more('}') {
		switch s.name("src", "dst", "rel") {
		case 0:
			s.int(&e.Src)
		case 1:
			s.int(&e.Dst)
		case 2:
			enum(s, &e.Rel, relNames)
		default:
			s.skip()
		}
	}
}

// list reads an array into *p as encoding/json does: element i merges
// into what *p's backing array holds there, [] leaves *p empty and null
// drops it. More than limit elements is graph_too_large.
func list[T any](s *scanner, p *[]T, limit int, elem func(*scanner, *T)) {
	if s.next() == 'n' {
		*p = nil
		s.skip()
		return
	}
	v := (*p)[:0]
	for more := s.open('['); more; more = s.more(']') {
		if len(v) == limit {
			s.err = api.Errorf(api.CodeGraphTooLarge, "programl: graph has a list over %d long", limit)
			break
		}
		v = slices.Grow(v, 1)[:len(v)+1]
		elem(s, &v[len(v)-1])
	}
	*p = nonNil(v)
}

// open reads the c ('{' or '[') that starts a container and reports
// whether an element follows. A null, which changes nothing, and an
// empty container have none.
func (s *scanner) open(c byte) bool {
	switch s.next() {
	case 'n':
		s.skip()
		return false
	case c:
	default:
		s.fail(string(c))
		return false
	}
	if s.depth++; s.depth > api.MaxJSONDepth {
		s.fail(fmt.Sprint("nesting at most ", api.MaxJSONDepth, " deep"))
		return false
	}
	s.pos++
	return s.next() != c+2 || s.more(c+2) // '{'+2 is '}', '['+2 is ']'
}

// more reports whether another element follows in the open container
// that close ends, reading the ',' before it, or else the close.
func (s *scanner) more(close byte) bool {
	switch s.next() {
	case ',':
		s.pos++
		return true
	case close:
		s.pos++
		s.depth--
	default:
		s.fail("',' or " + string(close))
	}
	return false
}

// name reads an object member's name and the ':' after it, and returns
// its index in names, matched as encoding/json does: exactly, else under
// Unicode case folding; -1 when none matches.
func (s *scanner) name(names ...string) int {
	i := s.spelled(names)
	if i < 0 {
		key := s.str() // no two names fold alike, so one at most matches
		i = slices.IndexFunc(names, func(n string) bool { return bytes.EqualFold(key, []byte(n)) })
	}
	if s.next() != ':' {
		s.fail("':'")
		return -1
	}
	s.pos++
	return i
}

// spelled reads the string at pos if it is one of names, byte for byte,
// and returns its index; else -1, reading nothing.
func (s *scanner) spelled(names []string) int {
	if s.next() == '"' {
		d := s.data[s.pos+1:]
		for i, n := range names {
			if len(d) > len(n) && d[len(n)] == '"' && string(d[:len(n)]) == n {
				s.pos += len(n) + 2
				return i
			}
		}
	}
	return -1
}

func (s *scanner) fail(want string) {
	if s.err == nil {
		s.err = fmt.Errorf("programl: invalid JSON at offset %d of %d, want %s", s.pos, len(s.data), want)
	}
}

// next skips whitespace and returns the byte there, 0 at the end or
// after an error. The usual non-space byte returns at once.
func (s *scanner) next() byte {
	if s.pos < len(s.data) && s.data[s.pos] > ' ' && s.err == nil {
		return s.data[s.pos]
	}
	for ; s.pos < len(s.data) && s.err == nil; s.pos++ {
		if c := s.data[s.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// skip reads any one value, checking its syntax.
func (s *scanner) skip() {
	if s.err == nil {
		s.pos, s.err = api.SkipJSON(s.data, s.pos, s.depth)
	}
}

// string reads a string into *p, or a null, which changes nothing.
func (s *scanner) string(p *string) {
	if s.next() == 'n' {
		s.skip()
	} else if b := s.str(); s.err == nil {
		*p = string(b)
	}
}

// enum reads a string naming one of names into *p, stored one up as
// settle expects (0 for an unknown name), or a null, which changes
// nothing.
func enum[T ~int](s *scanner, p *T, names []string) {
	if s.next() == 'n' {
		s.skip()
	} else if i := s.spelled(names); i >= 0 {
		*p = T(i + 1)
	} else if b := s.str(); s.err == nil {
		*p = T(slices.Index(names, string(b)) + 1)
	}
}

// number reads a number literal and returns its text, or nil for a
// null, which changes nothing.
func (s *scanner) number() []byte {
	if c := s.next(); c != 'n' && c != '-' && c-'0' >= 10 {
		s.fail("null or a number")
	}
	start := s.pos
	if s.skip(); s.err != nil || s.data[start] == 'n' {
		return nil
	}
	return s.data[start:s.pos]
}

// int reads an integer literal into *p, or a null, which changes
// nothing. Up to 18 digits, which cannot overflow, are read in one pass;
// number and strconv.Atoi take the rest, rejecting a fraction, an
// exponent or a value outside int's range.
func (s *scanner) int(p *int) {
	c, i := s.next(), s.pos
	if c == '-' {
		i++
	}
	v, j := 0, i
	for ; c != 0 && j < len(s.data) && s.data[j]-'0' < 10; j++ {
		v = v*10 + int(s.data[j]-'0')
	}
	if n := j - i; n > 0 && n <= 18 && (n == 1 || s.data[i] != '0') &&
		(j == len(s.data) || s.data[j] != '.' && s.data[j]|0x20 != 'e') {
		if s.pos = j; c == '-' {
			v = -v
		}
		*p = v
	} else if b := s.number(); b != nil {
		*p, s.err = strconv.Atoi(string(b))
	}
}

func (s *scanner) float(p *float64) {
	if b := s.number(); b != nil {
		*p, s.err = strconv.ParseFloat(string(b), 64)
	}
}

// str reads a string and returns its unescaped bytes: a slice of data
// when they hold no escape and are valid UTF-8, else encoding/json's
// decode of the span api.SkipJSON checked.
func (s *scanner) str() []byte {
	if s.next() != '"' {
		s.fail("a string")
		return nil
	}
	start := s.pos
	if s.skip(); s.err != nil {
		return nil
	}
	if b := s.data[start+1 : s.pos-1]; bytes.IndexByte(b, '\\') < 0 && utf8.Valid(b) {
		return b
	}
	var v string
	_ = json.Unmarshal(s.data[start:s.pos], &v) // the span is a valid string
	return []byte(v)
}

package programl

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"pnptuner/internal/api"
)

// This file is the one reader of the predict wire format: the request
// envelope and its graph, in a single pass, under encoding/json's rules.
// Keys match exactly or else case-folded, a repeated key merges into what
// the earlier one decoded, null leaves a field as it was, int fields take
// integer literals only, invalid UTF-8 and lone surrogates decode to
// U+FFFD, and nesting stops at depth 10000. It is also the one home of
// the graph checks: node kinds, edge relations and ranges, and the
// api.MaxGraphNodes/MaxGraphEdges limits, which reject while decoding.

const maxDepth = 10000 // encoding/json's nesting limit

// DecodePredict decodes a POST /v1/predict body: the envelope into req
// and its graph into g, nil when the graph is absent or null. Bytes
// after the body's first JSON value are not read. A graph over the api
// limits fails with an *api.ErrorInfo of code graph_too_large.
func DecodePredict(body []byte) (req api.PredictRequest, g *Graph, err error) {
	s := scanner{data: body}
	if err = s.request(&req, &g); err == nil && g != nil {
		err = g.settle()
	}
	return req, g, err
}

// RoutePredict reads what a proxy needs of a predict body, the envelope
// and the graph's region_id (when a string), checks the rest of the
// graph's syntax without building it, and returns the offset past the
// first value.
func RoutePredict(body []byte) (req api.PredictRequest, regionID string, end int, err error) {
	s := scanner{data: body}
	err = s.request(&req, func() error {
		return s.container('{', func(key []byte) error {
			if bytes.EqualFold(key, []byte("region_id")) && s.next() == '"' {
				return s.into(&regionID)
			}
			return s.skip()
		})
	})
	return req, regionID, s.pos, err
}

func (s *scanner) request(req *api.PredictRequest, graph any) error {
	return s.fields([]string{"machine", "objective", "scenario", "counters", "graph"},
		&req.Machine, &req.Objective, &req.Scenario, &req.Counters, graph)
}

// UnmarshalJSON decodes a graph produced by MarshalJSON.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var out Graph
	s := scanner{data: data}
	err := s.into(&out)
	if s.next(); err == nil && s.pos < len(data) {
		err = s.fail("the end")
	} else if err == nil {
		err = out.settle()
	}
	if err == nil {
		*g = out
	}
	return err
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

// scanner reads JSON from data at pos.
type scanner struct {
	data       []byte
	pos, depth int
}

func (s *scanner) fail(want string) error {
	return fmt.Errorf("programl: invalid JSON at offset %d of %d, want %s", s.pos, len(s.data), want)
}

// next skips whitespace and returns the byte there, 0 at the end.
func (s *scanner) next() byte {
	for ; s.pos < len(s.data); s.pos++ {
		if c := s.data[s.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// into reads the value at pos into what p points at. A null leaves it
// as it was, but for a list or a graph, which it drops.
func (s *scanner) into(p any) error {
	switch p := p.(type) {
	case *string:
		return s.scalar(true, func(b []byte) error { *p = string(b); return nil })
	case *int:
		return s.scalar(false, func(b []byte) (err error) { *p, err = strconv.Atoi(string(b)); return err })
	case *float64:
		return s.scalar(false, func(b []byte) (err error) { *p, err = strconv.ParseFloat(string(b), 64); return err })
	case *NodeKind: // stored one up, as settle expects
		return s.scalar(true, func(b []byte) error { *p = NodeKind(index(kindNames, b) + 1); return nil })
	case *Relation:
		return s.scalar(true, func(b []byte) error { *p = Relation(index(relNames, b) + 1); return nil })
	case *[]float64:
		return list(s, p, -1)
	case *[]Node:
		return list(s, p, api.MaxGraphNodes)
	case *[]Edge:
		return list(s, p, api.MaxGraphEdges)
	case *Node:
		return s.fields([]string{"kind", "text", "token"}, &p.Kind, &p.Text, &p.Token)
	case *Edge:
		return s.fields([]string{"src", "dst", "rel"}, &p.Src, &p.Dst, &p.Rel)
	case *Graph:
		return s.fields([]string{"region_id", "nodes", "edges"}, &p.RegionID, &p.Nodes, &p.Edges)
	case **Graph:
		if s.next() == 'n' {
			*p = nil
			return s.lit()
		}
		if *p == nil {
			*p = &Graph{}
		}
		return s.into(*p)
	case func() error: // a caller's own reader
		return p()
	}
	return fmt.Errorf("programl: no wire form for %T", p)
}

// fields reads an object into ptrs, the member named names[i] into
// ptrs[i], matching names as encoding/json does: exactly, else under
// Unicode case folding. Other members are skipped.
func (s *scanner) fields(names []string, ptrs ...any) error {
	return s.container('{', func(key []byte) error {
		i := index(names, key)
		if i < 0 {
			i = slices.IndexFunc(names, func(n string) bool { return bytes.EqualFold(key, []byte(n)) })
		}
		if i < 0 {
			return s.skip()
		}
		return s.into(ptrs[i])
	})
}

// index returns the position of b in names, -1 if it is not there.
func index(names []string, b []byte) int {
	return slices.IndexFunc(names, func(n string) bool { return string(b) == n })
}

// list reads an array into *p as encoding/json does: element i merges
// into what *p's backing array holds there, and [] leaves *p empty. More
// than limit elements is graph_too_large.
func list[T any](s *scanner, p *[]T, limit int) error {
	if s.next() == 'n' {
		*p = nil
		return s.lit()
	}
	v := (*p)[:0]
	err := s.container('[', func([]byte) error {
		if len(v) == limit {
			return api.Errorf(api.CodeGraphTooLarge, "programl: graph has a list over %d long", limit)
		}
		v = slices.Grow(v, 1)[:len(v)+1]
		return s.into(&v[len(v)-1])
	})
	*p = nonNil(v)
	return err
}

// scalar reads a null, which changes nothing, or a string (a number when
// not str), handing set the string's unescaped bytes or the number's
// text.
func (s *scanner) scalar(str bool, set func([]byte) error) error {
	read := s.number
	if str {
		read = s.str
	}
	if c := s.next(); c == 'n' {
		return s.lit()
	} else if str != (c == '"') {
		return s.fail("null or a value of the field's type")
	}
	b, err := read()
	if err == nil {
		err = set(b)
	}
	return err
}

// container reads the object or array that open starts, or a null,
// which changes nothing, calling elem on each member: in an object, with
// its name, once that and the ':' are read.
func (s *scanner) container(open byte, elem func(key []byte) error) error {
	if c := s.next(); c == 'n' {
		return s.lit()
	} else if c != open {
		return s.fail(string(open))
	}
	if s.depth++; s.depth > maxDepth {
		return s.fail(fmt.Sprint("nesting at most ", maxDepth, " deep"))
	}
	s.pos++
	for more := s.next() != open+2; more; more = s.next() == ',' && s.skipByte(',') {
		var key []byte
		var err error
		if open == '{' {
			if key, err = s.str(); err == nil && s.next() != ':' {
				err = s.fail("':'")
			}
			s.pos++
		}
		if err == nil {
			err = elem(key)
		}
		if err != nil {
			return err
		}
	}
	if s.next(); !s.skipByte(open + 2) { // '{'+2 is '}', '['+2 is ']'
		return s.fail("',' or " + string(open+2))
	}
	s.depth--
	return nil
}

// skip reads any one value, checking its syntax.
func (s *scanner) skip() error {
	var err error
	switch c := s.next(); c {
	case '{', '[':
		return s.container(c, func([]byte) error { return s.skip() })
	case '"':
		_, err = s.str()
	case 't', 'f', 'n':
		err = s.lit()
	default:
		_, err = s.number()
	}
	return err
}

// lit reads the literal true, false or null at pos.
func (s *scanner) lit() error {
	for _, w := range []string{"true", "false", "null"} {
		if bytes.HasPrefix(s.data[s.pos:], []byte(w)) {
			s.pos += len(w)
			return nil
		}
	}
	return s.fail("true, false or null")
}

// number reads a number literal and returns its text.
func (s *scanner) number() ([]byte, error) {
	start := s.pos
	s.skipByte('-')
	ok := s.skipByte('0') || s.digits()
	if s.skipByte('.') {
		ok = ok && s.digits()
	}
	if s.skipByte('e') || s.skipByte('E') {
		_ = s.skipByte('+') || s.skipByte('-')
		ok = ok && s.digits()
	}
	if !ok {
		return nil, s.fail("a digit")
	}
	return s.data[start:s.pos], nil
}

// skipByte steps over the byte at pos if it is c.
func (s *scanner) skipByte(c byte) bool {
	ok := s.pos < len(s.data) && s.data[s.pos] == c
	if ok {
		s.pos++
	}
	return ok
}

func (s *scanner) digits() bool {
	start := s.pos
	for s.pos < len(s.data) && s.data[s.pos]-'0' < 10 {
		s.pos++
	}
	return s.pos > start
}

// str reads a string and returns its unescaped bytes, a slice of data
// when there is nothing to unescape.
func (s *scanner) str() ([]byte, error) {
	if s.next() != '"' {
		return nil, s.fail("a string")
	}
	d, start := s.data, s.pos+1
	i := start
	for i < len(d) && d[i] != '"' && d[i] != '\\' && d[i] >= ' ' && d[i] < utf8.RuneSelf {
		i++
	}
	if s.pos = i + 1; i < len(d) && d[i] == '"' {
		return d[start:i], nil
	}
	b := append([]byte(nil), d[start:i]...)
	for s.pos = i; s.pos < len(d); {
		r, n := utf8.DecodeRune(d[s.pos:]) // invalid UTF-8 is U+FFFD
		switch esc := strings.IndexByte(`"\/bfnrt`, d[min(s.pos+1, len(d)-1)]); {
		case r == '"':
			s.pos++
			return b, nil
		case r < ' ':
			return nil, s.fail("a string character")
		case r != '\\':
			b, s.pos = utf8.AppendRune(b, r), s.pos+n
		case esc >= 0 && s.pos+1 < len(d):
			b, s.pos = append(b, "\"\\/\b\f\n\r\t"[esc]), s.pos+2
		default:
			// A surrogate pair decodes to one rune; a lone half, which
			// AppendRune writes as U+FFFD, leaves what follows it alone.
			if r = hex4(d[s.pos:]); r < 0 {
				return nil, s.fail("an escape")
			}
			s.pos += 6
			if pair := utf16.DecodeRune(r, hex4(d[s.pos:])); pair != utf8.RuneError {
				r, s.pos = pair, s.pos+6
			}
			b = utf8.AppendRune(b, r)
		}
	}
	return nil, s.fail(`'"'`)
}

// hex4 decodes a \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) >= 6 && b[0] == '\\' && b[1] == 'u' {
		if r, err := strconv.ParseUint(string(b[2:6]), 16, 16); err == nil {
			return rune(r)
		}
	}
	return -1
}

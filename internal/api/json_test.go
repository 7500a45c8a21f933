package api

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestValidJSONMatchesEncodingJSON holds the SDK's graph check to
// encoding/json.Valid on the edges of the grammar; FuzzWire
// (internal/programl) holds it there on everything else.
func TestValidJSONMatchesEncodingJSON(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, tc := range []struct{ name, in string }{
		{"nested 10000 deep", nest(10000)},
		{"nested 10001 deep", nest(10001)},
		{"objects nested 10001 deep", strings.Repeat(`{"a":`, 10001) + "1" + strings.Repeat("}", 10001)},
		{"lone minus", `-`},
		{"minus zero", `-0`},
		{"leading zero", `01`},
		{"bare fraction point", `1.`},
		{"bare exponent", `1e`},
		{"signed exponent", `-1.5E+07`},
		{"bad \\u escape", `"\u12g4"`},
		{"short \\u escape", `"\u12"`},
		{"unknown escape", `"\x"`},
		{"surrogate escapes", `"𐀀 \ud800"`},
		{"raw control byte in a string", "\"a\x01b\""},
		{"raw tab in a string", "\"a\tb\""},
		{"byte 0x80 in a string", "\"a\x80b\""},
		{"byte 0xff outside a string", "\xff"},
		{"unterminated string", `"abc`},
		{"empty", ``},
		{"only space", " \t\r\n"},
		{"spaced value", " {\"a\" : [ 1 , true , null ] } "},
		{"trailing comma", `[1,]`},
		{"missing colon", `{"a" 1}`},
		{"non-string key", `{1:2}`},
		{"mismatched close", `[1}`},
		{"two values", `1 2`},
		{"truncated literal", `tru`},
		{"literal with tail", `nullx`},
		{"NUL after a value", "{}\x00"},
	} {
		if got, want := ValidJSON([]byte(tc.in)), json.Valid([]byte(tc.in)); got != want {
			t.Errorf("%s: ValidJSON = %v, json.Valid = %v", tc.name, got, want)
		}
	}
}

// TestSkipJSONCountsOuterDepth: the nesting limit counts the containers
// around the skipped value, and the offset returned is just past it.
func TestSkipJSONCountsOuterDepth(t *testing.T) {
	in := []byte(` [[]] ,`)
	if end, err := SkipJSON(in, 0, MaxJSONDepth-2); err != nil || end != 5 {
		t.Fatalf("at depth %d: end %d, err %v; want 5, nil", MaxJSONDepth-2, end, err)
	}
	if _, err := SkipJSON(in, 0, MaxJSONDepth-1); err == nil {
		t.Fatalf("at depth %d: nesting past the limit accepted", MaxJSONDepth-1)
	}
}

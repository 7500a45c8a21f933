package api

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// MaxJSONDepth is encoding/json's nesting limit.
const MaxJSONDepth = 10000

// ValidJSON reports whether data is one JSON value with only whitespace
// around it, as encoding/json.Valid does.
func ValidJSON(data []byte) bool {
	end, err := SkipJSON(data, 0, 0)
	return err == nil && skipSpace(data, end) == len(data)
}

// SkipJSON steps over the whitespace at data[pos:] and the JSON value
// after it, checking its syntax as encoding/json does, and returns the
// offset past it; depth counts the containers already open around it.
// It is the predict path's one syntax check, iterative and allocation-
// free: the SDK, the gate and the replica all skip with it.
func SkipJSON(data []byte, pos, depth int) (int, error) {
	if pos = skipSpace(data, pos); pos < len(data) && (data[pos] == '{' || data[pos] == '[') {
		return skipNested(data, pos, depth)
	}
	return skipScalar(data, pos)
}

// skipNested is SkipJSON for an object or array.
func skipNested(data []byte, pos, depth int) (int, error) {
	var closers [MaxJSONDepth]byte // the closing byte of each open container
	base, name, err := depth, false, error(nil)
	for { // a value, or in an object a name and then a value, starts at pos
		if pos = skipSpace(data, pos); name {
			if pos >= len(data) || data[pos] != '"' {
				return pos, syntaxError(data, pos)
			}
			if pos, err = skipScalar(data, pos); err != nil {
				return pos, err
			}
			if pos = skipSpace(data, pos); pos >= len(data) || data[pos] != ':' {
				return pos, syntaxError(data, pos)
			}
			pos, name = skipSpace(data, pos+1), false
		}
		if pos < len(data) && (data[pos] == '{' || data[pos] == '[') {
			if depth++; depth > MaxJSONDepth {
				return pos, fmt.Errorf("api: JSON nested over %d deep at offset %d", MaxJSONDepth, pos)
			}
			closers[depth-base-1] = data[pos] + 2 // '{'+2 is '}', '['+2 is ']'
			if pos = skipSpace(data, pos+1); pos >= len(data) || data[pos] != closers[depth-base-1] {
				name = closers[depth-base-1] == '}'
				continue
			}
			pos, depth = pos+1, depth-1
		} else if pos, err = skipScalar(data, pos); err != nil {
			return pos, err
		}
		// A value ends at pos: close what ends with it, up to a ','.
		for ; depth > base; pos, depth = pos+1, depth-1 {
			if pos = skipSpace(data, pos); pos < len(data) && data[pos] == ',' {
				pos, name = pos+1, closers[depth-base-1] == '}'
				break
			}
			if pos >= len(data) || data[pos] != closers[depth-base-1] {
				return pos, syntaxError(data, pos)
			}
		}
		if depth == base {
			return pos, nil
		}
	}
}

// skipScalar steps over the string, number or literal at pos.
func skipScalar(data []byte, pos int) (int, error) {
	if pos >= len(data) {
		return pos, syntaxError(data, pos)
	}
	i, ok := pos+1, false
	switch c := data[pos]; c {
	case '"':
		for ok = true; ok; i++ {
			for i < len(data) && data[i] >= ' ' && data[i] != '"' && data[i] != '\\' {
				i++
			}
			switch {
			case i >= len(data) || data[i] < ' ':
				ok = false
			case data[i] == '"':
				return i + 1, nil
			case i+1 < len(data) && strings.IndexByte(`"\/bfnrt`, data[i+1]) >= 0:
				i++
			default:
				ok = i+5 < len(data) && data[i+1] == 'u' && isHex(data[i+2:i+6])
				i += 5
			}
		}
	case 't', 'f', 'n':
		for _, lit := range [...]string{"true", "false", "null"} {
			if bytes.HasPrefix(data[pos:], []byte(lit)) {
				return pos + len(lit), nil
			}
		}
	default: // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
		if i = pos; c == '-' {
			i++
		}
		j := digits(data, i)
		if ok, i = j > i && (data[i] != '0' || j == i+1), j; ok && i < len(data) && data[i] == '.' {
			j = digits(data, i+1)
			ok, i = j > i+1, j
		}
		if ok && i < len(data) && data[i]|0x20 == 'e' {
			if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
				i++
			}
			j = digits(data, i)
			ok, i = j > i, j
		}
		if ok {
			return i, nil
		}
	}
	return i, syntaxError(data, i)
}

func digits(data []byte, i int) int {
	for i < len(data) && data[i]-'0' < 10 {
		i++
	}
	return i
}

func isHex(b []byte) bool {
	_, err := strconv.ParseUint(string(b), 16, 16)
	return err == nil
}

func skipSpace(data []byte, pos int) int {
	for pos < len(data) && (data[pos] == ' ' || data[pos] == '\t' || data[pos] == '\n' || data[pos] == '\r') {
		pos++
	}
	return pos
}

func syntaxError(data []byte, pos int) error {
	return fmt.Errorf("api: invalid JSON at offset %d of %d", pos, len(data))
}
